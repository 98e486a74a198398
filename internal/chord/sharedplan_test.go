package chord

import (
	"fmt"
	"strings"
	"testing"

	"p2go/internal/engine"
)

// planSignature captures the observable content of a node's compiled
// plans, enough to detect any mutation of the shared immutable Plan.
func planSignature(n *engine.Node) string {
	var b strings.Builder
	for _, p := range n.Plans() {
		fmt.Fprintf(&b, "%s|%s|%s/%d|ops=%d|vars=%d|%s|del=%v|stages=%d\n",
			p.RuleID, p.Source, p.HeadName, len(p.HeadArgs), len(p.Ops),
			p.NumVars, strings.Join(p.VarNames, ","), p.IsDelete, p.Stages)
	}
	return b.String()
}

// TestSharedPlanIsolation drives one ring hard and asymmetrically — a
// late join, lookups on one node, a crash — and asserts that (a) every
// node runs off the same shared *Plan pointers, (b) the shared plans'
// contents never change while per-node strand state churns, and (c)
// emissions are bit-identical to a ring planned privately per node
// (engine.DisableSharedPlans). Concurrent nodes reading one plan set
// are realtime.TestSharedPlansConcurrentNodes' to check under -race.
func TestSharedPlanIsolation(t *testing.T) {
	build := func(private bool) (*Ring, error) {
		saved := engine.DisableSharedPlans
		engine.DisableSharedPlans = private
		defer func() { engine.DisableSharedPlans = saved }()
		r, err := NewRing(RingConfig{N: 8, Seed: 11})
		if err != nil {
			return nil, err
		}
		r.Run(120)
		if _, err := r.AddLateNode("n9"); err != nil {
			return nil, err
		}
		r.Run(30)
		for k := uint64(0); k < 5; k++ {
			if err := r.Lookup("n2", k*1e17, k); err != nil {
				return nil, err
			}
		}
		r.Net.Crash("n3")
		r.Run(60)
		return r, nil
	}

	shared, err := build(false)
	if err != nil {
		t.Fatal(err)
	}
	// (a) one shared plan set across all nodes, late joiner included.
	ref := shared.Node("n1").Plans()
	refSig := planSignature(shared.Node("n1"))
	for _, a := range shared.Addrs {
		ps := shared.Node(a).Plans()
		if len(ps) != len(ref) {
			t.Fatalf("%s has %d plans, n1 has %d", a, len(ps), len(ref))
		}
		for i := range ps {
			if ps[i] != ref[i] {
				t.Fatalf("%s plan %d is a private copy; want the shared instance", a, i)
			}
		}
	}
	// (b) churn mutated strand state only, never the shared plans.
	if sig := planSignature(shared.Node("n1")); sig != refSig {
		t.Fatal("shared plan contents changed under churn")
	}

	private, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := 0, private.Node("n1").Plans(); i < len(ps) && i < len(ref); i++ {
		if ps[i] == ref[i] {
			t.Fatalf("private-plan run shares plan %d with the shared run", i)
		}
	}
	// (c) bit-identical emissions either way.
	if a, b := ringFingerprint(shared), ringFingerprint(private); a != b {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo := max(0, i-150)
		t.Fatalf("shared and private plan runs diverged at byte %d:\n...shared:  %q\n...private: %q",
			i, a[lo:min(len(a), i+150)], b[lo:min(len(b), i+150)])
	}
}
