package chord

import (
	"fmt"
	"strings"
	"testing"

	"p2go/internal/dataflow"
	"p2go/internal/engine"
	"p2go/internal/faults"
)

// planSignature dumps the structure of a node's compiled plans: every
// exported field of each plan and of each op in its pipeline, with
// expressions in source form. Two compilations of one program in one
// environment dump identically; any mutation of a shared Plan shows.
func planSignature(n *engine.Node) string {
	var b strings.Builder
	for _, p := range n.Plans() {
		fmt.Fprintf(&b, "%s|%s|%+v|vars=%d|%s|head=%s%v|del=%v|stages=%d",
			p.RuleID, p.Source, p.Trigger, p.NumVars, strings.Join(p.VarNames, ","),
			p.HeadName, p.HeadArgs, p.IsDelete, p.Stages)
		if p.Agg != nil {
			fmt.Fprintf(&b, "|agg=%+v", *p.Agg)
		}
		if p.AggPlan != nil {
			fmt.Fprintf(&b, "|aggplan=%+v", *p.AggPlan)
		}
		for _, op := range p.Ops {
			switch o := op.(type) {
			case *dataflow.JoinOp:
				fmt.Fprintf(&b, "|join %s stage=%d slots=%v consts=%v index=%v",
					o.Table, o.Stage, o.FieldSlots, o.FieldConsts, o.IndexPositions)
			case *dataflow.CondOp:
				fmt.Fprintf(&b, "|cond %s", o.Expr)
			case *dataflow.AssignOp:
				fmt.Fprintf(&b, "|assign %d := %s", o.Slot, o.Expr)
			default:
				fmt.Fprintf(&b, "|%T", op)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSharedPlanIsolation drives one ring hard and asymmetrically — a
// late join, lookups on one node, a crash — and asserts that (a) every
// node runs off the same shared *Plan pointers, (b) the shared plans'
// contents never change while per-node strand state churns, and (c)
// the shared plans are structurally what a bare node compiles for
// itself when it installs Program() with InstallQuery. Concurrent nodes
// reading one plan set, realtime UDPNodes in one process, are
// realtime.TestSharedPlansConcurrentNodes' to check under -race.
func TestSharedPlanIsolation(t *testing.T) {
	r, err := NewRing(RingConfig{N: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(120)
	if _, err := r.AddLateNode("n9"); err != nil {
		t.Fatal(err)
	}
	r.Run(30)
	for k := uint64(0); k < 5; k++ {
		if err := r.Lookup("n2", k*1e17, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.RunFaults(faults.MustParse("at 0 crash n3"), 60, nil); err != nil {
		t.Fatal(err)
	}

	// (a) one shared plan set across all nodes, late joiner included.
	ref := r.Node("n1").Plans()
	refSig := planSignature(r.Node("n1"))
	for _, a := range r.Addrs {
		ps := r.Node(a).Plans()
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
	if sig := planSignature(r.Node("n1")); sig != refSig {
		t.Fatal("shared plan contents changed under churn")
	}
	// (c) each node's shared plans dump exactly like its bare twin's
	// own compilation.
	for _, a := range r.Addrs {
		twin := engine.NewNode(engine.Config{Addr: a})
		if _, err := twin.InstallQuery(QueryID, Program()); err != nil {
			t.Fatal(err)
		}
		if twin.Plans()[0] == ref[0] {
			t.Fatalf("%s twin shares plan 0; InstallQuery must compile on the node", a)
		}
		if got, want := planSignature(twin), planSignature(r.Node(a)); got != want {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := max(0, i-150)
			t.Fatalf("%s: twin and shared plans differ at byte %d:\n...twin:   %q\n...shared: %q",
				a, i, got[lo:min(len(got), i+150)], want[lo:min(len(want), i+150)])
		}
	}
}
