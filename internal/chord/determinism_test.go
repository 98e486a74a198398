package chord

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"p2go/internal/trace"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// ringFingerprint captures everything the determinism contract covers:
// each node's metrics counters, the full contents (including node-local
// tuple IDs) of every table on every node, the network-wide totals, and
// the drop count.
func ringFingerprint(r *Ring) string {
	var b strings.Builder
	now := r.Sim.Now()
	for _, a := range r.Addrs {
		n := r.Node(a)
		fmt.Fprintf(&b, "%s metrics=%+v\n", a, n.Metrics())
		st := n.Store()
		names := st.Names()
		sort.Strings(names)
		for _, name := range names {
			var rows []string
			st.Get(name).Scan(now, func(t tuple.Tuple) {
				rows = append(rows, fmt.Sprintf("%v#%d", t, t.ID))
			})
			sort.Strings(rows)
			fmt.Fprintf(&b, "%s/%s(%d): %s\n", a, name, len(rows), strings.Join(rows, " "))
		}
	}
	fmt.Fprintf(&b, "total=%+v dropped=%d watched=%d errors=%d now=%v\n",
		r.Net.TotalMetrics(), r.Net.Dropped(), len(r.Watched), len(r.Errors), now)
	return b.String()
}

// requireSameRun fails the test unless two runs of one scenario at one
// seed left byte-identical fingerprints, showing where they part.
func requireSameRun(t *testing.T, what, first, second string) {
	t.Helper()
	if first == second {
		return
	}
	i := 0
	for i < len(first) && i < len(second) && first[i] == second[i] {
		i++
	}
	lo := max(0, i-200)
	t.Fatalf("two %s runs at one seed diverged at byte %d:\n...first:  %q\n...second: %q",
		what, i, first[lo:min(len(first), i+200)], second[lo:min(len(second), i+200)])
}

// TestParallelDeterminism21 is the correctness spine: a run is a pure
// function of its seed. The paper's 21-node Chord convergence workload
// (the TestConvergence21 scenario, plus message loss to exercise the
// per-link RNG streams) run twice must produce bit-identical metrics,
// drop counts, and final table contents on every node. (It keeps the
// name it had when the second run was the parallel driver's.)
func TestParallelDeterminism21(t *testing.T) {
	if testing.Short() {
		t.Skip("two 21-node 300s rings")
	}
	build := func() string {
		r, err := NewRing(RingConfig{N: 21, Seed: 42, LossProb: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		r.Run(300)
		if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
			t.Errorf("ring not converged after 300s: %v", bad)
		}
		return ringFingerprint(r)
	}
	requireSameRun(t, "convergence", build(), build())
}

// tracedStreams runs a traced 21-node ring with a trace store and
// returns, per node, everything the store recorded, in record order.
func tracedStreams(t *testing.T) []string {
	t.Helper()
	tcfg := trace.DefaultConfig()
	scfg := tracestore.Config{Enabled: true, WindowSeconds: 5}
	r, err := NewRing(RingConfig{N: 21, Seed: 42, Tracing: &tcfg, TraceStore: &scfg})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(400)
	stores := make(map[string]*tracestore.Store, len(r.Addrs))
	for _, a := range r.Addrs {
		if stores[a] = r.Node(a).TraceStore(); stores[a] == nil {
			t.Fatalf("%s: trace store configured but not attached", a)
		}
	}
	v := tracestore.NewView(stores, 0)
	out := make([]string, len(r.Addrs))
	for i, a := range r.Addrs {
		execs, err1 := v.Execs(tracestore.ExecFilter{Node: a})
		events, err2 := v.Events(tracestore.EventFilter{Node: a})
		hops, err3 := v.Hops(a)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err1, err2, err3)
		}
		out[i] = fmt.Sprintf("execs %v\nevents %v\nhops %v", execs, events, hops)
	}
	return out
}

// TestTracedRunsRepeat: two identical-seed traced runs record identical
// trace stores. The streams include the delete events of soft-state rows
// expiring in one sweep, which a table reports through its listeners:
// the order must be the rows' insertion order, not that of a Go map.
// This is the only guard on listener order at system level (CI runs it
// with -count=3).
func TestTracedRunsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced 21-node 400s rings")
	}
	a, b := tracedStreams(t), tracedStreams(t)
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		la, lb := strings.Split(a[i], "\n"), strings.Split(b[i], "\n")
		for k := range la {
			if la[k] != lb[k] {
				j := 0
				for j < len(la[k]) && j < len(lb[k]) && la[k][j] == lb[k][j] {
					j++
				}
				t.Fatalf("node n%d: identical runs diverged in %q at byte %d:\n...%q\n...%q", i+1,
					la[k][:min(6, len(la[k]))], j, la[k][max(0, j-120):min(len(la[k]), j+120)], lb[k][max(0, j-120):min(len(lb[k]), j+120)])
			}
		}
	}
}
