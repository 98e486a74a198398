package monitor

import (
	"strings"
	"testing"

	"p2go/internal/chord"
	"p2go/internal/planner"
	"p2go/internal/tuple"
)

func TestBuildClusterModes(t *testing.T) {
	spec := ClusterSpec{Name: "livecount", Period: 3, Root: "n1", Source: `
r1 clusterLive@M(count<*>) :- nodeStats@N(Ep, C, V), C == "BusySeconds".`}

	q, err := BuildCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode != ClusterTree || q.Reason != "" {
		t.Errorf("mode = %s (%q), want tree", q.Mode, q.Reason)
	}
	if q.Detector.QueryID() != "mon:cluster:livecount" {
		t.Errorf("query ID = %q", q.Detector.QueryID())
	}
	if !strings.Contains(q.Source, planner.TreeParentTable) {
		t.Error("tree-mode program does not route on the overlay")
	}

	// Group-by is not splittable: raw collection with the reason kept.
	q, err = BuildCluster(ClusterSpec{Name: "percounter", Period: 3, Root: "n1", Source: `
r1 peaks@M(C, max<V>) :- nodeStats@N(Ep, C, V).`})
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode != ClusterCollect || !strings.Contains(q.Reason, "group-by") {
		t.Errorf("group-by mode = %s (%q), want collect", q.Mode, q.Reason)
	}

	if _, err := BuildCluster(ClusterSpec{Name: "bad name", Period: 3, Root: "n1",
		Source: `r1 x@M(count<*>) :- nodeStats@N(Ep, C, V).`}); err == nil {
		t.Error("invalid tag accepted")
	}
}

// clusterValue reads the single result row of a cluster query's head
// table at the collector.
func clusterValue(r *chord.Ring, root, table string) (float64, bool) {
	tb := r.Node(root).Store().Get(table)
	if tb == nil {
		return 0, false
	}
	v, ok := 0.0, false
	tb.Scan(r.Sim.Now(), func(t tuple.Tuple) { v, ok = valueOf(t.Field(1)), true })
	return v, ok
}

func deployClusterEverywhere(t *testing.T, r *chord.Ring, q ClusterQuery) {
	t.Helper()
	for _, a := range r.Addrs {
		if _, err := Deploy(r.Node(a), q.Detector); err != nil {
			t.Fatalf("deploy on %s: %v", a, err)
		}
	}
}

// TestClusterQueryOverTree: the livecount query converges to the exact
// member count at the tree root, survives a member crash (the dead
// subtree ages out of the aggregate) and recovers on rejoin.
func TestClusterQueryOverTree(t *testing.T) {
	const n, period = 7, 3.0
	r, err := chord.NewRing(chord.RingConfig{
		N: n, Seed: 19,
		Tree: &chord.TreeConfig{Fanout: 3, Heartbeat: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildCluster(ClusterSpec{Name: "livecount", Period: period, Root: "n1", Source: `
r1 clusterLive@M(count<*>) :- nodeStats@N(Ep, C, V), C == "BusySeconds".`})
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode != ClusterTree {
		t.Fatalf("mode = %s, want tree", q.Mode)
	}
	deployClusterEverywhere(t, r, q)
	r.Run(40) // several refresh rounds past stats + tree startup
	if v, ok := clusterValue(r, "n1", "clusterLive"); !ok || v != n {
		t.Fatalf("clusterLive = %v (present %v), want %d", v, ok, n)
	}
	// Tree traffic is billed to the monitoring query, not the system
	// bucket: an interior node forwards partials upward on mon:cluster's
	// dime.
	if bill, ok := r.Node("n2").QueryMetrics()[q.Detector.QueryID()]; !ok || bill.BusySeconds <= 0 {
		t.Errorf("no busy-time billed to %s on an interior node", q.Detector.QueryID())
	}

	r.Net.Crash("n5")
	// Inbox TTL is 2.5 periods, and the tick-paced pipeline then moves
	// the change one stage per tick: child merge, upward push, root
	// merge, root finalize — ~6.5 periods worst case before the root
	// value reflects the loss.
	r.Run(7 * period)
	if v, _ := clusterValue(r, "n1", "clusterLive"); v != n-1 {
		t.Errorf("after crash clusterLive = %v, want %d", v, n-1)
	}
	// The rejoined leaf reads nodeStats on a tick and its self push
	// sends that partial on the next one: one period more than the
	// stages above.
	r.Net.Rejoin("n5")
	r.Run(7 * period)
	if v, _ := clusterValue(r, "n1", "clusterLive"); v != n {
		t.Errorf("after rejoin clusterLive = %v, want %d", v, n)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("rule errors: %v", r.Errors[0])
	}
}

// TestClusterQueryFlatMatchesTree: flat collection is the tree overlay
// at fanout N, where every member's parent is the root. From one seed,
// the fanout-N ring and a fanout-2 ring (depth 2 at six members)
// converge to the same value at the root.
func TestClusterQueryFlatMatchesTree(t *testing.T) {
	const n = 6
	q, err := BuildCluster(ClusterSpec{Name: "livecount", Period: 3, Root: "n1", Source: `
r1 clusterLive@M(count<*>) :- nodeStats@N(Ep, C, V), C == "BusySeconds".`})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, fanout := range []int{n, 2} {
		r, err := chord.NewRing(chord.RingConfig{
			N: n, Seed: 23,
			Tree: &chord.TreeConfig{Fanout: fanout, Heartbeat: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		deployClusterEverywhere(t, r, q)
		r.Run(30)
		v, ok := clusterValue(r, "n1", "clusterLive")
		if !ok {
			t.Fatalf("fanout %d: no clusterLive row at n1", fanout)
		}
		if len(r.Errors) > 0 {
			t.Fatalf("fanout %d: rule errors: %v", fanout, r.Errors[0])
		}
		got = append(got, v)
	}
	if got[0] != n || got[1] != got[0] {
		t.Errorf("clusterLive at fanout %d = %v, at fanout 2 = %v, want %d for both", n, got[0], got[1], n)
	}
}

// TestClusterSuiteDeploys: the stock suite builds in tree mode and its
// sum/max queries deliver plausible values at the root.
func TestClusterSuiteDeploys(t *testing.T) {
	const n = 5
	r, err := chord.NewRing(chord.RingConfig{
		N: n, Seed: 29,
		Tree: &chord.TreeConfig{Fanout: 2, Heartbeat: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	suite, err := ClusterSuite(3, "n1")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range suite {
		if q.Mode != ClusterTree {
			t.Fatalf("suite query %s mode = %s, want tree", q.Detector.Name, q.Mode)
		}
		deployClusterEverywhere(t, r, q)
	}
	r.Run(45)
	if v, ok := clusterValue(r, "n1", "clusterLive"); !ok || v != n {
		t.Errorf("clusterLive = %v (present %v), want %d", v, ok, n)
	}
	busy, ok := clusterValue(r, "n1", "clusterBusy")
	if !ok || busy <= 0 {
		t.Errorf("clusterBusy = %v (present %v), want > 0", busy, ok)
	}
	// The cluster-wide busy sum cannot exceed the true total at read
	// time (counters are monotone; published values lag).
	var trueBusy float64
	for _, a := range r.Addrs {
		trueBusy += r.Node(a).Metrics().BusySeconds
	}
	if busy > trueBusy {
		t.Errorf("clusterBusy %v exceeds true total %v", busy, trueBusy)
	}
	if v, ok := clusterValue(r, "n1", "clusterMaxTuples"); !ok || v <= 0 {
		t.Errorf("clusterMaxTuples = %v (present %v), want > 0", v, ok)
	}
	if v, ok := clusterValue(r, "n1", "clusterChordFires"); !ok || v <= 0 {
		t.Errorf("clusterChordFires = %v (present %v), want > 0", v, ok)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("rule errors: %v", r.Errors[0])
	}
}
