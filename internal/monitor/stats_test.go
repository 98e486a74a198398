package monitor

import (
	"math"
	"testing"

	"p2go/internal/chord"
	"p2go/internal/metrics"
	"p2go/internal/tuple"
)

// valueOf reads a profile/profQuery value field (int or float counter).
func valueOf(v tuple.Value) float64 {
	if v.Kind() == tuple.KindFloat {
		return v.AsFloat()
	}
	return float64(v.AsInt())
}

// TestStatsProfilerMatchesEngineMetrics is the acceptance test for the
// queryable performance counters: an OverLog program — no Go inspection
// involved — deployed through the normal query lifecycle reads
// nodeStats/queryStats and reproduces the §3.2 profiler. Every profile
// tuple it emits must agree with the engine's Go-side metrics within
// one refresh period: counters are monotone, so a value published after
// snapshot A and observed before snapshot B lies in [A, B].
func TestStatsProfilerMatchesEngineMetrics(t *testing.T) {
	const pubPeriod, sweepPeriod = 5.0, 5.0
	r, err := chord.NewRing(chord.RingConfig{N: 8, Seed: 11, StatsPeriod: pubPeriod})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(200) // converge

	n := r.Node("n4")
	if _, err := Deploy(n, ProfilerDetector(sweepPeriod)); err != nil {
		t.Fatal(err)
	}

	start := r.Sim.Now()
	snapA := n.Metrics()
	queriesA := n.QueryMetrics()
	obsA := n.ObsCounters()
	r.Run(40)
	snapB := n.Metrics()
	queriesB := n.QueryMetrics()
	obsB := n.ObsCounters()
	if len(r.Errors) > 0 {
		t.Fatalf("rule errors: %v", r.Errors[:min(3, len(r.Errors))])
	}

	// The published counter set is the node counters plus the
	// observability extras (trace-store totals); all are monotone, so
	// the same snapshot-window bound applies.
	lowNode := make(map[string]float64)
	highNode := make(map[string]float64)
	for _, c := range snapA.Counters() {
		lowNode[c.Name] = c.Float()
	}
	for _, c := range obsA {
		lowNode[c.Name] = c.Float()
	}
	for _, c := range snapB.Counters() {
		highNode[c.Name] = c.Float()
	}
	for _, c := range obsB {
		highNode[c.Name] = c.Float()
	}

	// A profile tuple observed at time t carries a value published at
	// some point in (t - pubPeriod, t]. Tuples observed at least one
	// full publication period after snapshot A therefore carry values
	// from inside the [A, B] window.
	profiles, profQueries, sawProfiler := 0, 0, false
	for _, w := range r.Watched {
		if w.Node != "n4" || w.At < start+pubPeriod {
			continue
		}
		switch w.T.Name {
		case "profile":
			profiles++
			name := w.T.Field(2).AsStr()
			v := valueOf(w.T.Field(3))
			lo, okLo := lowNode[name]
			hi, okHi := highNode[name]
			if !okLo || !okHi {
				t.Fatalf("profile reports unknown counter %q", name)
			}
			if v < lo || v > hi {
				t.Errorf("profile %s = %v at t=%.1f outside snapshot window [%v, %v]",
					name, v, w.At, lo, hi)
			}
		case "profQuery":
			profQueries++
			qid := w.T.Field(2).AsStr()
			name := w.T.Field(3).AsStr()
			v := valueOf(w.T.Field(4))
			if qid == "mon:profiler" {
				sawProfiler = true
			}
			// Same window argument per query bucket. A query first
			// billed after snapshot A has no entry in queriesA; its
			// lower bound is zero.
			var lo, hi float64
			if qa, ok := queriesA[qid]; ok {
				for _, c := range qa.Counters() {
					if c.Name == name {
						lo = c.Float()
					}
				}
			}
			qb, ok := queriesB[qid]
			if !ok {
				t.Fatalf("profQuery reports unknown query %q", qid)
			}
			found := false
			for _, c := range qb.Counters() {
				if c.Name == name {
					hi = c.Float()
					found = true
				}
			}
			if !found {
				t.Fatalf("profQuery reports unknown counter %q", name)
			}
			if v < lo || v > hi {
				t.Errorf("profQuery %s/%s = %v at t=%.1f outside [%v, %v]",
					qid, name, v, w.At, lo, hi)
			}
		}
	}
	if profiles == 0 {
		t.Fatal("profiler produced no profile tuples")
	}
	if profQueries == 0 {
		t.Fatal("profiler produced no profQuery tuples")
	}
	// The profiler's own cost is visible to itself: its query ID shows
	// up in the published per-query bills it sweeps.
	if !sawProfiler {
		t.Error("profQuery never reported the mon:profiler query's own bill")
	}

	// Accounting integrity with publication and profiler on: per-query
	// bills sum to the node total.
	var sum float64
	for _, q := range queriesB {
		sum += q.BusySeconds
	}
	if diff := math.Abs(sum - snapB.BusySeconds); diff > 1e-9*(1+snapB.BusySeconds) {
		t.Errorf("per-query bills sum to %v, node total %v", sum, snapB.BusySeconds)
	}
	if queriesB[metrics.SystemQuery].BusySeconds <= queriesA[metrics.SystemQuery].BusySeconds {
		t.Error("system bucket did not grow during the window despite stats publication")
	}
}

// statsEpochs collects the distinct epoch values present in a node's
// published nodeStats and queryStats rows.
func statsEpochs(r *chord.Ring, addr string) map[int64]int {
	out := map[int64]int{}
	now := r.Sim.Now()
	for _, tab := range []string{"nodeStats", "queryStats"} {
		if tb := r.Node(addr).Store().Get(tab); tb != nil {
			tb.Scan(now, func(t tuple.Tuple) { out[t.Field(1).AsInt()]++ })
		}
	}
	return out
}

// TestStatsEpochAcrossChurn: stats publication under churn. A node that
// crashes and rejoins comes back as a new process incarnation: its
// published rows carry the bumped epoch, and no stale rows from the
// previous incarnation survive the restart — so a collector reading
// nodeStats can tell a genuine counter reset (new epoch) from a counter
// decrease (same epoch, which monotone counters forbid).
func TestStatsEpochAcrossChurn(t *testing.T) {
	const period = 5.0
	r, err := chord.NewRing(chord.RingConfig{N: 6, Seed: 7, StatsPeriod: period})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(60)

	if got := r.Node("n3").Epoch(); got != 0 {
		t.Fatalf("pre-crash epoch = %d, want 0", got)
	}
	pre := statsEpochs(r, "n3")
	if pre[0] == 0 || len(pre) != 1 {
		t.Fatalf("pre-crash stats rows carry epochs %v, want only epoch 0", pre)
	}

	r.Net.Crash("n3")
	r.Run(20)
	r.Net.Rejoin("n3")
	// At least one publication period in the new incarnation, plus a
	// second for the replaced rows to settle.
	r.Run(2 * period)

	if got := r.Node("n3").Epoch(); got != 1 {
		t.Fatalf("post-rejoin epoch = %d, want 1", got)
	}
	post := statsEpochs(r, "n3")
	if post[1] == 0 {
		t.Fatal("rejoined node published no stats rows under the new epoch")
	}
	if post[0] != 0 {
		t.Errorf("%d stale stats rows from epoch 0 survived the rejoin", post[0])
	}
	// The engine-owned incarnation row agrees.
	var epochRow int64 = -1
	r.Node("n3").Store().Get("nodeEpoch").Scan(r.Sim.Now(), func(t tuple.Tuple) {
		epochRow = t.Field(1).AsInt()
	})
	if epochRow != 1 {
		t.Errorf("nodeEpoch row = %d, want 1", epochRow)
	}
	// A node that never crashed stays in its original incarnation.
	if other := statsEpochs(r, "n2"); other[0] == 0 || len(other) != 1 {
		t.Errorf("undisturbed node's stats rows carry epochs %v, want only epoch 0", other)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("rule errors: %v", r.Errors[:min(3, len(r.Errors))])
	}
}

// TestProfilerDetectorLifecycle: the profiler deploys and undeploys
// like any §3.1 detector, leaving the node's dataflow shape unchanged.
func TestProfilerDetectorLifecycle(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 4, Seed: 3, StatsPeriod: 5})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(60)
	n := r.Node("n2")
	timers := n.NumTimers()
	d := ProfilerDetector(5)
	if _, err := Deploy(n, d); err != nil {
		t.Fatal(err)
	}
	if !n.HasQuery(d.QueryID()) {
		t.Fatal("profiler query not installed")
	}
	r.Run(20)
	if err := Undeploy(n, d); err != nil {
		t.Fatal(err)
	}
	r.Run(20)
	if n.HasQuery(d.QueryID()) {
		t.Fatal("profiler query still installed after undeploy")
	}
	if got := n.NumTimers(); got != timers {
		t.Errorf("timers after undeploy = %d, want %d", got, timers)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("rule errors: %v", r.Errors[:min(3, len(r.Errors))])
	}
}
