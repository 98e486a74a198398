package engine_test

import (
	"math/rand"
	"testing"

	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// aggDiffProgram exercises every maintainable aggregate op over a
// TTL'd table: count (EmitZero), sum, avg, min, max, both grouped and
// ungrouped, plus a delete rule so key-deletes flow through the
// accumulator's listener path.
const aggDiffProgram = `
materialize(val, 5, infinity, keys(1,2)).
materialize(cnt, infinity, infinity, keys(1,2)).
materialize(total, infinity, infinity, keys(1)).
materialize(mean, infinity, infinity, keys(1)).
materialize(low, infinity, infinity, keys(1)).
materialize(high, infinity, infinity, keys(1)).
watch(cnt).
watch(total).
watch(mean).
watch(low).
watch(high).
a1 cnt@N(G, count<*>) :- val@N(K, G, V).
a2 total@N(sum<V>) :- val@N(K, G, V).
a3 mean@N(avg<V>) :- val@N(K, G, V).
a4 low@N(min<V>) :- val@N(K, G, V).
a5 high@N(max<V>) :- val@N(K, G, V).
d1 delete val@N(K, G, V) :- drop@N(K), val@N(K, G, V).
`

// runAggDiffScript replays one seeded interleaving of inserts,
// key-deletes, and TTL expiry (clock advances past the 5s lifetime)
// and returns the rendered emission stream in order plus the number of
// incremental accumulator applications the run performed. A traced
// node rescans every aggregate, so traced=true is the reference run.
func runAggDiffScript(t *testing.T, seed int64, traced bool) ([]string, int64) {
	t.Helper()
	h := newHarness(t, aggDiffProgram, "n1")
	if traced {
		if err := h.net.Node("n1").EnableTracing(trace.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 150; step++ {
		switch rng.Intn(12) {
		case 0, 1, 2, 3, 4, 5, 6:
			// Insert; key collisions replace rows (same K,
			// different G/V) so replacement deltas are covered too.
			var v tuple.Value
			if rng.Intn(4) == 0 {
				v = tuple.Float(float64(rng.Intn(200)-100) / 8)
			} else {
				v = tuple.Int(int64(rng.Intn(100) - 50))
			}
			h.inject("n1", tuple.New("val", tuple.Str("n1"),
				tuple.Int(int64(rng.Intn(8))), tuple.Int(int64(rng.Intn(3))), v))
		case 7, 8, 9:
			h.inject("n1", tuple.New("drop", tuple.Str("n1"),
				tuple.Int(int64(rng.Intn(8)))))
		case 10:
			h.net.RunFor(0.4)
		case 11:
			// Big advance: rows cross the 5s TTL, so the next
			// trigger must reflect the expiries identically.
			h.net.RunFor(3.1)
		}
		h.net.RunFor(0.05)
	}
	h.net.RunFor(6)
	h.noErrors()
	out := make([]string, len(h.watched))
	for i, w := range h.watched {
		out[i] = w.String()
	}
	return out, h.net.Node("n1").Metrics().AggApplies
}

// TestAggIncrementalDifferential: for several seeded interleavings, the
// emission stream of an untraced node, which maintains its aggregates
// incrementally, must be byte-identical to that of its traced twin,
// which rescans, for count/sum/avg/min/max, including EmitZero count
// rules. It also pins that tracing does not change what an aggregate
// emits.
func TestAggIncrementalDifferential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rescan, rescanApplies := runAggDiffScript(t, seed, true)
		incr, applies := runAggDiffScript(t, seed, false)
		if len(rescan) == 0 {
			t.Fatalf("seed %d: rescan run emitted nothing", seed)
		}
		if rescanApplies != 0 {
			t.Fatalf("seed %d: the traced node applied %d deltas, want a rescan", seed, rescanApplies)
		}
		if applies == 0 {
			// Guards against the differential passing vacuously
			// because eligibility analysis regressed.
			t.Fatalf("seed %d: incremental run applied no deltas", seed)
		}
		if len(incr) != len(rescan) {
			t.Fatalf("seed %d: incremental emitted %d tuples, rescan %d",
				seed, len(incr), len(rescan))
		}
		for i := range incr {
			if incr[i] != rescan[i] {
				t.Fatalf("seed %d emission %d: incremental %s, rescan %s",
					seed, i, incr[i], rescan[i])
			}
		}
	}
}
