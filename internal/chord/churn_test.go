package chord

import (
	"fmt"
	"testing"

	"p2go/internal/overlog"
)

// TestChurnDeterminism21 is the PR's acceptance gate: the 21-node churn
// scenario (crash 3 nodes at +60 s, rejoin at +120 s) produces
// bit-identical results — every repair latency, every metrics counter,
// every table row — on two runs at the same seed: injury does not cost
// the simulation its reproducibility.
func TestChurnDeterminism21(t *testing.T) {
	if testing.Short() {
		t.Skip("two 21-node 600s rings")
	}
	build := func() (ChurnResult, string) {
		r, res, err := RunChurn(ChurnConfig{Seed: 42, LossProb: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		return res, fmt.Sprintf("%+v\n", res) + ringFingerprint(r)
	}
	res, first := build()
	_, second := build()
	requireSameRun(t, "churn", first, second)
	// The churn actually happened and the ring actually healed — twice.
	if res.Faults.Crashes != 3 || res.Faults.Rejoins != 3 {
		t.Errorf("faults = %+v, want 3 crashes and 3 rejoins", res.Faults)
	}
	if res.SurvivorRepair < 0 {
		t.Error("survivors never repaired the ring around the crashed nodes")
	}
	if res.RejoinRepair < 0 {
		t.Error("full ring never re-converged after the rejoin")
	}
}

// TestUninstallUnderChurnDeterminism21 is the uninstall-under-fire gate:
// two monitoring queries (a periodic prober with its own table and a
// passive bestSucc logger) ride the standard 21-node churn scenario and
// are retired mid-run — after the crashed nodes have rejoined but while
// ring repair is still in flight — through the higher-order
// uninstallProgram event. Two runs at the same seed must be
// bit-identical, and afterwards every node
// (victims included) must be back to the exact chord-only dataflow
// shape: no leaked strands, timers, watches, tables or log taps.
func TestUninstallUnderChurnDeterminism21(t *testing.T) {
	if testing.Short() {
		t.Skip("two 21-node 600s rings")
	}
	extras := func() []*overlog.Program {
		return []*overlog.Program{
			overlog.MustParse(`
materialize(probeLog, 30, 100, keys(1,2)).
watch(probeTick).
x1 probeLog@N(E) :- periodic@N(E, 5).
x2 probeTick@N(E) :- probeLog@N(E).
`),
			overlog.MustParse(`
materialize(succLog, 60, 50, keys(1,2)).
y1 succLog@N(SAddr) :- bestSucc@N(SID, SAddr).
`),
		}
	}
	build := func() (*Ring, ChurnResult, string) {
		r, res, err := RunChurn(ChurnConfig{
			Seed: 42, LossProb: 0.02,
			Detectors: extras(),
			Uninstall: []string{ExtraQueryID(0), ExtraQueryID(1)},
			// Rejoin is at +120: by +150 every node is up again to
			// receive the event, but repair traffic is still in flight.
			UninstallAt: 150,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r, res, fmt.Sprintf("%+v\n", res) + ringFingerprint(r)
	}
	ring, res, first := build()
	_, _, second := build()
	requireSameRun(t, "uninstall-under-churn", first, second)

	// The queries did real work before being retired.
	ticks := 0
	for _, w := range ring.Watched {
		if w.T.Name == "probeTick" {
			ticks++
		}
	}
	if ticks == 0 {
		t.Error("probe query never fired before its uninstall")
	}
	if res.Faults.Crashes != 3 || res.Faults.Rejoins != 3 {
		t.Errorf("faults = %+v, want 3 crashes and 3 rejoins", res.Faults)
	}
	if res.RejoinRepair < 0 {
		t.Error("full ring never re-converged after the rejoin")
	}

	// Leak check: a fresh chord-only node is the shape oracle — strand,
	// timer, watch and tap counts are fixed at install time (all chord
	// periodics are unbounded), so every node must match it exactly.
	ref, err := NewRing(RingConfig{N: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Node("n1")
	for _, a := range ring.Addrs {
		n := ring.Node(a)
		if qs := n.Queries(); len(qs) != 1 || qs[0] != QueryID {
			t.Errorf("%s: queries = %v, want [%s]", a, qs, QueryID)
		}
		if got := n.NumStrands(); got != want.NumStrands() {
			t.Errorf("%s: strands = %d, want %d", a, got, want.NumStrands())
		}
		if got := n.NumTimers(); got != want.NumTimers() {
			t.Errorf("%s: timers = %d, want %d", a, got, want.NumTimers())
		}
		if got := n.NumWatches(); got != want.NumWatches() {
			t.Errorf("%s: watches = %d, want %d", a, got, want.NumWatches())
		}
		if got := n.NumLogTaps(); got != want.NumLogTaps() {
			t.Errorf("%s: log taps = %d, want %d", a, got, want.NumLogTaps())
		}
		if n.Store().Get("probeLog") != nil || n.Store().Get("succLog") != nil {
			t.Errorf("%s: uninstalled query's table leaked", a)
		}
	}
}
