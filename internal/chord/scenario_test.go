package chord

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"p2go/internal/engine"
	"p2go/internal/faults"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// convergedRing builds a ring and lets it stabilize for converge
// virtual seconds.
func convergedRing(t *testing.T, cfg RingConfig, converge float64) *Ring {
	t.Helper()
	r, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(converge)
	return r
}

// requireRepairs fails the test unless the report logged one repair per
// named fault and every one of them was repaired.
func requireRepairs(t *testing.T, rep FaultReport, kinds ...faults.Kind) {
	t.Helper()
	if len(rep.Repairs) != len(kinds) {
		t.Fatalf("%d repairs logged, want %d: %+v", len(rep.Repairs), len(kinds), rep.Repairs)
	}
	for i, p := range rep.Repairs {
		if p.Kind != kinds[i] {
			t.Errorf("repair %d is after a %s, want %s", i, p.Kind, kinds[i])
		}
		if p.Latency < 0 {
			t.Errorf("ring over %d members never repaired after %q at t=%.0f", len(p.Members), p.What, p.At)
		}
	}
}

// TestChurnDeterminism21 is the PR's acceptance gate: the 21-node churn
// scenario (crash 3 nodes at +60 s, rejoin at +120 s) produces
// bit-identical results — every repair latency, every metrics counter,
// every table row — on two runs at the same seed: injury does not cost
// the simulation its reproducibility.
func TestChurnDeterminism21(t *testing.T) {
	if testing.Short() {
		t.Skip("two 21-node 600s rings")
	}
	build := func() (FaultReport, string) {
		r := convergedRing(t, RingConfig{N: 21, Seed: 42, LossProb: 0.02}, 300)
		rep, err := r.RunFaults(ChurnScenario(21), 300, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep, fmt.Sprintf("%+v\n", rep) + ringFingerprint(r)
	}
	rep, first := build()
	_, second := build()
	requireSameRun(t, "churn", first, second)
	// The churn actually happened and the ring actually healed — twice:
	// the survivors around the crashed nodes, then the full ring.
	if rep.Faults.Crashes != 3 || rep.Faults.Rejoins != 3 {
		t.Errorf("faults = %+v, want 3 crashes and 3 rejoins", rep.Faults)
	}
	requireRepairs(t, rep, faults.Crash, faults.Rejoin)
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
	build := func() (*Ring, FaultReport, string) {
		r := convergedRing(t, RingConfig{N: 21, Seed: 42, LossProb: 0.02, ExtraPrograms: extras()}, 300)
		// Rejoin is at +120: by +150 every node is up again to receive
		// the event, but repair traffic is still in flight. An event
		// landing on a crashed node would be lost, like any delivery to
		// a dead process.
		for _, a := range r.Addrs {
			for _, qid := range []string{ExtraQueryID(0), ExtraQueryID(1)} {
				ev := tuple.New(engine.UninstallEventName, tuple.Str(a), tuple.Str(qid))
				if err := r.Net.InjectAt(r.Sim.Now()+150, a, ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		rep, err := r.RunFaults(ChurnScenario(21), 300, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r, rep, fmt.Sprintf("%+v\n", rep) + ringFingerprint(r)
	}
	ring, rep, first := build()
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
	if rep.Faults.Crashes != 3 || rep.Faults.Rejoins != 3 {
		t.Errorf("faults = %+v, want 3 crashes and 3 rejoins", rep.Faults)
	}
	if len(rep.Repairs) != 2 || rep.Repairs[1].Latency < 0 {
		t.Errorf("full ring never re-converged after the rejoin: %+v", rep.Repairs)
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

// TestChurnScenarioVictims: the churn scenario crashes and rejoins the
// members at the quarter points of the join order.
func TestChurnScenarioVictims(t *testing.T) {
	for n, want := range map[int][]string{
		8:  {"n3", "n5", "n7"},
		11: {"n3", "n6", "n9"},
		21: {"n6", "n11", "n16"},
	} {
		sc := ChurnScenario(n)
		if len(sc.Events) != 2 || sc.Events[0].Kind != faults.Crash || sc.Events[1].Kind != faults.Rejoin ||
			sc.Events[0].At != 60 || sc.Events[1].At != 120 {
			t.Fatalf("N %d: events %+v, want a crash at 60 and a rejoin at 120", n, sc.Events)
		}
		for _, ev := range sc.Events {
			if !reflect.DeepEqual(ev.Nodes, want) {
				t.Errorf("N %d: %s targets %v, want %v", n, ev.Kind, ev.Nodes, want)
			}
		}
	}
}

// TestFaultRepairs: every applied event, an automatic heal included,
// gets its own break and repair times, measured over the members alive
// after it. Isolating n4 breaks nothing until the ring notices the cut
// (+17 s), and the ring stays broken until the heal, which it repairs;
// a crash and a restart each break the ring at the first poll.
func TestFaultRepairs(t *testing.T) {
	all := []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"}
	without := func(a string) []string {
		var out []string
		for _, m := range all {
			if m != a {
				out = append(out, m)
			}
		}
		return out
	}
	var isolate []string
	for _, a := range without("n4") {
		isolate = append(isolate, "n4-"+a)
	}
	type want struct {
		kind            faults.Kind
		members         []string
		broken, latency float64
	}
	for _, tc := range []struct {
		name string
		text string
		want []want
	}{
		{"partition", "at 10 partition " + strings.Join(isolate, " ") + " dur 60",
			[]want{{faults.Partition, all, 17, -1}, {faults.Heal, all, 1, 12}}},
		{"crash-restart", "at 10 crash n5\nat 100 restart n5",
			[]want{{faults.Crash, without("n5"), 1, 18}, {faults.Restart, all, 1, 8}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := convergedRing(t, RingConfig{N: 8, Seed: 13}, 200)
			rep, err := r.RunFaults(faults.MustParse(tc.text), 250, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Repairs) != len(tc.want) {
				t.Fatalf("%d repairs logged, want %d: %+v", len(rep.Repairs), len(tc.want), rep.Repairs)
			}
			for i, p := range rep.Repairs {
				w := tc.want[i]
				if p.Kind != w.kind || !reflect.DeepEqual(p.Members, w.members) {
					t.Errorf("repair %d: %s over %v, want %s over %v", i, p.Kind, p.Members, w.kind, w.members)
				}
				if p.Broken != w.broken || p.Latency != w.latency {
					t.Errorf("after %q: broken %+.0fs, repaired %+.0fs; want %+.0fs, %+.0fs",
						p.What, p.Broken, p.Latency, w.broken, w.latency)
				}
			}
			if len(rep.Violations) > 0 {
				t.Errorf("ring broken at the horizon: %v", rep.Violations)
			}
		})
	}
}

// TestFaultOrderIsVirtualTime: a scenario whose lines list a rejoin
// before the crash it follows is the same scenario; the members audited
// come from the applied log, in virtual-time order, not from the file.
func TestFaultOrderIsVirtualTime(t *testing.T) {
	run := func(text string) FaultReport {
		r := convergedRing(t, RingConfig{N: 21, Seed: 42}, 300)
		rep, err := r.RunFaults(faults.MustParse(text), 240, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	inOrder := run("at 10 crash n6\nat 40 rejoin n6")
	reversed := run("at 40 rejoin n6\nat 10 crash n6")
	if len(inOrder.Violations) > 0 {
		t.Fatalf("in order: ring broken at the horizon: %v", inOrder.Violations)
	}
	if got, want := fmt.Sprintf("%+v", reversed), fmt.Sprintf("%+v", inOrder); got != want {
		t.Errorf("reversed lines:\n%s\nwant the in-order report:\n%s", got, want)
	}
}
