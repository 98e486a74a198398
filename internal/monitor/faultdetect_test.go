package monitor

import (
	"testing"

	"p2go/internal/chord"
	"p2go/internal/faults"
	"p2go/internal/overlog"
)

// ringDetectors deploys the full §3.1.1 ring checker suite (active
// rp1-rp3/rs1-rs3 probes and the passive rp4 check).
func ringDetectors(tProbe float64) []*overlog.Program {
	return []*overlog.Program{RingProbeProgram(tProbe), RingPassiveProgram()}
}

// ringAlarms are the watched predicates those checkers raise.
var ringAlarms = []string{"inconsistentPred", "inconsistentSucc"}

// convergedRing builds a ring with the given monitors and lets it
// stabilize for converge virtual seconds.
func convergedRing(t *testing.T, cfg chord.RingConfig, converge float64) *chord.Ring {
	t.Helper()
	r, err := chord.NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(converge)
	return r
}

// TestChurnDetection is the §3.1 true-positive experiment: on a churned
// ring (three crashes, later rejoins) the deployed ring detectors stay
// silent while the ring is healthy, fire within bounded virtual time of
// the crash, and fall silent again once the ring has repaired.
func TestChurnDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("11-node 540s churn run")
	}
	// A 480 s horizon leaves room for the full post-rejoin
	// reconciliation: with three nodes rejoining at once the ring takes
	// a secondary stabilization burst ~2 min after the rejoin before
	// going quiet for good.
	r := convergedRing(t, chord.RingConfig{N: 11, Seed: 42, ExtraPrograms: ringDetectors(5)}, 240)
	res, err := r.RunFaults(chord.ChurnScenario(11), 480, ringAlarms...)
	if err != nil {
		t.Fatal(err)
	}
	if res.PreAlarms != 0 {
		t.Errorf("healthy converged ring raised %d alarms before the crash", res.PreAlarms)
	}
	if res.Detection < 0 {
		t.Fatal("detectors never fired after the crash")
	}
	if res.Detection > 60 {
		t.Errorf("detection latency %.1fs exceeds the 60s bound", res.Detection)
	}
	if res.Alarms == 0 {
		t.Error("no alarms counted over the churn window")
	}
	if res.QuietAlarms != 0 {
		t.Errorf("detectors did not re-silence: %d alarms in the final quiet window (last at t=%.0fs)",
			res.QuietAlarms, res.LastAlarm)
	}
	if len(res.Repairs) != 2 || res.Repairs[0].Latency < 0 || res.Repairs[1].Latency < 0 {
		t.Errorf("ring did not repair: %+v", res)
	}
}

// TestPartitionDetection: isolating one node behind a partition (no
// crash — the node keeps running) corrupts the ring as seen by the
// detectors; alarms arrive within bounded time of the cut and stop
// after the heal and re-stabilization.
func TestPartitionDetection(t *testing.T) {
	r := convergedRing(t, chord.RingConfig{N: 8, Seed: 13, ExtraPrograms: ringDetectors(5)}, 200)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("ring not converged: %v", bad)
	}
	victim := "n4"
	ev := faults.Event{At: 10, Kind: faults.Partition, Duration: 60}
	for _, a := range r.Addrs {
		if a != victim {
			ev.Links = append(ev.Links, [2]string{victim, a})
		}
	}
	res, err := r.RunFaults(faults.Scenario{Name: "isolate", Events: []faults.Event{ev}}, 180, ringAlarms...)
	if err != nil {
		t.Fatal(err)
	}
	if res.PreAlarms != 0 {
		t.Fatalf("%d alarms before the partition at t=%.1f", res.PreAlarms, res.Start+10)
	}
	if res.Detection < 0 {
		t.Fatal("detectors never fired on the partitioned ring")
	}
	if res.Detection > 60 {
		t.Errorf("detection latency %.1fs exceeds the 60s bound", res.Detection)
	}
	if quiet := res.Start + 120; res.LastAlarm > quiet {
		t.Errorf("detectors still firing at t=%.1f, want silence after t=%.1f", res.LastAlarm, quiet)
	}
	if len(res.Violations) > 0 {
		t.Errorf("ring did not re-converge after the heal: %v", res.Violations)
	}
}

// TestOscillationDetectsInjectedCrash: the §3.1.3 oscillation detectors
// produce true positives when the fault injector crashes a neighbor of
// a buggy (guard-less) Chord node — same signal as the hand-driven
// crash in TestOscillationOnBuggyChord, but through the scenario
// machinery end to end.
func TestOscillationDetectsInjectedCrash(t *testing.T) {
	r := convergedRing(t, chord.RingConfig{N: 8, Seed: 13, Buggy: true,
		ExtraPrograms: []*overlog.Program{OscillationProgram()}}, 200)
	res, err := r.RunFaults(faults.MustParse("scenario kill-n5\nat 5 crash n5"), 120, "oscill")
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection < 0 {
		t.Fatal("no oscillations observed for the injected crash on buggy Chord")
	}
	if res.Detection > 120 {
		t.Errorf("oscillation detection latency %.1fs out of bounds", res.Detection)
	}
	if res.PreAlarms != 0 {
		t.Errorf("%d oscillations before the crash", res.PreAlarms)
	}
	for _, w := range r.Watched {
		if w.T.Name == "oscill" && w.At >= res.Start && w.T.Field(1).AsStr() != "n5" {
			t.Errorf("oscillation about %s, want only the crashed n5: %v", w.T.Field(1).AsStr(), w.T)
		}
	}
	if res.Faults.Crashes != 1 {
		t.Errorf("injector stats = %+v", res.Faults)
	}
}
