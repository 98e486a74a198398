package monitor

import (
	"testing"

	"p2go/internal/chord"
	"p2go/internal/faults"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// TestConsistencyProbeHealthy: on a converged ring the consistency
// metric (§3.1.4) is 1.0 — every distinct routing neighbor resolves a
// random key to the same owner — and no alarm fires.
func TestConsistencyProbeHealthy(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(300) // converge ring and fingers
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("ring not converged: %v", bad)
	}
	// Deploy the probe on-line on the measured node only, as in Fig. 6.
	if err := r.Node("n10").InstallProgram(ConsistencyProgram(15)); err != nil {
		t.Fatal(err)
	}
	r.Run(120)
	if len(r.Errors) > 0 {
		t.Fatalf("rule errors: %v", r.Errors[:min(3, len(r.Errors))])
	}
	results, alarms := 0, 0
	for _, w := range r.Watched {
		switch w.T.Name {
		case "consistency":
			results++
			if c := w.T.Field(2).AsFloat(); c != 1.0 {
				t.Errorf("consistency = %v on a stable ring, want 1.0", c)
			}
		case "consAlarm":
			alarms++
		}
	}
	if results == 0 {
		t.Error("no consistency results produced in 120s")
	}
	if alarms != 0 {
		t.Errorf("consAlarm fired %d times on a healthy ring", alarms)
	}
}

// TestConsistencyProbeDetectsFailures: crashing several nodes leaves the
// prober with stale fingers pointing at dead nodes for the failure
// detection window; lookups through them go unanswered, so the metric
// drops below 1.0.
func TestConsistencyProbeDetectsFailures(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 12, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(300)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("ring not converged: %v", bad)
	}
	if err := r.Node("n12").InstallProgram(ConsistencyProgram(10)); err != nil {
		t.Fatal(err)
	}
	r.Run(40) // healthy probes first
	// Crash one of the prober's distinct routing neighbors: its probe
	// lookups go unanswered while the others still resolve, so response
	// clusters shrink below the lookup count. (Crashing many nodes
	// instead kills every route and yields zero-response probes, which
	// cs9 — faithfully to the paper — never reports.)
	var victim string
	uf := r.Node("n12").Store().Get("uniqueFinger")
	uf.Scan(r.Sim.Now(), func(tp tuple.Tuple) {
		if a := tp.Field(1).AsStr(); victim == "" && a != "n12" {
			victim = a
		}
	})
	if victim == "" {
		t.Fatal("prober has no remote fingers")
	}
	crash := faults.Scenario{Name: "crash-finger", Events: []faults.Event{
		{Kind: faults.Crash, Nodes: []string{victim}},
	}}
	if _, err := r.RunFaults(crash, 60, nil); err != nil {
		t.Fatal(err)
	}
	sawDegraded := false
	for _, w := range r.Watched {
		if w.T.Name == "consistency" && w.T.Field(2).AsFloat() < 1.0 {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Errorf("consistency metric never degraded despite crashed finger %s", victim)
	}
}

// TestConsistencyMultipleProbers: probes are independent per node;
// deploying on three nodes yields results on each.
func TestConsistencyMultipleProbers(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 8, Seed: 31,
		ExtraPrograms: []*overlog.Program{ConsistencyProgram(20)}})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(300)
	byNode := map[string]int{}
	for _, w := range r.Watched {
		if w.T.Name == "consistency" {
			byNode[w.Node]++
		}
	}
	if len(byNode) < len(r.Addrs)/2 {
		t.Errorf("consistency results on only %d nodes: %v", len(byNode), byNode)
	}
}

// TestMonitorProgramsParse pins every §3 rule set at representative
// parameters (fractional periods are used by the Figure 6/7 harness).
func TestMonitorProgramsParse(t *testing.T) {
	for _, period := range []float64{0.5, 1, 4.0 / 3, 20, 32} {
		if got := len(ConsistencyProgram(period).Rules()); got != 12 {
			t.Errorf("consistency rules at %v = %d, want 12 (cs1-cs12)", period, got)
		}
		if got := len(SnapshotInitiatorProgram(period).Rules()); got != 2 {
			t.Errorf("initiator rules at %v = %d", period, got)
		}
		if got := len(SnapshotConsistencyProgram(period).Rules()); got != 11 {
			t.Errorf("snapshot-probe rules at %v = %d", period, got)
		}
		if got := len(RingProbeProgram(period).Rules()); got != 6 {
			t.Errorf("ring probe rules at %v = %d", period, got)
		}
	}
	if got := len(SnapshotProgram().Rules()); got < 18 {
		t.Errorf("snapshot rules = %d", got)
	}
	if got := len(OscillationProgram().Rules()); got != 10 {
		t.Errorf("oscillation rules = %d, want os0-os9", got)
	}
	if got := len(SnapshotLookupProgram().Rules()); got != 3 {
		t.Errorf("snapshot lookup rules = %d", got)
	}
	if got := len(OrderingTraversalProgram().Rules()); got != 6 {
		t.Errorf("traversal rules = %d (ri2-ri7)", got)
	}
}
