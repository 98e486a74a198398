package bench

import (
	"fmt"
	"strings"

	"p2go/internal/chord"
	"p2go/internal/faults"
	"p2go/internal/metrics"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
)

// churnDetectors is the §3.1 monitoring suite deployed for the churn
// experiment: active ring probes (rp1-rp3/rs1-rs3, 5 s period), the
// passive check (rp4), and the oscillation detectors (os1-os9; silent
// on the guarded Chord, deployed to prove it).
func churnDetectors() []*overlog.Program {
	return []*overlog.Program{
		monitor.RingProbeProgram(5),
		monitor.RingPassiveProgram(),
		monitor.OscillationProgram(),
	}
}

// churnAlarms are the watched predicates counted as detector alarms.
var churnAlarms = []string{
	"inconsistentPred", "inconsistentSucc",
	"oscill", "repeatOscill", "chaotic",
}

// Churn runs the PR's headline fault experiment: the 21-node ring
// converges for 5 min, three spread-out members crash at +60 s and
// rejoin (soft state lost, preamble replayed) at +120 s, with the §3.1
// detectors deployed on every node. It reports repair times and
// detection latency. The observation horizon is stretched to 480 s so
// the post-rejoin reconciliation (and the detectors' re-silencing) is
// inside the window.
func Churn(seed int64) (chord.ChurnResult, error) {
	_, res, err := chord.RunChurn(chord.ChurnConfig{
		N: Nodes, Seed: seed, Converge: ConvergeTime, End: 480,
		Detectors:  churnDetectors(),
		AlarmNames: churnAlarms,
	})
	return res, err
}

// FormatChurn renders the churn repair/detection table.
func FormatChurn(res chord.ChurnResult) string {
	return fmt.Sprintf(
		"Churn: 21-node ring, 3 nodes crash at +60s and rejoin at +120s, §3.1 detectors deployed\n%s\n",
		res)
}

// ScenarioResult is the outcome of replaying a declarative fault
// scenario (p2bench -exp scenario -scenario <file>) against the
// standard 21-node deployment.
type ScenarioResult struct {
	// Name is the scenario's declared name.
	Name string
	// Log is the injector's virtual-time record of applied faults.
	Log []faults.Applied
	// Faults are the network's fault counters.
	Faults metrics.Faults
	// RingViolations are the §3.1.1 invariant violations at the end of
	// the observation window, checked over the members the scenario
	// left alive (nodes it crashed without restarting are excluded).
	RingViolations []string
	// Sample is the measured node's standard figure sample.
	Sample Sample
}

// RunScenario converges the standard deployment, arms the scenario
// (times are interpreted relative to the end of convergence), and
// observes the standard warm+window phases.
func RunScenario(seed int64, sc faults.Scenario) (ScenarioResult, error) {
	r, err := buildRing(seed, nil)
	if err != nil {
		return ScenarioResult{}, err
	}
	inj, err := faults.Arm(r.Net, sc.Shift(r.Sim.Now()))
	if err != nil {
		return ScenarioResult{}, err
	}
	sample := measure(r, sc.Name, 0)

	// Nodes the scenario killed and never brought back are not ring
	// members at the end.
	dead := map[string]bool{}
	for _, ev := range sc.Events {
		for _, a := range ev.Nodes {
			switch ev.Kind {
			case faults.Crash:
				dead[a] = true
			case faults.Restart, faults.Rejoin:
				delete(dead, a)
			}
		}
	}
	return ScenarioResult{
		Name:           sc.Name,
		Log:            inj.Log(),
		Faults:         inj.Stats(),
		RingViolations: r.CheckRing(r.Alive(dead)),
		Sample:         sample,
	}, nil
}

// FormatScenario renders a scenario replay report.
func FormatScenario(res ScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario %q on the 21-node deployment\n", res.Name)
	for _, e := range res.Log {
		fmt.Fprintf(&b, "  t=%7.2f  %s\n", e.At, e.What)
	}
	fmt.Fprintf(&b, "  faults: %+v\n", res.Faults)
	if len(res.RingViolations) == 0 {
		fmt.Fprintf(&b, "  ring invariants: OK\n")
	} else {
		fmt.Fprintf(&b, "  ring invariants: %d violations\n", len(res.RingViolations))
		for _, v := range res.RingViolations {
			fmt.Fprintf(&b, "    %s\n", v)
		}
	}
	fmt.Fprintf(&b, "  measured node: %v\n", res.Sample)
	return b.String()
}
