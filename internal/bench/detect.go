package bench

import (
	"fmt"
	"strings"

	"p2go/internal/chord"
	"p2go/internal/faults"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
)

// churnDetectors is the §3.1 monitoring suite deployed for the fault
// experiments: active ring probes (rp1-rp3/rs1-rs3, 5 s period), the
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

// detectHorizon is how long a fault experiment observes the ring after
// convergence: long enough that the post-rejoin reconciliation of the
// churn scenario, and the detectors' re-silencing, fall inside it.
const detectHorizon = 480

// runFaults builds the ring, lets it converge, and plays sc on it to
// horizon with the churnAlarms scored.
func runFaults(cfg chord.RingConfig, converge float64, sc faults.Scenario, horizon float64) (*chord.Ring, chord.FaultReport, error) {
	r, err := chord.NewRing(cfg)
	if err != nil {
		return nil, chord.FaultReport{}, err
	}
	r.Run(converge)
	rep, err := r.RunFaults(sc, horizon, churnAlarms...)
	return r, rep, err
}

// Detect runs a fault scenario against the 21-node deployment with the
// §3.1 detectors on every node: the ring converges for ConvergeTime, then
// sc (times relative to convergence) plays for detectHorizon seconds.
// With chord.ChurnScenario(Nodes) this is the headline fault
// experiment: three spread-out members crash at +60 s and rejoin (soft
// state lost, preamble replayed) at +120 s.
func Detect(seed int64, sc faults.Scenario) (chord.FaultReport, error) {
	_, rep, err := runFaults(chord.RingConfig{N: Nodes, Seed: seed, ExtraPrograms: churnDetectors()},
		ConvergeTime, sc, detectHorizon)
	return rep, err
}

// FormatDetect renders a fault run: the applied log with each event's
// ring repair, the detectors' score, and the final audit.
func FormatDetect(name string, rep chord.FaultReport) string {
	lat := func(v float64) string {
		if v < 0 {
			return "never"
		}
		return fmt.Sprintf("%+.0fs", v)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Detect: scenario %q on the %d-node ring, §3.1 detectors deployed, observed t=%.0fs..%.0fs\n",
		name, Nodes, rep.Start, rep.End)
	for _, p := range rep.Repairs {
		fmt.Fprintf(&b, "  t=%7.2f  %-24s ring of %d broken %s, repaired %s\n",
			p.At, p.What, len(p.Members), lat(p.Broken), lat(p.Latency))
	}
	fmt.Fprintf(&b, "  pre-fault false alarms : %d\n", rep.PreAlarms)
	fmt.Fprintf(&b, "  detection latency      : %s (%s)\n", lat(rep.Detection), rep.FirstAlarm)
	fmt.Fprintf(&b, "  alarms (fault..end)    : %d, last at t=%.0fs, %d in final quiet window\n",
		rep.Alarms, rep.LastAlarm, rep.QuietAlarms)
	fmt.Fprintf(&b, "  faults                 : %+v\n", rep.Faults)
	if len(rep.Violations) == 0 {
		fmt.Fprintf(&b, "  ring invariants at end : OK over %d members\n", len(rep.Members))
	} else {
		fmt.Fprintf(&b, "  ring invariants at end : %d violations over %d members\n", len(rep.Violations), len(rep.Members))
		for _, v := range rep.Violations {
			fmt.Fprintf(&b, "    %s\n", v)
		}
	}
	return b.String()
}
