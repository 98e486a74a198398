// Package bench regenerates every experiment in §4 of the paper: the
// execution-logging overhead (E0), the periodic-rule and piggyback-rule
// microbenchmarks (Figures 4 and 5), and the overheads of the proactive
// consistency detector and of consistent snapshots as functions of their
// rates (Figures 6 and 7).
//
// The deployment replicates the paper's: a 21-node P2 Chord network
// (fingers fixed every 10 s, stabilization every 5 s, liveness pings
// every 5 s); 20 nodes form the substrate and the separate 21st node is
// the one measured. Metrics follow the paper's axes: CPU utilization
// (the calibrated cost model of the dataflow engine — see DESIGN.md §4),
// process memory, messages transmitted, and live tuples.
package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"p2go/internal/chord"
	"p2go/internal/engine"
	"p2go/internal/faults"
	"p2go/internal/metrics"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// Paper-matching deployment constants.
const (
	// Nodes is the network size (§4: "a population of 21 virtual
	// nodes"); the last node is the measured one.
	Nodes = 21
	// Measured is the address of the node all samples come from.
	Measured = "n21"
	// ConvergeTime is how long the substrate stabilizes before any
	// workload is added ("20 virtual nodes start and stabilize for
	// 5 min").
	ConvergeTime = 300
	// WarmTime lets a newly installed workload reach steady state
	// before the measurement window opens.
	WarmTime = 120
	// WindowTime is the measurement window.
	WindowTime = 120
)

// Memory model: the paper reports OS process size. We model it as a base
// process footprint plus per-strand dataflow-graph memory plus live
// soft-state (see DESIGN.md §4 for why this preserves the figures'
// shape).
const (
	baseProcessBytes  = 8 << 20 // idle P2 process (paper: 8 MB baseline)
	strandBytes       = 22 << 10
	tupleAmplifier    = 4.0 // C++ tuple boxing vs our flat estimate
	memoEntryOverhead = 256
)

// Sample is one measured configuration: a point on a figure.
type Sample struct {
	// Label is the x-axis value ("0".."250" rules, or "None", "1/32",
	// ... "1" probes/sec).
	Label string
	// X is the numeric x value (rule count or rate in 1/s; 0 = None).
	X float64
	// CPUPercent is the measured node's CPU utilization over the
	// window.
	CPUPercent float64
	// MemoryMB is the modeled process size at the end of the window.
	MemoryMB float64
	// LiveTuples is the number of live tuples at the end of the window.
	LiveTuples int
	// TxMessages is the number of messages the measured node sent
	// during the window.
	TxMessages int64
	// RuleFires is the number of strand activations during the window.
	RuleFires int64
}

func (s Sample) String() string {
	return fmt.Sprintf("%-6s cpu=%6.3f%%  mem=%6.2fMB  live=%6d  tx=%6d",
		s.Label, s.CPUPercent, s.MemoryMB, s.LiveTuples, s.TxMessages)
}

// buildRing constructs the 21-node deployment and lets it converge.
func buildRing(seed int64, tracing *trace.Config) (*chord.Ring, error) {
	r, err := chord.NewRing(chord.RingConfig{
		N: Nodes, Seed: seed, Tracing: tracing,
	})
	if err != nil {
		return nil, err
	}
	r.Run(ConvergeTime)
	return r, nil
}

// measure runs the warm-up and window phases and samples the measured
// node over the window.
func measure(r *chord.Ring, label string, x float64) Sample {
	n := r.Node(Measured)
	r.Run(WarmTime)
	before := n.Metrics()
	r.Run(WindowTime)
	after := n.Metrics()
	d := after.Sub(before)
	return Sample{
		Label:      label,
		X:          x,
		CPUPercent: metrics.CPUPercent(d.BusySeconds, WindowTime),
		MemoryMB:   processMB(n),
		LiveTuples: n.Store().LiveTuples(),
		TxMessages: d.MsgsSent,
		RuleFires:  d.RuleFires,
	}
}

// processMB models the measured node's process size in MB.
func processMB(n *engine.Node) float64 {
	bytes := float64(baseProcessBytes)
	bytes += float64(n.NumStrands()) * strandBytes
	bytes += float64(n.Store().SizeBytes()) * tupleAmplifier
	if tr := n.Tracer(); tr != nil {
		bytes += float64(tr.MemoSize()) * memoEntryOverhead
	}
	return bytes / (1 << 20)
}

// LoggingOverhead is experiment E0 (§4, text): the cost of making
// execution traceable. It returns the baseline and traced samples; the
// paper reports CPU +40% (0.98% -> 1.38%) and memory +66% (8 -> 13 MB).
func LoggingOverhead(seed int64) (off, on Sample, err error) {
	r, err := buildRing(seed, nil)
	if err != nil {
		return off, on, err
	}
	off = measure(r, "off", 0)

	tcfg := trace.DefaultConfig()
	r2, err := buildRing(seed, &tcfg)
	if err != nil {
		return off, on, err
	}
	on = measure(r2, "on", 1)
	return off, on, nil
}

// periodicRulesProgram builds N copies of the Figure 4 synthetic rule:
// result@NAddr() :- periodic@NAddr(E, 1).
func periodicRulesProgram(n int) *overlog.Program {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "pr%d result@NAddr() :- periodic@NAddr(E, 1).\n", i)
	}
	return overlog.MustParse(b.String())
}

// PeriodicRules regenerates Figure 4: CPU and memory on the measured
// node for an increasing number of concurrently running 1 s periodic
// rules.
func PeriodicRules(seed int64, counts []int) ([]Sample, error) {
	var out []Sample
	for _, c := range counts {
		r, err := buildRing(seed, nil)
		if err != nil {
			return nil, err
		}
		if c > 0 {
			if err := r.Node(Measured).InstallProgram(periodicRulesProgram(c)); err != nil {
				return nil, err
			}
		}
		out = append(out, measure(r, fmt.Sprintf("%d", c), float64(c)))
	}
	return out, nil
}

// piggybackRulesProgram builds the Figure 5 workload: one shared 1 s
// timer feeding N copies of a rule with a single state lookup:
// result@NAddr() :- event@NAddr(), bestSucc@NAddr(SID, SAddr).
func piggybackRulesProgram(n int) *overlog.Program {
	var b strings.Builder
	b.WriteString("drv event@NAddr() :- periodic@NAddr(E, 1).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "pb%d result@NAddr() :- event@NAddr(), bestSucc@NAddr(SID, SAddr).\n", i)
	}
	return overlog.MustParse(b.String())
}

// PiggybackRules regenerates Figure 5: N rules triggered by a common
// timer, each performing one table lookup. State lookups cost more than
// private timers, so the CPU slope exceeds Figure 4's.
func PiggybackRules(seed int64, counts []int) ([]Sample, error) {
	var out []Sample
	for _, c := range counts {
		r, err := buildRing(seed, nil)
		if err != nil {
			return nil, err
		}
		if c > 0 {
			if err := r.Node(Measured).InstallProgram(piggybackRulesProgram(c)); err != nil {
				return nil, err
			}
		}
		out = append(out, measure(r, fmt.Sprintf("%d", c), float64(c)))
	}
	return out, nil
}

// RateLabels match the paper's x axis for Figures 6 and 7.
var RateLabels = []struct {
	Label string
	Rate  float64 // probes or snapshots per second; 0 = None
}{
	{"None", 0},
	{"1/32", 1.0 / 32},
	{"1/4", 0.25},
	{"1/2", 0.5},
	{"3/4", 0.75},
	{"1", 1},
}

// AveragedRuns is how many independent seeds Figures 6 and 7 average
// per point, matching the paper's "each datapoint was produced by three
// separate runs". The high-rate probe points sit in a distressed,
// high-variance regime (the paper shows large error bars there), so
// single runs are not representative.
const AveragedRuns = 3

// ConsistencyProbes regenerates Figure 6: the proactive inconsistency
// detector of §3.1.4 running on the measured node at increasing
// initiation rates. Each point averages AveragedRuns seeds.
func ConsistencyProbes(seed int64) ([]Sample, error) {
	var out []Sample
	for _, rl := range RateLabels {
		var runs []Sample
		for k := int64(0); k < AveragedRuns; k++ {
			r, err := buildRing(seed+k, nil)
			if err != nil {
				return nil, err
			}
			if rl.Rate > 0 {
				prog := monitor.ConsistencyProgram(1 / rl.Rate)
				if err := r.Node(Measured).InstallProgram(prog); err != nil {
					return nil, err
				}
			}
			runs = append(runs, measure(r, rl.Label, rl.Rate))
		}
		out = append(out, averageSamples(runs))
	}
	return out, nil
}

// averageSamples averages a set of runs of one configuration.
func averageSamples(runs []Sample) Sample {
	avg := runs[0]
	if len(runs) == 1 {
		return avg
	}
	avg.CPUPercent, avg.MemoryMB = 0, 0
	var live, tx, fires int64
	for _, s := range runs {
		avg.CPUPercent += s.CPUPercent
		avg.MemoryMB += s.MemoryMB
		live += int64(s.LiveTuples)
		tx += s.TxMessages
		fires += s.RuleFires
	}
	n := float64(len(runs))
	avg.CPUPercent /= n
	avg.MemoryMB /= n
	avg.LiveTuples = int(live / int64(len(runs)))
	avg.TxMessages = tx / int64(len(runs))
	avg.RuleFires = fires / int64(len(runs))
	return avg
}

// Snapshots regenerates Figure 7: Chandy-Lamport snapshots initiated by
// the measured node at increasing rates, with every node participating.
// Each point averages AveragedRuns seeds, like Figure 6.
func Snapshots(seed int64) ([]Sample, error) {
	var out []Sample
	for _, rl := range RateLabels {
		var runs []Sample
		for k := int64(0); k < AveragedRuns; k++ {
			r, err := buildRing(seed+k, nil)
			if err != nil {
				return nil, err
			}
			if rl.Rate > 0 {
				for _, a := range r.Addrs {
					freq := 0.0
					if a == Measured {
						freq = 1 / rl.Rate
					}
					if err := monitor.InstallSnapshot(r.Node(a), freq); err != nil {
						return nil, err
					}
				}
			}
			runs = append(runs, measure(r, rl.Label, rl.Rate))
		}
		out = append(out, averageSamples(runs))
	}
	return out, nil
}

// FormatTable renders samples like the paper's figure series.
func FormatTable(title string, samples []Sample) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %10s %12s %12s %12s\n",
		"x", "CPU %", "Memory MB", "LiveTuples", "TxMsgs")
	for _, s := range samples {
		fmt.Fprintf(&b, "%-6s %10.3f %12.2f %12d %12d\n",
			s.Label, s.CPUPercent, s.MemoryMB, s.LiveTuples, s.TxMessages)
	}
	return b.String()
}

// DeadGuardResult summarizes one dead-guard ablation run.
type DeadGuardResult struct {
	// HealTime is the first time after the crash at which the surviving
	// ring satisfied the §3.1.1 invariants (-1 if never within the
	// observation window).
	HealTime float64
	// StaleSeconds integrates, over the observation window, the number
	// of routing-state entries (succ rows) still naming a crashed node:
	// the recycled-dead-neighbor exposure.
	StaleSeconds float64
	// Oscillations counts oscill events from the §3.1.3 detector.
	Oscillations int
}

// AblationDeadGuard quantifies §3.1.3's fix: with the dead-neighbor
// guard, entries for crashed nodes are swept and stay out, so the ring
// heals quickly; without it (the paper's buggy implementation), gossip
// keeps recycling the deceased neighbors, which the os-detectors observe
// and which shows up as stale routing state lingering far longer. The
// crash is the scenario `at 0 crash n5 n9`, played for 150 s after
// convergence; the probe samples the members' succ rows every 5 s.
func AblationDeadGuard(seed int64) (guard, buggy DeadGuardResult, err error) {
	run := func(isBuggy bool) (DeadGuardResult, error) {
		r, err := chord.NewRing(chord.RingConfig{
			N: 12, Seed: seed, Buggy: isBuggy,
			ExtraPrograms: []*overlog.Program{monitor.OscillationProgram()},
		})
		if err != nil {
			return DeadGuardResult{}, err
		}
		r.Run(ConvergeTime)
		res := DeadGuardResult{HealTime: -1}
		const step, window = 5, 150
		start := r.Sim.Now()
		probe := func(now float64, members []string) {
			t := math.Round(now - start)
			if int(t)%step != 0 {
				return
			}
			stale := 0
			for _, a := range members {
				r.Node(a).Store().Get("succ").Scan(now, func(row tuple.Tuple) {
					if !slices.Contains(members, row.Field(2).AsStr()) {
						stale++
					}
				})
			}
			res.StaleSeconds += float64(stale * step)
			if res.HealTime < 0 && stale == 0 && len(r.CheckRing(members)) == 0 {
				res.HealTime = t
			}
		}
		if _, err := r.RunFaults(faults.MustParse("at 0 crash n5 n9"), window, probe); err != nil {
			return DeadGuardResult{}, err
		}
		for _, w := range r.Watched {
			if w.T.Name == "oscill" {
				res.Oscillations++
			}
		}
		return res, nil
	}
	guard, err = run(false)
	if err != nil {
		return
	}
	buggy, err = run(true)
	return
}
