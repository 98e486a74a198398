// Benchmarks regenerating the paper's evaluation (§4): one benchmark per
// reported experiment — the execution-logging overhead (E0, reported in
// the text) and Figures 4 through 7. Each sub-benchmark is one point of
// the corresponding figure; custom metrics carry the figure's axes
// (cpu_pct, mem_MB, live_tuples, tx_msgs).
//
// Run with:
//
//	go test -timeout 0 -bench=. -benchmem
//
// (the full evaluation takes tens of minutes: Figures 6 and 7 average
// three seeds per point, like the paper)
//
// Absolute values come from the engine's calibrated cost model (see
// DESIGN.md §4); the reproduction target is the shape of each series.
// EXPERIMENTS.md records paper-vs-measured for every row.
package p2go

import (
	"fmt"
	"testing"

	"p2go/internal/bench"
)

const benchSeed = 42

func report(b *testing.B, s bench.Sample) {
	b.ReportMetric(s.CPUPercent, "cpu_pct")
	b.ReportMetric(s.MemoryMB, "mem_MB")
	b.ReportMetric(float64(s.LiveTuples), "live_tuples")
	b.ReportMetric(float64(s.TxMessages), "tx_msgs")
}

// BenchmarkExecutionLoggingOverhead is E0: the cost of making execution
// traceable (paper: CPU 0.98% -> 1.38%, i.e. +40%; memory 8 -> 13 MB,
// i.e. +66%).
func BenchmarkExecutionLoggingOverhead(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run("tracing="+mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				off, on, err := bench.LoggingOverhead(benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				if mode == "off" {
					report(b, off)
				} else {
					report(b, on)
				}
			}
		})
	}
}

// BenchmarkPeriodicRules is Figure 4: an increasing number of 1 s
// periodic rules on the measured node (paper: CPU grows roughly linearly
// from ~1% to ~4.5% at 250 rules; memory plateaus ~70% above baseline).
func BenchmarkPeriodicRules(b *testing.B) {
	for _, c := range []int{0, 50, 100, 150, 200, 250} {
		b.Run(fmt.Sprintf("rules=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := bench.PeriodicRules(benchSeed, []int{c})
				if err != nil {
					b.Fatal(err)
				}
				report(b, s[0])
			}
		})
	}
}

// BenchmarkPiggybackRules is Figure 5: rules sharing one 1 s timer, each
// with a single state lookup (paper: CPU grows linearly to ~6% at 250 —
// steeper than Figure 4, because state lookups cost more than private
// timers).
func BenchmarkPiggybackRules(b *testing.B) {
	for _, c := range []int{0, 50, 100, 150, 200, 250} {
		b.Run(fmt.Sprintf("rules=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := bench.PiggybackRules(benchSeed, []int{c})
				if err != nil {
					b.Fatal(err)
				}
				report(b, s[0])
			}
		})
	}
}

// BenchmarkConsistencyProbes is Figure 6: the proactive inconsistency
// detector at rates from 1/32 to 1 per second (paper: memory and
// messages grow linearly with rate; CPU superlinearly).
func BenchmarkConsistencyProbes(b *testing.B) {
	runRateFigure(b, bench.ConsistencyProbes)
}

// BenchmarkSnapshots is Figure 7: consistent snapshots at the same rates
// (paper: same shapes as Figure 6 but much cheaper than the probes at
// every rate).
func BenchmarkSnapshots(b *testing.B) {
	runRateFigure(b, bench.Snapshots)
}

func runRateFigure(b *testing.B, figure func(int64) ([]bench.Sample, error)) {
	// Compute the series once per b.N iteration and report each rate as
	// a sub-benchmark; the harness builds one fresh network per rate.
	var series []bench.Sample
	for _, rl := range bench.RateLabels {
		rl := rl
		b.Run("rate="+rl.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if series == nil {
					s, err := figure(benchSeed)
					if err != nil {
						b.Fatal(err)
					}
					series = s
				}
				for _, s := range series {
					if s.Label == rl.Label {
						report(b, s)
					}
				}
			}
		})
	}
}

// BenchmarkAblationDeadGuard quantifies §3.1.3's fix: the ring with the
// dead-neighbor guard heals after crashes, the guard-free (buggy)
// variant oscillates. Metrics: 1 = healed; oscillation-event counts.
func BenchmarkAblationDeadGuard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guard, buggy, err := bench.AblationDeadGuard(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(guard.HealTime, "guard_heal_s")
		b.ReportMetric(buggy.HealTime, "buggy_heal_s")
		b.ReportMetric(guard.StaleSeconds, "guard_stale_entry_s")
		b.ReportMetric(buggy.StaleSeconds, "buggy_stale_entry_s")
		b.ReportMetric(float64(guard.Oscillations), "guard_oscill")
		b.ReportMetric(float64(buggy.Oscillations), "buggy_oscill")
	}
}
