// Command p2bench regenerates the evaluation of §4 of the paper: the
// execution-logging overhead and Figures 4-7, printed as the series the
// paper plots. See EXPERIMENTS.md for paper-vs-measured commentary.
//
// Usage:
//
//	p2bench -exp all            # everything (several minutes)
//	p2bench -exp logging        # E0: cost of execution logging
//	p2bench -exp fig4           # periodic rules
//	p2bench -exp fig5           # piggybacked rules
//	p2bench -exp fig6           # proactive consistency probes
//	p2bench -exp fig7           # consistent snapshots
//	p2bench -exp detect         # crash/rejoin churn with §3.1 detectors
//	p2bench -exp detect -scenario f.txt   # the same, for a fault scenario file
//	p2bench -exp lifecycle      # install/measure/uninstall each §3.1 detector
//	p2bench -exp trace          # export a causal Chrome trace + Prometheus scrape
//	p2bench -exp profiler       # stats-profiler overhead on the churn run
//	p2bench -exp forensics      # durable trace store: overhead + lineage queries
//	p2bench -exp scale          # 100/1k/10k-host sweep: bytes/host + events/sec
//	p2bench -exp aggtree        # in-network aggregation trees vs flat collection
//
// -cpuprofile/-memprofile write pprof profiles covering the selected
// experiment(s) (see EXPERIMENTS.md for the workflow).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"p2go/internal/bench"
	"p2go/internal/chord"
	"p2go/internal/faults"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: logging, fig4, fig5, fig6, fig7, ablation, detect, lifecycle, trace, profiler, forensics, scale, aggtree, all")
		seed     = flag.Int64("seed", 42, "random seed")
		scenario = flag.String("scenario", "", "fault scenario file for -exp detect, times relative to convergence (see internal/faults.Parse; default: churn)")
		quick    = flag.Bool("quick", false, "shrink -exp lifecycle/trace/forensics/scale/aggtree to a smoke-sized run (CI)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof allocation profile of the run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // publish the last cycle's samples
			// The "allocs" profile holds the heap profile's samples but
			// opens on everything allocated, not on what is live at exit.
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
		}()
	}

	counts := []int{0, 50, 100, 150, 200, 250}
	run := func(name string) {
		switch name {
		case "logging":
			off, on, err := bench.LoggingOverhead(*seed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("E0: execution logging overhead (paper: CPU 0.98% -> 1.38%, memory 8 MB -> 13 MB)")
			fmt.Printf("  tracing off: %v\n", off)
			fmt.Printf("  tracing on : %v\n", on)
			fmt.Printf("  increase: CPU %+.0f%%, memory %+.0f%%\n",
				100*(on.CPUPercent-off.CPUPercent)/off.CPUPercent,
				100*(on.MemoryMB-off.MemoryMB)/off.MemoryMB)
		case "fig4":
			s, err := bench.PeriodicRules(*seed, counts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatTable(
				"Figure 4: CPU and memory vs number of 1s periodic rules", s))
		case "fig5":
			s, err := bench.PiggybackRules(*seed, counts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatTable(
				"Figure 5: CPU and memory vs number of piggybacked rules (one shared 1s timer, one state lookup each)", s))
		case "fig6":
			s, err := bench.ConsistencyProbes(*seed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatTable(
				"Figure 6: proactive inconsistency detector at increasing rates (1/s)", s))
		case "fig7":
			s, err := bench.Snapshots(*seed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatTable(
				"Figure 7: consistent snapshots at increasing rates (1/s)", s))
		case "ablation":
			guard, buggy, err := bench.AblationDeadGuard(*seed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: dead-neighbor guard (§3.1.3) after crashing 2 of 12 nodes")
			fmt.Printf("  with guard:    healed at %+.0fs, stale-entry exposure %6.0f entry-seconds, %d oscillation events\n",
				guard.HealTime, guard.StaleSeconds, guard.Oscillations)
			fmt.Printf("  without guard: healed at %+.0fs, stale-entry exposure %6.0f entry-seconds, %d oscillation events\n",
				buggy.HealTime, buggy.StaleSeconds, buggy.Oscillations)
		case "detect":
			sc := chord.ChurnScenario(bench.Nodes)
			if *scenario != "" {
				text, err := os.ReadFile(*scenario)
				if err != nil {
					log.Fatal(err)
				}
				if sc, err = faults.Parse(string(text)); err != nil {
					log.Fatal(err)
				}
			}
			res, err := bench.Detect(*seed, sc)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatDetect(sc.Name, res))
		case "lifecycle":
			res, err := bench.Lifecycle(*seed, *quick)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatLifecycle(res))
			if res.AccountingErr != "" {
				log.Fatal("per-query accounting invariant violated")
			}
			for _, s := range res.Samples {
				if !s.Restored {
					log.Fatalf("lifecycle contract violated: %s did not restore the dataflow shape", s.Detector)
				}
			}
		case "trace":
			res, err := bench.TraceExport(*seed, *quick, ".")
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatTrace(res))
			if len(res.Stats.FlowNodes) < 3 {
				log.Fatalf("trace contract violated: flows span only %d nodes", len(res.Stats.FlowNodes))
			}
		case "profiler":
			res, err := bench.StatsOverhead(*seed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatStatsOverhead(res))
			if res.AccountingErr != "" {
				log.Fatal("per-query accounting invariant violated")
			}
		case "forensics":
			res, err := bench.Forensics(*seed, *quick)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatForensics(res))
			if res.OverheadPercent > 10 {
				log.Fatalf("forensics contract violated: store write overhead %.2f%% BusySeconds, want <= 10%%", res.OverheadPercent)
			}
			if !res.FingerprintOK {
				log.Fatal("determinism contract violated: attaching the trace store perturbed emissions")
			}
			if res.RestartMarks < res.Victims {
				log.Fatalf("forensics contract violated: %d restart markers for %d victims", res.RestartMarks, res.Victims)
			}
			if res.AccountingErr != "" {
				log.Fatal("per-query accounting invariant violated")
			}
		case "scale":
			res, err := bench.Scale(*seed, *quick)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatScale(res))
			if !res.SharedOK {
				log.Fatal("scale contract violated: a ring host does not run the shared Chord plans")
			}
			if !res.ReductionOK {
				log.Fatalf("scale contract violated: shared plans reduce install bytes/host only %.2fx, want >= %.0fx",
					res.PlanReduction, bench.ScaleMinPlanReduction)
			}
			if !res.InstallBudgetOK {
				log.Fatalf("scale contract violated: install bytes/host %d exceeds the %d-byte budget",
					res.SharedInstallBytesPerHost, res.InstallBudgetBytes)
			}
			if !res.BudgetOK {
				log.Fatalf("scale contract violated: steady-state bytes/host exceeds the %d-byte budget", res.BudgetBytes)
			}
		case "aggtree":
			res, err := bench.AggTree(*seed, *quick)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatAggTree(res))
			if !res.ValuesOK {
				log.Fatal("aggtree contract violated: tree/flat results do not match the oracle exactly")
			}
			if !res.FanInOK {
				log.Fatalf("aggtree contract violated: tree fan-in %d (bound %d), reduction %.1fx (want >= %.0fx)",
					res.Tree.MaxFanIn, res.FanInBound, res.FanInReduction, bench.AggTreeMinFanInReduction)
			}
			if !res.ResultFPEqual {
				log.Fatal("determinism contract violated: tree|flat cells disagree")
			}
			if res.Tree.BilledBusy <= 0 {
				log.Fatal("aggtree contract violated: no busy-time billed to the monitoring query")
			}
			if res.AccountingErr != "" {
				log.Fatal("per-query accounting invariant violated")
			}
		default:
			log.Fatalf("unknown experiment %q", name)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{"logging", "fig4", "fig5", "fig6", "fig7", "ablation", "detect", "lifecycle"} {
			run(name)
		}
		return
	}
	run(*exp)
}
