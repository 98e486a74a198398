// Command benchmark is the repository's benchmark: four fixed-work
// workloads measured in wall clock, process CPU, allocations and live
// heap, each checked against an oracle, with a separate traced run that
// attributes the cost to layers from the outside in. README.md defines
// every workload and metric; BENCHMARK.json is the machine-readable
// contract.
//
//	bash benchmark/run.sh                          all four workloads
//	bash benchmark/run.sh -layers                  traced run: layer metrics and span file
//	bash benchmark/run.sh -workload udp-collector  one workload
//	bash benchmark/run.sh -selfcheck 10            A/A check of the benchmark itself
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                               one run, result as one JSON line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// runSeconds is run_seconds in BENCHMARK.json: the nominal length of a
// measured phase on the authoring host.
const runSeconds = 10

// spanDir is where the traced run writes its span files: the build
// directory run.sh creates inside the checkout, which .gitignore names.
const spanDir = ".bench_build"

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all four)")
		seed      = flag.Int64("seed", 42, "seed for every generated input")
		_         = flag.Float64("seconds", runSeconds, "driver protocol: the measured phase's nominal length; accepted and ignored, the work is fixed (sizes.go)")
		traceFlag = flag.Int("trace", -1, "driver protocol: 0 = end-to-end metrics, 1 = per-layer metrics; prints one JSON line last")
		layers    = flag.Bool("layers", false, "traced run: record spans, run the layer probes, write the span file")
		selfcheck = flag.Int("selfcheck", 0, "run each workload N times as two interleaved sets and compare the sets' medians against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *selfcheck > 0 {
		os.Exit(runSelfcheck(*selfcheck, *workload, *seed))
	}

	var specs []workloadSpec
	if *workload == "" {
		specs = workloads
	} else if w := findWorkload(*workload); w != nil {
		specs = []workloadSpec{*w}
	} else {
		fatalf("unknown workload %q", *workload)
	}
	driver := *traceFlag >= 0
	if driver && len(specs) != 1 {
		fatalf("--trace needs --workload")
	}
	traced := *layers || *traceFlag == 1

	ok := true
	for _, w := range specs {
		env := &runEnv{seed: *seed, log: os.Stderr}
		if traced {
			env.spans = newSpanRecorder()
		}
		res, err := w.run(env)
		if err != nil {
			fatalf("%s: %v", w.Name, err)
		}
		if traced {
			res.SpanTotals = selfTimes(env.spans.spans)
			path := filepath.Join(spanDir, "spans-"+w.Name+".json")
			if err := os.MkdirAll(spanDir, 0o755); err == nil {
				err = env.spans.writeChrome(path)
			}
			if err != nil {
				fatalf("write span file: %v", err)
			}
			fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", w.Name, len(env.spans.spans), path)
		}
		ok = ok && res.correct()
		if driver {
			// The report for a person, the run's full record (host facts,
			// sizes, timings as taken and scaled) and, last, the line the
			// driver reads.
			res.print(os.Stderr)
			record, _ := json.Marshal(res)
			fmt.Println(string(record))
			fmt.Println(driverLine(res, traced))
		} else {
			res.print(os.Stdout)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// driverLine renders a run as the one JSON object the driver reads:
// every end-to-end metric untraced, every per-layer metric traced.
func driverLine(r *result, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, vals := endToEnd, r.E2E
	if traced {
		specs, vals = perLayer, r.Layer
	}
	ms := make(map[string]mv, len(specs))
	for _, m := range specs {
		ms[m.Name] = mv{vals[m.Name], m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), attempted, r.Failed, ms})
	return string(b)
}
