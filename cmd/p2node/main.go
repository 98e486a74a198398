// Command p2node runs an OverLog program on a small simulated network:
// the program is installed on every node, optional seed tuples are
// injected, and watched tuples are printed as they occur.
//
// Usage:
//
//	p2node -program prog.olg [-nodes 3] [-run 60] [-seed seeds.tuples]
//
// The seeds file holds one tuple per line in OverLog literal syntax:
//
//	link@n1("n2", 1).
//
// Tables can be dumped at exit with -dump table1,table2.
//
// Under -realtime, -metrics-addr serves every node's counters and
// latency histograms as a Prometheus /metrics endpoint while the
// network runs, and the Go runtime's profiles under /debug/pprof/ (see
// docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"p2go"
	"p2go/internal/overlog"
	"p2go/internal/realtime"
	"p2go/internal/tuple"
)

func main() {
	var (
		programPath = flag.String("program", "", "OverLog program file (required)")
		nodes       = flag.Int("nodes", 1, "number of nodes n1..nN")
		runFor      = flag.Float64("run", 60, "virtual seconds to run")
		seedPath    = flag.String("seed", "", "file of seed tuples, one per line")
		dump        = flag.String("dump", "", "comma-separated tables to dump at exit")
		seed        = flag.Int64("rngseed", 1, "simulation random seed")
		tracing     = flag.Bool("trace", false, "enable execution logging")
		realTime    = flag.Bool("realtime", false, "run on wall-clock time (goroutine per node) instead of the simulator")
		metricsAddr = flag.String("metrics-addr", "", "with -realtime: serve Prometheus metrics for every node, and /debug/pprof/, on this address (e.g. 127.0.0.1:9090)")
	)
	flag.Parse()
	if *programPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *metricsAddr != "" && !*realTime {
		log.Fatal("-metrics-addr needs -realtime (the simulator has no wall clock to scrape against)")
	}
	src, err := os.ReadFile(*programPath)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := p2go.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}

	if *realTime {
		runRealtime(prog, *nodes, *runFor, *seedPath, *seed, *tracing, *dump, *metricsAddr)
		return
	}
	sim := p2go.NewSim()
	cfg := p2go.NetworkConfig{
		Seed: *seed,
		OnWatch: func(now float64, node string, t p2go.Tuple) {
			fmt.Printf("[%10.3f] %-6s %v\n", now, node, t)
		},
		OnRuleError: func(now float64, node, ruleID string, err error) {
			fmt.Fprintf(os.Stderr, "[%10.3f] %-6s rule %s: %v\n", now, node, ruleID, err)
		},
	}
	if *tracing {
		tc := p2go.DefaultTraceConfig()
		cfg.Tracing = &tc
	}
	net := p2go.NewNetwork(sim, cfg)
	for i := 1; i <= *nodes; i++ {
		n, err := net.AddNode(fmt.Sprintf("n%d", i))
		if err != nil {
			log.Fatal(err)
		}
		if err := n.InstallProgram(prog); err != nil {
			log.Fatal(err)
		}
	}

	if *seedPath != "" {
		if err := injectSeeds(net, *seedPath); err != nil {
			log.Fatal(err)
		}
	}
	net.Run(*runFor)

	if *dump != "" {
		for _, name := range strings.Split(*dump, ",") {
			name = strings.TrimSpace(name)
			for _, addr := range net.Addrs() {
				tb := net.Node(addr).Store().Get(name)
				if tb == nil {
					continue
				}
				tb.Scan(sim.Now(), func(t p2go.Tuple) {
					fmt.Printf("%s\n", t)
				})
			}
		}
	}
}

// runRealtime executes the program under the goroutine-per-node driver.
func runRealtime(prog *p2go.Program, nodes int, runFor float64, seedPath string, seed int64, tracing bool, dump, metricsAddr string) {
	net := realtime.NewNetwork(realtime.Config{
		Seed:     seed,
		MinDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
		OnWatch: func(now float64, node string, t p2go.Tuple) {
			fmt.Printf("[%10.3f] %-6s %v\n", now, node, t)
		},
		OnRuleError: func(now float64, node, ruleID string, err error) {
			fmt.Fprintf(os.Stderr, "[%10.3f] %-6s rule %s: %v\n", now, node, ruleID, err)
		},
	})
	for i := 1; i <= nodes; i++ {
		n, err := net.AddNode(fmt.Sprintf("n%d", i))
		if err != nil {
			log.Fatal(err)
		}
		if tracing {
			if err := n.EnableTracing(p2go.DefaultTraceConfig()); err != nil {
				log.Fatal(err)
			}
		}
		if err := n.InstallProgram(prog); err != nil {
			log.Fatal(err)
		}
	}
	if metricsAddr != "" {
		bound, err := net.ServeMetrics(metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", bound)
	}
	net.Start()
	if seedPath != "" {
		src, err := os.ReadFile(seedPath)
		if err != nil {
			log.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "//") {
				continue
			}
			t, err := parseSeed(line)
			if err != nil {
				log.Fatal(err)
			}
			if err := net.Inject(t.Loc(), t); err != nil {
				log.Fatal(err)
			}
		}
	}
	time.Sleep(time.Duration(runFor * float64(time.Second)))
	net.Stop() // nodes are quiescent: safe to inspect their tables
	if dump != "" {
		for _, name := range strings.Split(dump, ",") {
			name = strings.TrimSpace(name)
			for i := 1; i <= nodes; i++ {
				tb := net.Node(fmt.Sprintf("n%d", i)).Store().Get(name)
				if tb == nil {
					continue
				}
				tb.Scan(runFor+1, func(t p2go.Tuple) { fmt.Printf("%s\n", t) })
			}
		}
	}
}

// injectSeeds parses "name@loc(args)." lines and injects each tuple at
// its location node.
func injectSeeds(net *p2go.Network, path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		t, err := parseSeed(line)
		if err != nil {
			return fmt.Errorf("seed %q: %w", line, err)
		}
		if err := net.Inject(t.Loc(), t); err != nil {
			return err
		}
	}
	return nil
}

// parseSeed reuses the OverLog parser: the line is parsed as a rule
// HEAD (which admits list literals and arithmetic) and each argument is
// compiled against an empty layout and evaluated.
func parseSeed(line string) (p2go.Tuple, error) {
	line = strings.TrimSuffix(strings.TrimSpace(line), ".")
	prog, err := overlog.Parse(line + ` :- seedDummy@"x"().`)
	if err != nil {
		return p2go.Tuple{}, err
	}
	rules := prog.Rules()
	if len(rules) != 1 {
		return p2go.Tuple{}, fmt.Errorf("expected exactly one tuple")
	}
	f := &rules[0].Head
	args := f.AllArgs()
	fields := make([]tuple.Value, len(args))
	noVars := func(string) int { return -1 }
	for i, a := range args {
		v, err := overlog.Compile(a, noVars)(nil, constCtx{})
		if err != nil {
			return p2go.Tuple{}, err
		}
		fields[i] = v
	}
	return tuple.New(f.Name, fields...), nil
}

type constCtx struct{}

func (constCtx) Now() float64      { return 0 }
func (constCtx) Rand64() uint64    { return 0 }
func (constCtx) LocalAddr() string { return "" }
