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
// Under -realtime the nodes run on wall-clock time instead, each a UDP
// node on a loopback port, and -metrics-addr serves every node's
// counters and latency histograms as a Prometheus /metrics endpoint
// while they run, and the Go runtime's profiles under /debug/pprof/ (see
// docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
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
		realTime    = flag.Bool("realtime", false, "run on wall-clock time (a UDP node on loopback per node) instead of the simulator")
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

	all := make([]*p2go.Node, 0, *nodes)
	for _, addr := range net.Addrs() {
		all = append(all, net.Node(addr))
	}
	dumpTables(os.Stdout, *dump, sim.Now(), all...)
}

// runRealtime executes the program on wall-clock time: each node is a
// realtime.UDPNode on a loopback port.
func runRealtime(prog *p2go.Program, nodes int, runFor float64, seedPath string, seed int64, tracing bool, dump, metricsAddr string) {
	rt, err := newRealtime(prog, nodes, seed, tracing, os.Stdout, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	if metricsAddr != "" {
		ln, err := realtime.ServeMetrics(metricsAddr, rt...)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", ln.Addr())
	}
	for _, u := range rt {
		u.Start()
	}
	if seedPath != "" {
		seeds, err := readSeeds(seedPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := injectRealtime(rt, seeds); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(time.Duration(runFor * float64(time.Second)))
	all := make([]*p2go.Node, len(rt))
	for i, u := range rt {
		u.Stop() // the node is quiescent: safe to inspect its tables
		all[i] = u.Node()
	}
	// n1's clock started first, so it reads latest.
	dumpTables(os.Stdout, dump, all[0].Now(), all...)
}

// newRealtime builds nodes n1..nN, stopped, each a UDP node on a
// loopback port peered with every other, with node i seeded seed+i and
// running prog. Watched tuples print to out, rule errors to errOut.
func newRealtime(prog *p2go.Program, nodes int, seed int64, tracing bool, out, errOut io.Writer) ([]*realtime.UDPNode, error) {
	rt := make([]*realtime.UDPNode, 0, nodes)
	fail := func(err error) ([]*realtime.UDPNode, error) {
		for _, u := range rt {
			u.Stop()
		}
		return nil, err
	}
	for i := 1; i <= nodes; i++ {
		addr := fmt.Sprintf("n%d", i)
		u, err := realtime.NewUDPNode(realtime.UDPNodeConfig{
			Addr:   addr,
			Listen: "127.0.0.1:0",
			Seed:   seed + int64(i),
			OnWatch: func(now float64, t p2go.Tuple) {
				fmt.Fprintf(out, "[%10.3f] %-6s %v\n", now, addr, t)
			},
			OnRuleError: func(now float64, ruleID string, err error) {
				fmt.Fprintf(errOut, "[%10.3f] %-6s rule %s: %v\n", now, addr, ruleID, err)
			},
		})
		if err != nil {
			return fail(err)
		}
		rt = append(rt, u)
		if tracing {
			if err := u.Node().EnableTracing(p2go.DefaultTraceConfig()); err != nil {
				return fail(err)
			}
		}
		if err := u.Node().InstallProgram(prog); err != nil {
			return fail(err)
		}
	}
	for _, u := range rt {
		for _, peer := range rt {
			if err := u.AddPeer(peer.Node().Addr(), peer.LocalAddr()); err != nil {
				return fail(err)
			}
		}
	}
	return rt, nil
}

// injectRealtime injects each seed at its location node.
func injectRealtime(rt []*realtime.UDPNode, seeds []p2go.Tuple) error {
	for _, t := range seeds {
		i := slices.IndexFunc(rt, func(u *realtime.UDPNode) bool { return u.Node().Addr() == t.Loc() })
		if i < 0 {
			return fmt.Errorf("seed %v: no node %s", t, t.Loc())
		}
		if err := rt[i].Inject(t); err != nil {
			return err
		}
	}
	return nil
}

// injectSeeds injects each tuple of a seeds file at its location node.
func injectSeeds(net *p2go.Network, path string) error {
	seeds, err := readSeeds(path)
	if err != nil {
		return err
	}
	for _, t := range seeds {
		if err := net.Inject(t.Loc(), t); err != nil {
			return err
		}
	}
	return nil
}

// readSeeds parses a seeds file: one "name@loc(args)." tuple a line,
// blank lines and // comments skipped.
func readSeeds(path string) ([]p2go.Tuple, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var seeds []p2go.Tuple
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		t, err := parseSeed(line)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", line, err)
		}
		seeds = append(seeds, t)
	}
	return seeds, nil
}

// dumpTables prints every row of each comma-separated table, node by
// node, as live at time now.
func dumpTables(w io.Writer, tables string, now float64, nodes ...*p2go.Node) {
	if tables == "" {
		return
	}
	for _, name := range strings.Split(tables, ",") {
		name = strings.TrimSpace(name)
		for _, n := range nodes {
			if tb := n.Store().Get(name); tb != nil {
				tb.Scan(now, func(t p2go.Tuple) { fmt.Fprintf(w, "%s\n", t) })
			}
		}
	}
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
