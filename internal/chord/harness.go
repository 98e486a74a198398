package chord

import (
	"fmt"
	"sort"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/planner"
	"p2go/internal/simnet"
	"p2go/internal/trace"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// RingConfig configures a simulated Chord deployment.
type RingConfig struct {
	// N is the number of nodes; addresses are "n1".."nN" and n1 is the
	// landmark.
	N int
	// Seed makes the run reproducible.
	Seed int64
	// Tracing enables execution logging on every node.
	Tracing *trace.Config
	// TraceStore gives every traced node a durable append-only trace
	// store (requires Tracing; see engine.Config.TraceStore).
	TraceStore *tracestore.Config
	// LossProb drops messages with this probability.
	LossProb float64
	// Buggy installs the Chord variant without the dead-neighbor guard
	// (the recycled-dead-neighbor bug of §3.1.3).
	Buggy bool
	// MinDelay/MaxDelay override the simulated one-way message latency
	// bounds (defaults 5-25 ms).
	MinDelay, MaxDelay float64
	// OnWatch receives watched tuples (in addition to Ring.Watched).
	OnWatch func(now float64, node string, t tuple.Tuple)
	// ExtraPrograms are installed on every node after Chord (monitoring
	// queries, §3-style add-ons), as managed queries named "extra1",
	// "extra2", ... in slice order — uninstallable by that ID.
	ExtraPrograms []*overlog.Program
	// StatsPeriod, when positive, turns on stats publication on every
	// node (engine.EnableStatsPublication): the engine's counters become
	// queryable through the nodeStats/queryStats tables, refreshed on
	// this period.
	StatsPeriod float64
	// Tree, when set, installs the aggregation-tree overlay on every
	// node (see tree.go); node i joins at rank i. It installs before
	// ExtraPrograms, so extras may reference treeParent.
	Tree *TreeConfig
	// NoChord skips the Chord substrate: nodes get only the overlay,
	// stats publication and the extra programs. Monitoring benchmarks
	// use this to measure their own traffic on quiet hosts — large
	// rings can drive Chord itself into the distressed regime (load-
	// delayed pings read as failures), which starves everything queued
	// behind the substrate's repair storm.
	NoChord bool
}

// ExtraQueryID returns the query ID the harness installs the i-th
// (0-based) entry of RingConfig.ExtraPrograms under.
func ExtraQueryID(i int) string { return fmt.Sprintf("extra%d", i+1) }

// compileExtras compiles the extra programs once per ring so every node
// instantiates shared plans instead of re-planning privately. Programs
// install in slice order after Chord, so each compiles against the Chord
// tables plus the declarations of the extras before it. A program that
// fails to compile gets a nil entry and is installed privately per node,
// which reports the original error (or succeeds, if the program depends
// on node state the compile-time environment cannot see).
func compileExtras(cfg RingConfig, tree *engine.CompiledQuery, progs []*overlog.Program) []*engine.CompiledQuery {
	if len(progs) == 0 {
		return nil
	}
	baseNames := make(map[string]bool)
	if !cfg.NoChord {
		chordCq, err := Compiled()
		if cfg.Buggy {
			chordCq, err = CompiledBuggy()
		}
		if err == nil {
			for _, t := range chordCq.DeclaredTables() {
				baseNames[t] = true
			}
		}
	}
	if tree != nil {
		for _, t := range tree.DeclaredTables() {
			baseNames[t] = true
		}
	}
	// The engine's system tables (nodeEpoch, nodeStats, queryStats, ...)
	// exist on every node, so extras joining them still get shared plans.
	base := planner.EnvFunc(func(name string) bool {
		return baseNames[name] || engine.IsSystemTable(name)
	})
	out := make([]*engine.CompiledQuery, len(progs))
	for i, p := range progs {
		c, err := engine.CompileQueryEnv(p, base)
		if err != nil {
			continue
		}
		out[i] = c
		for _, t := range c.DeclaredTables() {
			baseNames[t] = true
		}
	}
	return out
}

// installExtras installs the extra programs on one node, using the
// shared compilations where available.
func installExtras(n *engine.Node, progs []*overlog.Program, compiled []*engine.CompiledQuery) error {
	for i, p := range progs {
		if c := compiled[i]; c != nil {
			if _, err := n.InstallCompiledQuery(ExtraQueryID(i), c); err != nil {
				return err
			}
			continue
		}
		if _, err := n.InstallQuery(ExtraQueryID(i), p); err != nil {
			return err
		}
	}
	return nil
}

// Ring is a simulated Chord network: the harness tests, the monitoring
// examples and the §4 benchmarks all run against it.
type Ring struct {
	Sim   *simnet.Sim
	Net   *simnet.Network
	Addrs []string
	// Watched collects every watched tuple with its observation time
	// and node.
	Watched []WatchedTuple
	// Errors collects rule errors (should stay empty in healthy runs).
	Errors []string
	// treeCfg/treeCompiled carry the overlay setup to late joiners.
	treeCfg      *TreeConfig
	treeCompiled *engine.CompiledQuery
	noChord      bool
}

// WatchedTuple is one watched-tuple observation.
type WatchedTuple struct {
	At   float64
	Node string
	T    tuple.Tuple
}

// NewRing builds and seeds the network. Nodes join autonomously; call
// Run to let the ring converge.
func NewRing(cfg RingConfig) (*Ring, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("chord: ring needs at least one node")
	}
	r := &Ring{Sim: simnet.NewSim(), noChord: cfg.NoChord}
	r.Net = simnet.NewNetwork(r.Sim, simnet.Config{
		Seed:       cfg.Seed,
		LossProb:   cfg.LossProb,
		MinDelay:   cfg.MinDelay,
		MaxDelay:   cfg.MaxDelay,
		Tracing:    cfg.Tracing,
		TraceStore: cfg.TraceStore,
		OnWatch: func(now float64, node string, t tuple.Tuple) {
			r.Watched = append(r.Watched, WatchedTuple{At: now, Node: node, T: t})
			if cfg.OnWatch != nil {
				cfg.OnWatch(now, node, t)
			}
		},
		OnRuleError: func(now float64, node, ruleID string, err error) {
			r.Errors = append(r.Errors, fmt.Sprintf("t=%.2f %s/%s: %v", now, node, ruleID, err))
		},
	})
	landmark := "n1"
	if cfg.Tree != nil {
		tc := cfg.Tree.withDefaults()
		r.treeCfg = &tc
		var err error
		if r.treeCompiled, err = CompiledTree(tc); err != nil {
			return nil, err
		}
	}
	extras := compileExtras(cfg, r.treeCompiled, cfg.ExtraPrograms)
	for i := 1; i <= cfg.N; i++ {
		addr := fmt.Sprintf("n%d", i)
		r.Addrs = append(r.Addrs, addr)
		n, err := r.Net.AddNode(addr)
		if err != nil {
			return nil, err
		}
		if !cfg.NoChord {
			install := Install
			if cfg.Buggy {
				install = InstallBuggy
			}
			if err := install(n, landmark); err != nil {
				return nil, err
			}
		}
		if r.treeCfg != nil {
			if err := InstallTree(n, *r.treeCfg, i, r.treeCompiled); err != nil {
				return nil, err
			}
		}
		if err := installExtras(n, cfg.ExtraPrograms, extras); err != nil {
			return nil, err
		}
		if cfg.StatsPeriod > 0 {
			if err := n.EnableStatsPublication(cfg.StatsPeriod); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// Run advances virtual time by d seconds.
func (r *Ring) Run(d float64) { r.Net.RunFor(d) }

// Node returns the node with the given address.
func (r *Ring) Node(addr string) *engine.Node { return r.Net.Node(addr) }

// AddLateNode joins a new node to the running ring (churn injection).
// With the tree overlay on, the newcomer takes the next rank, becoming
// a leaf under the existing layout.
func (r *Ring) AddLateNode(addr string, extra ...*overlog.Program) (*engine.Node, error) {
	n, err := r.Net.AddNode(addr)
	if err != nil {
		return nil, err
	}
	if !r.noChord {
		if err := Install(n, "n1"); err != nil {
			return nil, err
		}
	}
	if r.treeCfg != nil {
		if err := InstallTree(n, *r.treeCfg, len(r.Addrs)+1, r.treeCompiled); err != nil {
			return nil, err
		}
	}
	if err := installExtras(n, extra, compileExtras(RingConfig{NoChord: r.noChord}, r.treeCompiled, extra)); err != nil {
		return nil, err
	}
	r.Addrs = append(r.Addrs, addr)
	return n, nil
}

// Alive returns the addresses the harness still considers ring members.
func (r *Ring) Alive(dead map[string]bool) []string {
	var out []string
	for _, a := range r.Addrs {
		if !dead[a] {
			out = append(out, a)
		}
	}
	return out
}

// TrueSuccessor computes the correct immediate successor of addr among
// members by ID order (the oracle the ring checkers compare against).
func TrueSuccessor(addr string, members []string) string {
	type ent struct {
		id   uint64
		addr string
	}
	ents := make([]ent, 0, len(members))
	for _, m := range members {
		ents = append(ents, ent{NodeID(m), m})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].id < ents[j].id })
	my := NodeID(addr)
	for _, e := range ents {
		if e.id > my {
			return e.addr
		}
	}
	return ents[0].addr // wraparound
}

// TrueOwner computes the correct owner (successor) of a key among
// members.
func TrueOwner(key uint64, members []string) string {
	type ent struct {
		id   uint64
		addr string
	}
	ents := make([]ent, 0, len(members))
	for _, m := range members {
		ents = append(ents, ent{NodeID(m), m})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].id < ents[j].id })
	for _, e := range ents {
		if e.id >= key {
			return e.addr
		}
	}
	return ents[0].addr
}

// BestSucc reads a node's current immediate successor address ("" if
// none).
func (r *Ring) BestSucc(addr string) string {
	tb := r.Node(addr).Store().Get("bestSucc")
	if tb == nil {
		return ""
	}
	out := ""
	tb.Scan(r.Sim.Now(), func(t tuple.Tuple) { out = t.Field(2).AsStr() })
	return out
}

// Pred reads a node's current predecessor address ("-" if none).
func (r *Ring) Pred(addr string) string {
	tb := r.Node(addr).Store().Get("pred")
	if tb == nil {
		return "-"
	}
	out := "-"
	tb.Scan(r.Sim.Now(), func(t tuple.Tuple) { out = t.Field(2).AsStr() })
	return out
}

// CheckRing verifies the converged-ring invariants of §3.1.1 against the
// oracle: every member's bestSucc is its true successor and its pred its
// true predecessor. It returns human-readable violations.
func (r *Ring) CheckRing(members []string) []string {
	var bad []string
	for _, a := range members {
		wantSucc := TrueSuccessor(a, members)
		if got := r.BestSucc(a); got != wantSucc {
			bad = append(bad, fmt.Sprintf("%s: bestSucc=%q want %q", a, got, wantSucc))
		}
	}
	for _, a := range members {
		wantPred := ""
		for _, b := range members {
			if TrueSuccessor(b, members) == a && b != a {
				wantPred = b
			}
		}
		if len(members) == 1 {
			continue // a lone node keeps pred "-"
		}
		if got := r.Pred(a); got != wantPred {
			bad = append(bad, fmt.Sprintf("%s: pred=%q want %q", a, got, wantPred))
		}
	}
	return bad
}

// Lookup injects a lookup for key at node from; results arrive as
// lookupResults events at from (observable via a watch program).
func (r *Ring) Lookup(from string, key, reqID uint64) error {
	return r.Net.Inject(from, LookupEvent(from, key, from, reqID))
}

// WatchProgram returns a program that watches the given predicates;
// installing it streams those tuples into Ring.Watched.
func WatchProgram(names ...string) *overlog.Program {
	src := ""
	for _, n := range names {
		src += fmt.Sprintf("watch(%s).\n", n)
	}
	return overlog.MustParse(src)
}
