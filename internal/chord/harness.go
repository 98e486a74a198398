package chord

import (
	"fmt"
	"sort"

	"p2go/internal/engine"
	"p2go/internal/overlog"
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
	// OnWatch receives watched tuples. When it is set, Ring.Watched
	// stays empty: a caller with its own hook keeps what it needs. A
	// watched tuple is lent, read-only, until OnWatch returns, so a hook
	// that keeps or changes one works on t.Clone() (see
	// engine.Config.OnWatch).
	OnWatch func(now float64, node string, t tuple.Tuple)
	// ExtraPrograms are installed on every node after Chord, late
	// joiners included (monitoring queries, §3-style add-ons), as
	// managed queries named "extra1", "extra2", ... in slice order —
	// uninstallable by that ID.
	ExtraPrograms []*overlog.Program
	// StatsPeriod is ignored: every node's nodeStats/queryStats tables
	// fill when read, so there is no publication period to set. It is
	// kept for callers written against periodic publication.
	StatsPeriod float64
	// Tree, when set, installs the aggregation-tree overlay on every
	// node (see tree.go); node i joins at rank i. It installs before
	// ExtraPrograms, so extras may reference treeParent.
	Tree *TreeConfig
	// NoChord skips the Chord substrate: nodes get only the overlay and
	// the extra programs. Monitoring benchmarks use this to measure
	// their own traffic on quiet hosts — large rings can drive Chord
	// itself into the distressed regime (load-delayed pings read as
	// failures), which starves everything queued behind the substrate's
	// repair storm.
	NoChord bool
}

// ExtraQueryID returns the query ID the harness installs the i-th
// (0-based) entry of RingConfig.ExtraPrograms under.
func ExtraQueryID(i int) string { return fmt.Sprintf("extra%d", i+1) }

// Ring is a simulated Chord network: the harness tests, the monitoring
// examples and the §4 benchmarks all run against it.
type Ring struct {
	Sim   *simnet.Sim
	Net   *simnet.Network
	Addrs []string
	// Watched collects every watched tuple with its observation time
	// and node, unless RingConfig.OnWatch receives them instead.
	Watched []WatchedTuple
	// Errors collects rule errors (should stay empty in healthy runs).
	Errors []string
	// cfg is what every node, late joiners included, installs; its
	// Tree has its defaults filled in.
	cfg RingConfig
	// treeCompiled and extrasCompiled hold the overlay's and each extra
	// program's compilation, made on the first node that installs it
	// and shared with every later one.
	treeCompiled   *engine.CompiledQuery
	extrasCompiled []*engine.CompiledQuery
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
	r := &Ring{Sim: simnet.NewSim(), cfg: cfg,
		extrasCompiled: make([]*engine.CompiledQuery, len(cfg.ExtraPrograms))}
	onWatch := cfg.OnWatch
	if onWatch == nil {
		onWatch = func(now float64, node string, t tuple.Tuple) {
			r.Watched = append(r.Watched, WatchedTuple{At: now, Node: node, T: t.Clone()})
		}
	}
	r.Net = simnet.NewNetwork(r.Sim, simnet.Config{
		Seed:       cfg.Seed,
		LossProb:   cfg.LossProb,
		MinDelay:   cfg.MinDelay,
		MaxDelay:   cfg.MaxDelay,
		Tracing:    cfg.Tracing,
		TraceStore: cfg.TraceStore,
		OnWatch:    onWatch,
		OnRuleError: func(now float64, node, ruleID string, err error) {
			r.Errors = append(r.Errors, fmt.Sprintf("t=%.2f %s/%s: %v", now, node, ruleID, err))
		},
	})
	if cfg.Tree != nil {
		tc := cfg.Tree.withDefaults()
		r.cfg.Tree = &tc
	}
	for i := 1; i <= cfg.N; i++ {
		if _, err := r.AddLateNode(fmt.Sprintf("n%d", i)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// AddLateNode joins a node to the ring; NewRing builds the ring with it
// too, and after NewRing it injects churn. The node installs, in order,
// Chord (landmark n1), the tree overlay at the next rank, becoming a
// leaf under the existing layout, and the extra programs, then turns
// on stats publication. The overlay and each extra are compiled on the
// first node that installs them, right after that node's earlier
// installs, so the compilation sees the store every later node will
// have.
func (r *Ring) AddLateNode(addr string) (*engine.Node, error) {
	n, err := r.Net.AddNode(addr)
	if err != nil {
		return nil, err
	}
	r.Addrs = append(r.Addrs, addr)
	cfg := r.cfg
	if !cfg.NoChord {
		install := Install
		if cfg.Buggy {
			install = InstallBuggy
		}
		if err := install(n, "n1"); err != nil {
			return nil, err
		}
	}
	if cfg.Tree != nil {
		if r.treeCompiled == nil {
			if r.treeCompiled, err = n.Compile(TreeProgram(*cfg.Tree)); err != nil {
				return nil, fmt.Errorf("chord: tree overlay: %w", err)
			}
		}
		if err := InstallTree(n, *cfg.Tree, len(r.Addrs), r.treeCompiled); err != nil {
			return nil, err
		}
	}
	for i, p := range cfg.ExtraPrograms {
		if r.extrasCompiled[i] == nil {
			if r.extrasCompiled[i], err = n.Compile(p); err != nil {
				return nil, err
			}
		}
		if _, err := n.InstallCompiledQuery(ExtraQueryID(i), r.extrasCompiled[i]); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Run advances virtual time by d seconds.
func (r *Ring) Run(d float64) { r.Net.RunFor(d) }

// Node returns the node with the given address.
func (r *Ring) Node(addr string) *engine.Node { return r.Net.Node(addr) }

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
// installing it streams those tuples into Ring.Watched, or into
// RingConfig.OnWatch when that is set.
func WatchProgram(names ...string) *overlog.Program {
	src := ""
	for _, n := range names {
		src += fmt.Sprintf("watch(%s).\n", n)
	}
	return overlog.MustParse(src)
}
