package bench

import (
	"bytes"
	"testing"

	"p2go/internal/chord"
	"p2go/internal/trace"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// liveEdge identifies one causal edge independent of which substrate
// (trace tables or trace store) reported it.
type liveEdge struct {
	node      string
	rule      string
	inID      uint64
	outID     uint64
	inT, outT float64
	isEvent   bool
}

// liveAncestors computes the ancestor chain of (node, id) straight from
// the live trace tables — the oracle a tracer with unbounded tables
// would report. BFS backwards over ruleExec rows, following tupleTable
// provenance hops to the producing node.
func liveAncestors(r *chord.Ring, node string, id uint64) map[liveEdge]bool {
	now := r.Sim.Now()
	type nodeIx struct {
		byOut map[uint64][]liveEdge
		hops  map[uint64][2]any // id -> {src string, srcID uint64}
	}
	ix := make(map[string]*nodeIx)
	for _, a := range r.Addrs {
		n := &nodeIx{byOut: make(map[uint64][]liveEdge), hops: make(map[uint64][2]any)}
		if tb := r.Node(a).Store().Get(trace.RuleExecTable); tb != nil {
			tb.Scan(now, func(t tuple.Tuple) {
				e := liveEdge{
					node: a, rule: t.Field(1).AsStr(),
					inID: t.Field(2).AsID(), outID: t.Field(3).AsID(),
					inT: t.Field(4).AsFloat(), outT: t.Field(5).AsFloat(),
					isEvent: t.Field(6).AsBool(),
				}
				n.byOut[e.outID] = append(n.byOut[e.outID], e)
			})
		}
		if tb := r.Node(a).Store().Get(trace.TupleTable); tb != nil {
			tb.Scan(now, func(t tuple.Tuple) {
				src := t.Field(2).AsStr()
				if src != "" && src != a {
					n.hops[t.Field(1).AsID()] = [2]any{src, t.Field(3).AsID()}
				}
			})
		}
		ix[a] = n
	}
	out := make(map[liveEdge]bool)
	type key struct {
		node string
		id   uint64
	}
	seen := map[key]bool{{node, id}: true}
	queue := []key{{node, id}}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		n := ix[k.node]
		if n == nil {
			continue
		}
		if h, ok := n.hops[k.id]; ok {
			pk := key{h[0].(string), h[1].(uint64)}
			if !seen[pk] {
				seen[pk] = true
				queue = append(queue, pk)
			}
		}
		for _, e := range n.byOut[k.id] {
			out[e] = true
			pk := key{k.node, e.inID}
			if !seen[pk] {
				seen[pk] = true
				queue = append(queue, pk)
			}
		}
	}
	return out
}

// storeEdgeSet converts a tracestore lineage to the comparable set.
func storeEdgeSet(l *tracestore.Lineage) map[liveEdge]bool {
	out := make(map[liveEdge]bool, len(l.Edges))
	for _, e := range l.Edges {
		out[liveEdge{
			node: e.Node, rule: e.Rule, inID: e.InID, outID: e.OutID,
			inT: e.InT, outT: e.OutT, isEvent: e.IsEvent,
		}] = true
	}
	return out
}

// runForensicRing runs the quick traced ring with the given trace
// bounds and optional store, injecting lookups so multi-hop causal
// chains cross the network.
func runForensicRing(t *testing.T, seed int64, tcfg trace.Config, scfg *tracestore.Config) *chord.Ring {
	t.Helper()
	r, err := chord.NewRing(chord.RingConfig{
		N: 4, Seed: seed, Tracing: &tcfg, TraceStore: scfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(60)
	for i := uint64(0); i < 8; i++ {
		if err := r.Lookup("n4", i*0x2000_0000_0000_0000/4+i, i); err != nil {
			t.Fatal(err)
		}
	}
	r.Run(30)
	if len(r.Errors) > 0 {
		t.Fatalf("ring raised rule errors: %s", r.Errors[0])
	}
	return r
}

// TestStoreLineageSurvivesEviction is the PR's differential acceptance
// test. Run A: generous trace bounds, no store — its tables are the
// live-tracer oracle. Run B: same seed, tight bounds (rows evicted, memo
// flushed) plus the durable store. Determinism makes tuple IDs
// identical across runs, so the store-backed ancestor walk in B must
// return exactly the causal chain A's live tables report — even though
// B's own tables have long since forgotten it.
func TestStoreLineageSurvivesEviction(t *testing.T) {
	const seed = 7
	generous := trace.Config{RuleExecTTL: 1e9, RuleExecMax: 1 << 30, RecordsPerStrand: 8, TupleLogMax: 100}
	tight := trace.Config{RuleExecTTL: 30, RuleExecMax: 40, RecordsPerStrand: 8, TupleLogMax: 100}
	scfg := tracestore.DefaultConfig()
	scfg.WindowSeconds = 5

	ra := runForensicRing(t, seed, generous, nil)
	rb := runForensicRing(t, seed, tight, &scfg)

	stores := make(map[string]*tracestore.Store)
	for _, a := range rb.Addrs {
		st := rb.Node(a).TraceStore()
		if st == nil {
			t.Fatalf("node %s has no trace store", a)
		}
		stores[a] = st
	}
	v := tracestore.NewView(stores, 0)

	// Root: the exec record on the measured node with the largest
	// store-side ancestor chain (deterministic: first wins on ties) —
	// the deepest forensic question the run can pose.
	execs, err := v.Execs(tracestore.ExecFilter{Node: "n4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) == 0 {
		t.Fatal("store recorded no execs on n4")
	}
	var rootID uint64
	best := -1
	for _, e := range execs {
		l, err := v.Ancestors("n4", e.OutID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Edges) > best {
			best = len(l.Edges)
			rootID = e.OutID
		}
	}
	if best < 3 {
		t.Fatalf("deepest ancestor chain has %d edges, want >= 3 (run too shallow to be meaningful)", best)
	}

	lineage, err := v.Ancestors("n4", rootID, 0)
	if err != nil {
		t.Fatal(err)
	}
	storeChain := storeEdgeSet(lineage)
	oracleChain := liveAncestors(ra, "n4", rootID)
	if len(oracleChain) == 0 {
		t.Fatalf("oracle run has no live chain for tuple %d — runs diverged?", rootID)
	}
	for e := range storeChain {
		if !oracleChain[e] {
			t.Errorf("store chain has edge the live oracle lacks: %+v", e)
		}
	}
	for e := range oracleChain {
		if !storeChain[e] {
			t.Errorf("store chain is missing live edge: %+v", e)
		}
	}

	// And the differential point: run B's own bounded tables can no
	// longer answer the question the store just answered.
	liveB := liveAncestors(rb, "n4", rootID)
	if len(liveB) >= len(storeChain) {
		t.Errorf("tight-bounds live tables report %d edges, store %d — eviction never happened, test is vacuous",
			len(liveB), len(storeChain))
	}
}

// TestExportChromeStoreMatchesLive: with bounds generous enough that
// nothing ages out, rendering the Chrome trace from the durable store
// must be byte-identical to rendering it from the live tables.
func TestExportChromeStoreMatchesLive(t *testing.T) {
	generous := trace.Config{RuleExecTTL: 1e9, RuleExecMax: 1 << 30, RecordsPerStrand: 8, TupleLogMax: 100}
	scfg := tracestore.Config{WindowSeconds: 10, MaxSegments: 1 << 20, MaxBytes: 1 << 40}
	r := runForensicRing(t, 7, generous, &scfg)

	exports := make([]trace.ExportNode, 0, len(r.Addrs))
	stores := make(map[string]*tracestore.Store)
	for _, a := range r.Addrs {
		exports = append(exports, trace.ExportNode{Addr: a, Store: r.Node(a).Store(), Now: r.Sim.Now()})
		stores[a] = r.Node(a).TraceStore()
	}
	var live, fromStore bytes.Buffer
	liveStats, err := trace.ExportChrome(&live, exports)
	if err != nil {
		t.Fatal(err)
	}
	storeStats, err := trace.ExportChromeStore(&fromStore, stores, 0)
	if err != nil {
		t.Fatal(err)
	}
	if liveStats.RuleExecs == 0 || liveStats.Flows == 0 {
		t.Fatalf("live export is trivial: %+v", liveStats)
	}
	if liveStats.RuleExecs != storeStats.RuleExecs || liveStats.Flows != storeStats.Flows {
		t.Fatalf("export stats diverge: live %+v, store %+v", liveStats, storeStats)
	}
	if !bytes.Equal(live.Bytes(), fromStore.Bytes()) {
		t.Fatalf("store-backed export differs from live export (live %d bytes, store %d bytes)",
			live.Len(), fromStore.Len())
	}
	// The store kept multiple sealed windows — the render crossed the
	// sealed/active seam, not just the in-memory segment.
	if segs := stores["n4"].Segments(); len(segs) < 3 {
		t.Fatalf("store has %d segments, want >= 3 so the export spans seals", len(segs))
	}
}
