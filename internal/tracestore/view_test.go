package tracestore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// randomStores drives a small deployment against real stores: local
// rule executions, tuples sent between nodes, arrivals from a node the
// view has no store for, system events, and restarts that re-issue
// tuple IDs from 1 inside a window. Small windows force rotation, a
// small MaxSegments on some nodes forces eviction, and the last window
// of every node stays unsealed. It returns the stores and the final
// time.
func randomStores(rng *rand.Rand) (map[string]*Store, float64) {
	const nodes = 4
	addrs := make([]string, nodes)
	stores := make(map[string]*Store, nodes)
	next := make([]uint64, nodes) // per-node tuple-ID counter
	for i := range addrs {
		addrs[i] = fmt.Sprintf("n%d", i)
		cfg := Config{WindowSeconds: 10, MaxSegments: 1 << 20}
		if rng.Intn(2) == 0 {
			cfg.MaxSegments = 3 + rng.Intn(6)
		}
		if rng.Intn(3) == 0 {
			cfg.WindowSeconds = 60 // windows of several blocks
		}
		stores[addrs[i]] = New(addrs[i], cfg)
	}
	rules := []string{"r1", "r2", "r3"}
	fresh := func(n int) uint64 { next[n]++; return next[n] }
	// known picks an ID the node has issued since its last restart,
	// recent ones more often, so chains are long but old tuples (table
	// rows) keep being consumed.
	known := func(n int) uint64 {
		if next[n] == 0 {
			return 1
		}
		if back := uint64(rng.Intn(8)); rng.Intn(4) > 0 && back < next[n] {
			return next[n] - back
		}
		return 1 + uint64(rng.Int63n(int64(next[n])))
	}
	now := 0.0
	steps := 600 + rng.Intn(600)
	for s := 0; s < steps; s++ {
		now += rng.Float64() * 0.4
		if rng.Intn(60) == 0 {
			// The store does not rely on the clock never regressing: a
			// late record lands in the active segment.
			now -= rng.Float64()
		}
		n := rng.Intn(nodes)
		st := stores[addrs[n]]
		switch k := rng.Intn(100); {
		case k < 60: // a rule fires: one event edge, some precondition edges
			rule := rules[rng.Intn(len(rules))]
			in, out := known(n), fresh(n)
			inT := now - rng.Float64()*0.1
			st.AppendExec(Exec{Rule: rule, InID: in, OutID: out, InT: inT, OutT: now, IsEvent: true})
			for p := rng.Intn(3); p > 0; p-- {
				st.AppendExec(Exec{Rule: rule, InID: known(n), OutID: out, InT: inT, OutT: now})
			}
		case k < 85: // a tuple travels from n to another node
			to := (n + 1 + rng.Intn(nodes-1)) % nodes
			stores[addrs[to]].AppendHop(Hop{ID: fresh(to), Src: addrs[n], SrcID: known(n), Dst: addrs[to], T: now})
		case k < 90: // an arrival from outside the view
			st.AppendHop(Hop{ID: fresh(n), Src: "ghost", SrcID: uint64(1 + rng.Intn(50)), Dst: addrs[n], T: now})
		case k < 97:
			st.AppendEvent(Event{Op: "insert", Name: "t", ID: known(n), T: now})
		default: // restart: IDs start over, the store survives
			next[n] = 0
			st.AppendEvent(Event{Op: "restart", T: now})
		}
	}
	return stores, now
}

// retained is the brute-force reference's reading of a store: every
// record it still holds, in append order, by decoding each sealed
// segment and copying the active one.
func retained(t *testing.T, st *Store) *segment {
	t.Helper()
	all := &segment{}
	add := func(seg *segment) {
		all.execs = append(all.execs, seg.execs...)
		all.hops = append(all.hops, seg.hops...)
		all.events = append(all.events, seg.events...)
	}
	for _, s := range st.sealed {
		seg, err := decodeSegment(s.data)
		if err != nil {
			t.Fatal(err)
		}
		add(seg)
	}
	if st.active != nil {
		add(st.active)
	}
	return all
}

// reference answers the View's questions by linear scans over the
// retained records: no ranges, no indexes, no laziness.
type reference struct {
	recs         map[string]*segment
	since, until float64
	newest       map[string]map[uint64]Hop // arrivals, computed once
}

func newReference(t *testing.T, stores map[string]*Store, since, until float64) *reference {
	ref := &reference{recs: make(map[string]*segment), since: since, until: until, newest: make(map[string]map[uint64]Hop)}
	for a, st := range stores {
		ref.recs[a] = retained(t, st)
	}
	return ref
}

func (r *reference) visible(t float64) bool { return t >= r.since && t <= r.until }

// arrivals is the node's newest visible hop per local ID.
func (r *reference) arrivals(node string) map[uint64]Hop {
	if m, ok := r.newest[node]; ok {
		return m
	}
	m := make(map[uint64]Hop)
	r.newest[node] = m
	for _, h := range r.recs[node].hops {
		if r.visible(h.T) {
			m[h.ID] = h
		}
	}
	return m
}

func (r *reference) hops(node string) []Hop {
	out := []Hop{}
	for _, h := range r.arrivals(node) {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *reference) execs(f ExecFilter) []Edge {
	until := f.Until
	if until == 0 {
		until = math.Inf(1)
	}
	var out []Edge
	for _, e := range r.recs[f.Node].execs {
		if !r.visible(e.OutT) || e.OutT < f.Since || e.OutT > until || (f.Rule != "" && e.Rule != f.Rule) {
			continue
		}
		out = append(out, Edge{Node: f.Node, Rule: e.Rule, InID: e.InID, OutID: e.OutID, InT: e.InT, OutT: e.OutT, IsEvent: e.IsEvent})
		if f.Limit > 0 && len(out) == f.Limit {
			break
		}
	}
	return out
}

func (r *reference) events(f EventFilter) []Event {
	until := f.Until
	if until == 0 {
		until = math.Inf(1)
	}
	var out []Event
	for _, ev := range r.recs[f.Node].events {
		if r.visible(ev.T) && ev.T >= f.Since && ev.T <= until && (f.Op == "" || ev.Op == f.Op) {
			out = append(out, ev)
		}
	}
	return out
}

func (r *reference) walk(node string, id uint64, maxDepth int, forward bool) *Lineage {
	nodes := make([]string, 0, len(r.recs))
	for a := range r.recs {
		nodes = append(nodes, a)
	}
	sort.Strings(nodes)
	out := &Lineage{}
	type key struct {
		node string
		id   uint64
	}
	seen := map[key]bool{{node, id}: true}
	queue := []walkItem{{node: node, id: id}}
	push := func(n string, id uint64, depth int) {
		if !seen[key{n, id}] {
			seen[key{n, id}] = true
			queue = append(queue, walkItem{node: n, id: id, depth: depth})
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		recs := r.recs[it.node]
		if recs == nil {
			continue
		}
		if forward {
			// Consumers in node order, then local ID order.
			for _, to := range nodes {
				var at []Hop
				for _, h := range r.arrivals(to) {
					if h.Src == it.node && h.SrcID == it.id {
						at = append(at, h)
					}
				}
				sort.Slice(at, func(i, j int) bool { return at[i].ID < at[j].ID })
				for _, h := range at {
					out.Hops = append(out.Hops, HopStep{From: it.node, FromID: it.id, To: to, ToID: h.ID, T: h.T, Depth: it.depth})
					push(to, h.ID, it.depth)
				}
			}
		} else if h, ok := r.arrivals(it.node)[it.id]; ok {
			out.Hops = append(out.Hops, HopStep{From: h.Src, FromID: h.SrcID, To: it.node, ToID: it.id, T: h.T, Depth: it.depth})
			push(h.Src, h.SrcID, it.depth)
		}
		if maxDepth > 0 && it.depth >= maxDepth {
			continue
		}
		for _, e := range recs.execs {
			if !r.visible(e.OutT) || (forward && e.InID != it.id) || (!forward && e.OutID != it.id) {
				continue
			}
			out.Edges = append(out.Edges, Edge{Node: it.node, Rule: e.Rule, InID: e.InID, OutID: e.OutID, InT: e.InT, OutT: e.OutT, IsEvent: e.IsEvent, Depth: it.depth + 1})
			if forward {
				push(it.node, e.OutID, it.depth+1)
			} else {
				push(it.node, e.InID, it.depth+1)
			}
		}
	}
	out.sort()
	return out
}

// TestViewMatchesLinearScan is the differential test of the range-pruned
// lazy index: on randomized multi-node stores (rotation, eviction,
// restarts with ID reuse, a `since` and an `until` that cut segments in
// half, an unsealed active segment, hops from outside the view) every
// read path must equal the brute-force reference.
func TestViewMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stores, end := randomStores(rng)
		bounds := [][2]float64{
			{0, math.Inf(1)},
			{end * 0.5, math.Inf(1)},    // mid-segment horizon
			{end - 7, math.Inf(1)},      // active segment and a sliver
			{end * 0.3, end * 0.7},      // both ends cut
			{0, end * 0.2},              // only old, partly evicted windows
			{end * 0.6, end*0.6 + 1e-9}, // almost nothing
			{end + 100, math.Inf(1)},    // nothing
		}
		for _, b := range bounds {
			since, until := b[0], b[1]
			ref := newReference(t, stores, since, until)
			v := newView(stores, since, until)
			name := fmt.Sprintf("seed %d since %.2f until %.2f", seed, since, until)
			for node, recs := range ref.recs {
				// Start walks from IDs that exist (recent and old) and a
				// few that may not.
				var ids []uint64
				for i := 0; i < 6 && len(recs.execs) > 0; i++ {
					e := recs.execs[rng.Intn(len(recs.execs))]
					ids = append(ids, e.OutID, e.InID)
				}
				for i := 0; i < 3 && len(recs.hops) > 0; i++ {
					ids = append(ids, recs.hops[rng.Intn(len(recs.hops))].ID)
				}
				ids = append(ids, 1, 2, uint64(rng.Intn(400)), 1<<40)
				for _, id := range ids {
					depth := 0
					if rng.Intn(3) == 0 {
						depth = 1 + rng.Intn(4)
					}
					for _, forward := range []bool{false, true} {
						got, err := v.walk(node, id, depth, forward)
						if err != nil {
							t.Fatal(err)
						}
						if want := ref.walk(node, id, depth, forward); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: walk(%s, %d, depth %d, forward %v):\n got %+v\nwant %+v", name, node, id, depth, forward, got, want)
						}
					}
				}
				got, err := v.Hops(node)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.hops(node); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Hops(%s):\n got %+v\nwant %+v", name, node, got, want)
				}
				for _, f := range []ExecFilter{
					{Node: node},
					{Node: node, Rule: "r2", Limit: 5},
					{Node: node, Since: end * 0.4, Until: end * 0.6},
					{Node: node, Until: end * 0.1, Limit: 3},
				} {
					got, err := v.Execs(f)
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.execs(f); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Execs(%+v):\n got %d edges\nwant %d edges", name, f, len(got), len(want))
					}
				}
				for _, f := range []EventFilter{{Node: node}, {Node: node, Op: "restart", Since: end * 0.2, Until: end * 0.9}} {
					got, err := v.Events(f)
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.events(f); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Events(%+v):\n got %+v\nwant %+v", name, f, got, want)
					}
				}
			}
		}
	}
}

// TestRandomStoresCoverTheHardCases keeps the differential test honest:
// the generator must actually produce eviction, ID reuse inside one
// segment (a non-monotone column), an unsealed active segment, a run of
// equal OutIDs across a block edge of a segment read by blocks, and
// walks that read a block past a segment's first.
func TestRandomStoresCoverTheHardCases(t *testing.T) {
	var evicted, nonMonotone, active, straddle, laterBlock bool
	for seed := int64(1); seed <= 12; seed++ {
		stores, _ := randomStores(rand.New(rand.NewSource(seed)))
		v := NewView(stores, 0)
		for node, st := range stores {
			evicted = evicted || st.Stats().Evicted > 0
			active = active || (st.active != nil && st.active.records() > 0)
			for _, s := range st.sealed {
				h, err := parseHeader(s.data)
				if err != nil {
					t.Fatal(err)
				}
				seg, err := decodeSegment(s.data)
				if err != nil {
					t.Fatal(err)
				}
				for k := blockRows; k < len(seg.execs) && h.flags&outSorted != 0; k += blockRows {
					straddle = straddle || seg.execs[k].OutID == seg.execs[k-1].OutID
				}
			}
			recs := retained(t, st)
			for i := 0; i < len(recs.execs); i += 25 {
				if _, err := v.Ancestors(node, recs.execs[i].OutID, 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range v.nodes[node] {
				nonMonotone = nonMonotone || r.outIx.sorted != nil || r.hopIx.sorted != nil
				for k := 1; r.blk != nil && k < len(r.blk.out.blocks); k++ {
					laterBlock = laterBlock || r.blk.out.blocks[k].rest != 0
				}
			}
		}
	}
	if !evicted || !nonMonotone || !active || !straddle || !laterBlock {
		t.Fatalf("generator coverage: evicted=%v nonMonotone=%v active=%v straddle=%v laterBlock=%v, want all true",
			evicted, nonMonotone, active, straddle, laterBlock)
	}
}

// manyWindows is one long causal chain on one node, several links per
// window: tuple i+1 derives from tuple i.
func manyWindows(windows, perWindow int) (*Store, uint64) {
	st := New("n1", Config{WindowSeconds: 10, MaxSegments: 1 << 20, MaxBytes: 1 << 40})
	id := uint64(1)
	for w := 0; w < windows; w++ {
		for i := 0; i < perWindow; i++ {
			t := float64(w)*10 + float64(i)*10/float64(perWindow)
			st.AppendExec(exec("r", id, id+1, t, t+0.001, true))
			id++
		}
	}
	return st, id
}

// TestColdAncestorsDecodesOnlyWhatItWalks: the horizon bounds the
// candidate segments, the ID ranges bound the segments a lookup reads,
// and the block heads bound the blocks it decodes there. A depth-bounded
// walk from the newest tuple over a 50-window horizon must decode no
// whole segment and only the blocks its edges live in; a second walk
// must decode nothing more; and scans decode every sealed segment once.
func TestColdAncestorsDecodesOnlyWhatItWalks(t *testing.T) {
	const windows, perWindow, depth = 50, 200, 300
	st, last := manyWindows(windows, perWindow)
	v := NewView(map[string]*Store{"n1": st}, 0)
	l, err := v.Ancestors("n1", last, depth)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Edges) != depth {
		t.Fatalf("edges = %d, want %d", len(l.Edges), depth)
	}
	horizon := len(v.nodes["n1"])
	if horizon != windows {
		t.Fatalf("horizon holds %d segments, want %d", horizon, windows)
	}
	// The newest window is the active segment, read in place; the rest
	// of the walk is the newest depth-perWindow rows of the window
	// before it. The blocks holding those rows, plus the one before
	// them when the deepest ID heads a block (a run of it may straddle
	// the edge), bound the reads.
	sealedRows := depth - perWindow
	n := (perWindow-1)/blockRows - (perWindow-sealedRows)/blockRows + 1 + 1
	if v.decoded.segments != 0 || v.decoded.blocks == 0 || v.decoded.blocks > n {
		t.Fatalf("cold walk decoded %d whole segments and %d blocks, want 0 and 1..%d", v.decoded.segments, v.decoded.blocks, n)
	}
	cold := v.decoded
	if _, err := v.Ancestors("n1", last, depth); err != nil {
		t.Fatal(err)
	}
	if v.decoded != cold {
		t.Fatalf("warm walk decoded %d more segments and %d more blocks, want 0", v.decoded.segments-cold.segments, v.decoded.blocks-cold.blocks)
	}
	// A full scan decodes every sealed segment, each once.
	if _, err := v.Execs(ExecFilter{Node: "n1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Execs(ExecFilter{Node: "n1"}); err != nil {
		t.Fatal(err)
	}
	if want := horizon - 1; v.decoded.segments != want || v.decoded.blocks != cold.blocks {
		t.Fatalf("after two scans decoded %d segments and %d blocks, want %d (every sealed segment once) and %d", v.decoded.segments, v.decoded.blocks, want, cold.blocks)
	}
}

// TestUntilPrunesLaterWindows: segments wholly after `until` are not
// even candidates, so no read path can decode them.
func TestUntilPrunesLaterWindows(t *testing.T) {
	st, _ := manyWindows(10, 5) // windows 0..9, five links each, IDs 1..51
	v := newView(map[string]*Store{"n1": st}, 0, 29)
	l, err := v.Ancestors("n1", 16, 0) // produced at t=28, in the last visible window
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Edges) != 15 {
		t.Fatalf("edges = %d, want 15", len(l.Edges))
	}
	if _, err := v.Execs(ExecFilter{Node: "n1"}); err != nil {
		t.Fatal(err)
	}
	if got := len(v.nodes["n1"]); got != 3 || v.decoded.segments != 3 {
		t.Fatalf("until=29 left %d candidate segments, %d decoded; want 3, 3", got, v.decoded.segments)
	}
}

// TestEvictionReleasesSegment: retention must make the evicted segment
// unreachable, not merely step the slice header past it, or MaxBytes
// bounds the counter and not the heap.
func TestEvictionReleasesSegment(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 10, MaxSegments: 2})
	st.AppendExec(exec("r", 1, 2, 1, 1, true))
	st.AppendExec(exec("r", 2, 3, 11, 11, true)) // seals window 0
	freed := make(chan struct{})
	runtime.SetFinalizer(st.sealed[0], func(*Sealed) { close(freed) })
	st.AppendExec(exec("r", 3, 4, 21, 21, true))
	st.AppendExec(exec("r", 4, 5, 31, 31, true)) // third seal evicts window 0
	if st.Stats().Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", st.Stats().Evicted)
	}
	runtime.GC() // queues the finalizer of anything unreachable
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("evicted segment is still reachable from the store")
	}
	runtime.KeepAlive(st)
}

// benchStores is a ring of nodes passing a token: each window every
// node runs a few hundred local derivations, and one chain hops from
// node to node, so a walk from the last tuple crosses every node. An
// event in the next window seals the last one on every node, so the
// walk reads sealed segments, not the active one.
func benchStores() (map[string]*Store, string, uint64) {
	const nodes, windows, perWindow = 8, 40, 400
	stores := make(map[string]*Store, nodes)
	addrs := make([]string, nodes)
	next := make([]uint64, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("n%d", i)
		stores[addrs[i]] = New(addrs[i], Config{WindowSeconds: 10, MaxSegments: 1 << 20, MaxBytes: 1 << 40})
	}
	at, token := 0, uint64(0)
	for w := 0; w < windows; w++ {
		for i := 0; i < perWindow; i++ {
			t := float64(w)*10 + float64(i)*10/perWindow
			for n := range addrs {
				next[n]++
				in := next[n] - 1
				if n == at && i%50 == 0 {
					// The token's chain: derive locally, then hop on.
					if token != 0 {
						in = token
					}
					stores[addrs[n]].AppendExec(exec("tok", in, next[n], t, t, true))
					to := (n + 1) % nodes
					next[to]++
					stores[addrs[to]].AppendHop(Hop{ID: next[to], Src: addrs[n], SrcID: next[n], Dst: addrs[to], T: t})
					at, token = to, next[to]
					continue
				}
				stores[addrs[n]].AppendExec(exec("r", in, next[n], t, t, i%2 == 0))
			}
		}
	}
	for _, st := range stores {
		st.AppendEvent(Event{Op: "insert", Name: "t", T: windows * 10})
	}
	return stores, addrs[at], token
}

func BenchmarkAncestorsCold(b *testing.B) {
	stores, node, id := benchStores()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := NewView(stores, 0).Ancestors(node, id, 60)
		if err != nil || len(l.Hops) == 0 {
			b.Fatalf("lineage %+v, err %v", l, err)
		}
	}
}

func BenchmarkAncestorsWarm(b *testing.B) {
	stores, node, id := benchStores()
	v := NewView(stores, 0)
	if _, err := v.Ancestors(node, id, 60); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Ancestors(node, id, 60); err != nil {
			b.Fatal(err)
		}
	}
}
