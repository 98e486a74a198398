package tracestore

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// View is a read-only investigation session over a set of node stores.
// Opening a node costs nothing but a list of handles on its segments
// inside the time horizon. A lookup (node, tuple ID) decodes only the
// segments whose recorded ID range contains that ID — each at most once
// per view — and finds the rows by binary search, so a lineage walk
// pays for the segments its edges live in, not for the horizon; scans
// (Execs, Events, Hops) decode the horizon of the one node they read.
// The store itself stays compact: only an open View holds decoded
// records. A View is a snapshot: appends made after a node is first
// read are not guaranteed to be visible. Not safe for concurrent use.
type View struct {
	stores       map[string]*Store
	since, until float64
	nodes        map[string][]segRef
	// fwd is the global forward hop index: producer address → the hops
	// its tuples took, sorted by producer tuple ID. Built on demand
	// (Descendants/FlowChain), since it decodes every node.
	fwd map[string][]fwdHop
	// decoded counts segments decoded so far; tests pin the pruning
	// with it.
	decoded int
}

type fwdHop struct {
	srcID uint64 // tuple ID on the producing node
	node  string // consuming node
	id    uint64 // tuple ID there
	t     float64
}

// NewView opens an investigation session over the given stores, keyed
// by node address. Records before `since` are invisible, and segments
// that ended before it are never decoded: the horizon bounds which
// segments are candidates, their ID ranges bound which of those a
// lookup decodes (pass 0 to see everything retained).
func NewView(stores map[string]*Store, since float64) *View {
	return newView(stores, since, math.Inf(1))
}

func newView(stores map[string]*Store, since, until float64) *View {
	return &View{stores: stores, since: since, until: until, nodes: make(map[string][]segRef)}
}

// Nodes lists the addresses the view can answer for, sorted.
func (v *View) Nodes() []string {
	out := make([]string, 0, len(v.stores))
	for a := range v.stores {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// node returns the handles on addr's segments inside the horizon,
// oldest first.
func (v *View) node(addr string) ([]segRef, error) {
	if refs, ok := v.nodes[addr]; ok {
		return refs, nil
	}
	st := v.stores[addr]
	if st == nil {
		return nil, fmt.Errorf("tracestore: no store for node %q", addr)
	}
	refs := st.refs(v.since, v.until)
	v.nodes[addr] = refs
	return refs, nil
}

// records returns the segment's records, decoding them on first use.
func (v *View) records(r *segRef) (*segment, error) {
	if r.seg == nil {
		seg, err := decodeSegment(r.data)
		if err != nil {
			return nil, err
		}
		r.seg = seg
		v.decoded++
	}
	return r.seg, nil
}

// visible applies the view's time bounds to one record.
func (v *View) visible(t float64) bool { return !(t < v.since || t > v.until) }

// idIndex finds the rows of a decoded segment whose ID column holds a
// given value. A column that is nondecreasing in append order — exec
// OutID and hop ID within one incarnation of a node — is binary-searched
// in place. Otherwise (exec InID always; the other two when a restart
// inside the window re-issued IDs from 1) sorted holds the column as
// (id, row) pairs ordered by both, so equal IDs stay in append order.
type idIndex struct {
	built  bool
	sorted []idRow
}

type idRow struct {
	id  uint64
	row int32
}

// find returns the positions [lo, hi) of the n-row column col that hold
// id; row maps a position to its row number.
func (ix *idIndex) find(n int, col func(int) uint64, id uint64) (lo, hi int) {
	if !ix.built {
		ix.built = true
		ix.sorted = sortedColumn(n, col)
	}
	if ix.sorted != nil {
		col = func(i int) uint64 { return ix.sorted[i].id }
	}
	lo = sort.Search(n, func(i int) bool { return col(i) >= id })
	for hi = lo; hi < n && col(hi) == id; hi++ {
	}
	return lo, hi
}

// sortedColumn returns nil for a column that is already nondecreasing,
// else its (id, row) pairs sorted by both.
func sortedColumn(n int, col func(int) uint64) []idRow {
	inOrder := true
	for i := 1; i < n && inOrder; i++ {
		inOrder = col(i-1) <= col(i)
	}
	if inOrder {
		return nil
	}
	rows := make([]idRow, n)
	for i := range rows {
		rows[i] = idRow{id: col(i), row: int32(i)}
	}
	slices.SortFunc(rows, func(a, b idRow) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	return rows
}

func (ix *idIndex) row(pos int) int {
	if ix.sorted != nil {
		return int(ix.sorted[pos].row)
	}
	return pos
}

// eachExec calls fn, oldest first, with every visible exec record whose
// OutID (or, with byIn, InID) is id.
func (v *View) eachExec(refs []segRef, id uint64, byIn bool, fn func(*Exec)) error {
	for i := range refs {
		r := &refs[i]
		rng, ix := r.out, &r.outIx
		if byIn {
			rng, ix = r.in, &r.inIx
		}
		if !rng.has(id) {
			continue
		}
		seg, err := v.records(r)
		if err != nil {
			return err
		}
		col := func(i int) uint64 { return seg.execs[i].OutID }
		if byIn {
			col = func(i int) uint64 { return seg.execs[i].InID }
		}
		lo, hi := ix.find(len(seg.execs), col, id)
		for p := lo; p < hi; p++ {
			if e := &seg.execs[ix.row(p)]; v.visible(e.OutT) {
				fn(e)
			}
		}
	}
	return nil
}

// arrival returns the newest visible hop record for local tuple id: on
// a reused ID the latest registration wins, mirroring the tupleTable's
// replace-on-key semantics.
func (v *View) arrival(refs []segRef, id uint64) (Hop, bool, error) {
	for i := len(refs) - 1; i >= 0; i-- {
		r := &refs[i]
		if !r.hop.has(id) {
			continue
		}
		seg, err := v.records(r)
		if err != nil {
			return Hop{}, false, err
		}
		lo, hi := r.hopIx.find(len(seg.hops), func(i int) uint64 { return seg.hops[i].ID }, id)
		for p := hi - 1; p >= lo; p-- {
			if h := &seg.hops[r.hopIx.row(p)]; v.visible(h.T) {
				return *h, true, nil
			}
		}
	}
	return Hop{}, false, nil
}

// forward builds the forward hop index from every node's deduplicated
// arrivals. Hops from producers outside the view are dropped: a walk
// never stands on such a node.
func (v *View) forward() error {
	if v.fwd != nil {
		return nil
	}
	fwd := make(map[string][]fwdHop)
	for _, addr := range v.Nodes() {
		hops, err := v.Hops(addr)
		if err != nil {
			return err
		}
		for _, h := range hops {
			if v.stores[h.Src] != nil {
				fwd[h.Src] = append(fwd[h.Src], fwdHop{srcID: h.SrcID, node: addr, id: h.ID, t: h.T})
			}
		}
	}
	for _, hs := range fwd {
		slices.SortStableFunc(hs, func(a, b fwdHop) int { return cmp.Compare(a.srcID, b.srcID) })
	}
	v.fwd = fwd
	return nil
}

// Edge is one causal edge of a lineage answer: on Node, Rule consumed
// InID and produced OutID. Depth is the BFS distance (in exec edges)
// from the query's starting tuple; 0 for plain scans.
type Edge struct {
	Node      string
	Rule      string
	InID      uint64
	OutID     uint64
	InT, OutT float64
	IsEvent   bool
	Depth     int
}

func (e *Exec) edge(node string, depth int) Edge {
	return Edge{
		Node: node, Rule: e.Rule, InID: e.InID, OutID: e.OutID,
		InT: e.InT, OutT: e.OutT, IsEvent: e.IsEvent, Depth: depth,
	}
}

// HopStep is one cross-node link of a lineage answer: the tuple known
// as FromID on From arrived at To as ToID at time T.
type HopStep struct {
	From   string
	FromID uint64
	To     string
	ToID   uint64
	T      float64
	Depth  int
}

// Lineage is the answer to an ancestors/descendants walk: the causal
// exec edges plus the cross-node hops the walk crossed, both sorted
// deterministically (by depth, then time, then content).
type Lineage struct {
	Edges []Edge
	Hops  []HopStep
}

func (l *Lineage) sort() {
	sort.Slice(l.Edges, func(i, j int) bool {
		a, b := l.Edges[i], l.Edges[j]
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.OutT != b.OutT {
			return a.OutT < b.OutT
		}
		if a.InT != b.InT {
			return a.InT < b.InT
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.InID != b.InID {
			return a.InID < b.InID
		}
		return a.OutID < b.OutID
	})
	sort.Slice(l.Hops, func(i, j int) bool {
		a, b := l.Hops[i], l.Hops[j]
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		if a.T != b.T {
			return a.T < b.T
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.FromID < b.FromID
	})
}

type walkItem struct {
	node  string
	id    uint64
	depth int
}

// Ancestors walks the causal past of tuple id on node: every exec edge
// that (transitively) produced it, following cross-node hops back to
// the producing node. maxDepth bounds the walk in exec edges (0 =
// unbounded). Unknown IDs return an empty lineage, not an error — the
// past may simply have aged out of retention.
func (v *View) Ancestors(node string, id uint64, maxDepth int) (*Lineage, error) {
	return v.walk(node, id, maxDepth, false)
}

// Descendants walks the causal future of tuple id on node: everything
// it (transitively) contributed to, following hops forward to consuming
// nodes.
func (v *View) Descendants(node string, id uint64, maxDepth int) (*Lineage, error) {
	return v.walk(node, id, maxDepth, true)
}

func (v *View) walk(node string, id uint64, maxDepth int, forward bool) (*Lineage, error) {
	if forward {
		if err := v.forward(); err != nil {
			return nil, err
		}
	}
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
		refs, err := v.node(it.node)
		if err != nil {
			// A hop may name a node outside the view (no store); the
			// walk reports what it can reach.
			continue
		}
		if forward {
			// Hops this tuple took to other nodes, then local consumers.
			hs := v.fwd[it.node]
			i, _ := slices.BinarySearchFunc(hs, it.id, func(h fwdHop, id uint64) int { return cmp.Compare(h.srcID, id) })
			for ; i < len(hs) && hs[i].srcID == it.id; i++ {
				out.Hops = append(out.Hops, HopStep{
					From: it.node, FromID: it.id, To: hs[i].node, ToID: hs[i].id,
					T: hs[i].t, Depth: it.depth,
				})
				push(hs[i].node, hs[i].id, it.depth)
			}
		} else {
			h, ok, err := v.arrival(refs, it.id)
			if err != nil {
				return nil, err
			}
			if ok {
				// The tuple is itself a remote arrival: jump to its
				// producer at the same depth (a hop is identity, not
				// derivation).
				out.Hops = append(out.Hops, HopStep{
					From: h.Src, FromID: h.SrcID, To: it.node, ToID: it.id,
					T: h.T, Depth: it.depth,
				})
				push(h.Src, h.SrcID, it.depth)
			}
		}
		if maxDepth > 0 && it.depth >= maxDepth {
			continue
		}
		err = v.eachExec(refs, it.id, forward, func(e *Exec) {
			out.Edges = append(out.Edges, e.edge(it.node, it.depth+1))
			if forward {
				push(it.node, e.OutID, it.depth+1)
			} else {
				push(it.node, e.InID, it.depth+1)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	out.sort()
	return out, nil
}

// FlowChain reconstructs the inter-node path of a tuple: every hop in
// its causal past and future, sorted by time — "how did this datum
// travel through the network".
func (v *View) FlowChain(node string, id uint64) ([]HopStep, error) {
	anc, err := v.Ancestors(node, id, 0)
	if err != nil {
		return nil, err
	}
	desc, err := v.Descendants(node, id, 0)
	if err != nil {
		return nil, err
	}
	hops := append(append([]HopStep(nil), anc.Hops...), desc.Hops...)
	sort.Slice(hops, func(i, j int) bool {
		a, b := hops[i], hops[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.FromID < b.FromID
	})
	return hops, nil
}

// Hops returns one node's remote-arrival hop records, deduplicated by
// local tuple ID (the newest record wins, mirroring the tupleTable's
// replace-on-key semantics) and sorted by local ID.
func (v *View) Hops(node string) ([]Hop, error) {
	refs, err := v.node(node)
	if err != nil {
		return nil, err
	}
	all := []Hop{}
	for i := range refs {
		seg, err := v.records(&refs[i])
		if err != nil {
			return nil, err
		}
		for _, h := range seg.hops {
			if v.visible(h.T) {
				all = append(all, h)
			}
		}
	}
	// Stable, so the last record of each run of equal IDs is the newest.
	slices.SortStableFunc(all, func(a, b Hop) int { return cmp.Compare(a.ID, b.ID) })
	out := all[:0]
	for i, h := range all {
		if i+1 == len(all) || all[i+1].ID != h.ID {
			out = append(out, h)
		}
	}
	return out, nil
}

// ExecFilter selects exec records for Execs: Node is required; zero
// values of the rest mean "any". Until 0 means +Inf.
type ExecFilter struct {
	Node         string
	Rule         string
	Since, Until float64
	Limit        int
}

// window intersects a filter's time bounds with the view's.
func (v *View) window(since, until float64) (float64, float64) {
	if until == 0 {
		until = math.Inf(1)
	}
	return max(since, v.since), min(until, v.until)
}

// Execs scans one node's exec records in append (time) order.
func (v *View) Execs(f ExecFilter) ([]Edge, error) {
	refs, err := v.node(f.Node)
	if err != nil {
		return nil, err
	}
	since, until := v.window(f.Since, f.Until)
	var out []Edge
	for i := range refs {
		if refs[i].outside(since, until) {
			continue
		}
		seg, err := v.records(&refs[i])
		if err != nil {
			return nil, err
		}
		for _, e := range seg.execs {
			if e.OutT < since || e.OutT > until {
				continue
			}
			if f.Rule != "" && e.Rule != f.Rule {
				continue
			}
			out = append(out, e.edge(f.Node, 0))
			if f.Limit > 0 && len(out) >= f.Limit {
				return out, nil
			}
		}
	}
	return out, nil
}

// EventFilter selects event records for Events: Node is required; zero
// values of the rest mean "any". Until 0 means +Inf.
type EventFilter struct {
	Node         string
	Op, Name     string
	Since, Until float64
	Limit        int
}

// Events scans one node's system events in append (time) order.
func (v *View) Events(f EventFilter) ([]Event, error) {
	refs, err := v.node(f.Node)
	if err != nil {
		return nil, err
	}
	since, until := v.window(f.Since, f.Until)
	var out []Event
	for i := range refs {
		if refs[i].outside(since, until) {
			continue
		}
		seg, err := v.records(&refs[i])
		if err != nil {
			return nil, err
		}
		for _, ev := range seg.events {
			if ev.T < since || ev.T > until {
				continue
			}
			if f.Op != "" && ev.Op != f.Op {
				continue
			}
			if f.Name != "" && ev.Name != f.Name {
				continue
			}
			out = append(out, ev)
			if f.Limit > 0 && len(out) >= f.Limit {
				return out, nil
			}
		}
	}
	return out, nil
}
