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
// inside the time horizon. A lookup (node, tuple ID) reads only the
// segments whose recorded ID range contains that ID, and in a sealed
// segment whose column is nondecreasing (exec OutID, hop ID) only the
// blocks whose heads bracket it: a lineage walk pays for the blocks its
// edges live in, not for the horizon. Other lookups (exec InID, a column
// a restart left out of order) decode the whole segment and search it by
// index; scans (Execs, Events, Hops) decode the horizon of the one node
// they read. Each block and each segment is decoded at most once per
// view.
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
	// decoded counts the whole segments and the single blocks decoded
	// so far; tests pin the pruning with it.
	decoded struct{ segments, blocks int }
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
		v.decoded.segments++
	}
	return r.seg, nil
}

// visible applies the view's time bounds to one record.
func (v *View) visible(t float64) bool { return !(t < v.since || t > v.until) }

// idIndex finds the rows of a decoded segment whose ID column holds a
// given value. A column that is nondecreasing in append order — exec
// OutID and hop ID, which a node issues from one counter — is
// binary-searched in place. Otherwise (exec InID always; the other two
// only when appended out of order, which the store accepts though no
// node does it) sorted holds the column as (id, row) pairs ordered by
// both, so equal IDs stay in append order.
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

// blocks is a view's block-by-block reading of one sealed segment: the
// parsed header, then the dictionary and each block's ID column and rows
// as lookups first need them.
type blocks struct {
	header
	data []byte
	strs []string     // the dictionary, nil until a block's rows are decoded
	out  column[Exec] // exec blocks, searched by OutID
	hop  column[Hop]  // hop blocks, searched by ID
}

// column is the block cache of one record kind. The first read decodes
// every block's head (its first ID) from the directory and sizes the
// ID column; a block's IDs and rows are then decoded on first need.
type column[T Exec | Hop] struct {
	dir, n int        // directory offset, records
	heads  []uint64   // each block's first ID; nil until the first read
	blocks []block[T] // per block, what has been decoded
	ids    []uint64   // the ID column, filled block by block
}

type block[T Exec | Hop] struct {
	rest int // offset of the columns after the IDs; 0 until they are read
	rows []T // every column, nil until a lookup matches in the block
}

// blocks returns r's block reader if a lookup on the column flag names
// should read blocks: the segment is sealed, not already decoded whole,
// and the seal saw the column nondecreasing. Otherwise it returns nil.
func (v *View) blocks(r *segRef, flag byte) (*blocks, error) {
	if r.seg != nil {
		return nil, nil
	}
	if r.blk == nil {
		h, err := parseHeader(r.data)
		if err != nil {
			return nil, err
		}
		r.blk = &blocks{
			header: h, data: r.data,
			out: column[Exec]{dir: h.execDir, n: h.nExecs},
			hop: column[Hop]{dir: h.hopDir, n: h.nHops},
		}
	}
	if r.blk.flags&flag == 0 {
		return nil, nil
	}
	return r.blk, nil
}

// each calls fn with every row of c whose ID is id, oldest first or,
// with newest, newest first, until fn returns false. c's ID column must
// be nondecreasing: a binary search over the block heads picks the
// blocks that can hold id, the last one whose head is smaller (a run of
// id may straddle its edge) and those whose head is id, and only those
// are read.
func (c *column[T]) each(v *View, b *blocks, id uint64, newest bool, fn func(*T) bool) error {
	if err := c.open(b); err != nil {
		return err
	}
	first, _ := slices.BinarySearch(c.heads, id)
	hi := first
	for hi < len(c.heads) && c.heads[hi] == id {
		hi++
	}
	lo := max(first-1, 0)
	for i := lo; i < hi; i++ {
		k := i
		if newest {
			k = lo + hi - 1 - i
		}
		ids, err := c.blockIDs(v, b, k)
		if err != nil {
			return err
		}
		start, _ := slices.BinarySearch(ids, id)
		end := start
		for end < len(ids) && ids[end] == id {
			end++
		}
		if start == end {
			continue
		}
		rows, err := c.rows(b, k)
		if err != nil {
			return err
		}
		for j := start; j < end; j++ {
			p := j
			if newest {
				p = start + end - 1 - j
			}
			if !fn(&rows[p]) {
				return nil
			}
		}
	}
	return nil
}

// open decodes the block heads on first use.
func (c *column[T]) open(b *blocks) error {
	if c.heads != nil || c.n == 0 {
		return nil
	}
	heads := make([]uint64, numBlocks(c.n))
	for k := range heads {
		off, err := b.block(b.data, c.dir, k)
		if err != nil {
			return err
		}
		r := reader{b: b.data, off: off}
		d, err := r.varint()
		if err != nil {
			return err
		}
		heads[k] = uint64(d)
	}
	c.heads, c.blocks, c.ids = heads, make([]block[T], len(heads)), make([]uint64, c.n)
	return nil
}

// blockIDs returns block k's IDs, decoding them on first use.
func (c *column[T]) blockIDs(v *View, b *blocks, k int) ([]uint64, error) {
	ids := c.ids[k*blockRows : min((k+1)*blockRows, c.n)]
	if blk := &c.blocks[k]; blk.rest == 0 {
		off, err := b.block(b.data, c.dir, k)
		if err != nil {
			return nil, err
		}
		r := reader{b: b.data, off: off}
		if err := r.ids(ids); err != nil {
			return nil, err
		}
		blk.rest = r.off
		v.decoded.blocks++
	}
	return ids, nil
}

// rows returns block k's records, decoding the columns after its IDs on
// first use; blockIDs has read the block.
func (c *column[T]) rows(b *blocks, k int) ([]T, error) {
	blk := &c.blocks[k]
	if blk.rows == nil {
		if b.strs == nil {
			r := reader{b: b.data, off: b.dict}
			strs, err := r.dictionary()
			if err != nil {
				return nil, err
			}
			b.strs = strs
		}
		ids := c.ids[k*blockRows : min((k+1)*blockRows, c.n)]
		rows := make([]T, len(ids))
		r := &reader{b: b.data, off: blk.rest}
		var err error
		switch rows := any(rows).(type) {
		case []Exec:
			err = r.execRows(rows, ids, b.strs)
		case []Hop:
			err = r.hopRows(rows, ids, b.strs)
		}
		if err != nil {
			return nil, err
		}
		blk.rows = rows
	}
	return blk.rows, nil
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
		if !byIn {
			b, err := v.blocks(r, outSorted)
			if err != nil {
				return err
			}
			if b != nil {
				err := b.out.each(v, b, id, false, func(e *Exec) bool {
					if v.visible(e.OutT) {
						fn(e)
					}
					return true
				})
				if err != nil {
					return err
				}
				continue
			}
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

// arrival returns the newest visible hop record for local tuple id: were
// an ID appended twice the latest would win, mirroring the tupleTable's
// replace-on-key semantics.
func (v *View) arrival(refs []segRef, id uint64) (Hop, bool, error) {
	for i := len(refs) - 1; i >= 0; i-- {
		r := &refs[i]
		if !r.hop.has(id) {
			continue
		}
		b, err := v.blocks(r, hopSorted)
		if err != nil {
			return Hop{}, false, err
		}
		if b != nil {
			var h Hop
			var found bool
			err := b.hop.each(v, b, id, true, func(row *Hop) bool {
				h, found = *row, v.visible(row.T)
				return !found
			})
			if err != nil {
				return Hop{}, false, err
			}
			if found {
				return h, true, nil
			}
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
