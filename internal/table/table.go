// Package table implements P2's soft-state tables: bounded, TTL-expiring
// collections of tuples declared by OverLog materialize() statements.
//
// Each table has a primary key (a list of 1-based field positions).
// Inserting a tuple whose key matches an existing row replaces that row;
// inserting a tuple identical to an existing row only refreshes its TTL
// (and does not fire listeners), which keeps recursive delta-triggered
// rules from looping on their own output.
//
// Tables expire rows lazily against a caller-supplied virtual clock and
// evict the oldest row (FIFO) when the size bound is exceeded, matching
// P2's behaviour.
package table

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"p2go/internal/tuple"
)

// Infinity marks an unbounded lifetime or size in a Spec.
const Infinity = -1

// Spec describes a materialized table, mirroring the arguments of the
// OverLog construct materialize(name, lifetime, size, keys(...)).
type Spec struct {
	// Name is the predicate name stored in this table.
	Name string
	// Lifetime is the row TTL in seconds; Infinity (-1) means rows never
	// expire.
	Lifetime float64
	// MaxSize bounds the number of rows; Infinity (-1) means unbounded.
	// When an insert would exceed the bound, the oldest row is evicted.
	MaxSize int
	// Keys lists the 1-based field positions forming the primary key
	// (position 1 is the location specifier). Empty means the whole
	// tuple is the key.
	Keys []int
}

// Op identifies the kind of change reported to listeners.
type Op uint8

const (
	// OpInsert reports a new or replacing row.
	OpInsert Op = iota
	// OpDelete reports a removed row (explicit delete, replacement of a
	// same-key row, expiry, or eviction).
	OpDelete
	// OpClear reports a bulk Clear: every row vanished at once without
	// individual delete events (crash amnesia). The reported tuple
	// carries only the table name. Subscribers holding derived state
	// (e.g. incremental aggregate accumulators) must invalidate it.
	OpClear
)

// Listener observes table changes. Listeners run synchronously inside the
// mutation; they must not mutate the table reentrantly. The tuple is the
// table's stored row (never the caller's argument to Insert), so a
// listener may keep it.
type Listener func(op Op, t tuple.Tuple)

type listenerEnt struct {
	id int
	fn Listener
}

type row struct {
	t      tuple.Tuple
	expiry float64 // virtual seconds; +Inf = never
	seq    uint64  // insertion order, for FIFO eviction
}

// Table is a single soft-state table. Tables are not safe for concurrent
// use; the engine serializes all access within a node's event loop.
type Table struct {
	spec       Spec
	rows       map[uint64][]row // key hash -> rows with that hash
	count      int
	seq        uint64
	listeners  []listenerEnt
	listenerID int
	// fifo tracks insertion order for O(1) amortized eviction: seq ->
	// key hash, lazily invalidated via seqs.
	fifo []fifoRef
	seqs map[uint64]uint64 // live row seq -> key hash
	// soonest lower-bounds the earliest row expiry, letting expiry
	// sweeps exit without touching any bucket.
	soonest float64
	// indexes holds secondary join indexes (see EnsureIndex).
	indexes map[uint64][]*index
	// scanScratch is the reusable row-snapshot buffer for Scan (tables
	// are single-threaded like their node); scanBusy falls back to
	// allocation for nested scans from inside a Scan callback.
	scanScratch bySeq
	scanBusy    bool
	// victims is the reusable buffer in which Delete and expiry collect
	// the rows they remove before notifying listeners in seq order.
	victims []row
	// sync, when set, is the owner's callback that brings the rows up to
	// date (see SetSync).
	sync SyncFunc
}

// SyncOp says why a table calls its owner back (see SetSync).
type SyncOp uint8

const (
	// SyncRead precedes a read of the rows at time now (-Inf when the
	// read carries no clock, like Count): the owner ages its state to now
	// and inserts the rows it has not built yet.
	SyncRead SyncOp = iota
	// SyncExpire precedes Expire(now): the owner ages its state to now
	// and builds nothing.
	SyncExpire
	// SyncDeleted follows Delete, once per removed row t.
	SyncDeleted
)

// SyncFunc is a table owner's callback; now is set for SyncRead and
// SyncExpire, t for SyncDeleted.
type SyncFunc func(op SyncOp, now float64, t tuple.Tuple)

// SetSync makes the table a cache of state its owner keeps in a cheaper
// form: fn runs before every read and expiry, so the owner can insert
// the rows it has not materialised yet (Insert and DeleteKey do not call
// back), and after every row an explicit Delete removes, so the owner
// can forget it too. Readers see an ordinary table; a table nobody reads
// costs its owner no tuples. The execution tracer owns its reflection
// tables this way.
func (tb *Table) SetSync(fn SyncFunc) { tb.sync = fn }

func (tb *Table) syncRead(now float64) {
	if tb.sync != nil {
		tb.sync(SyncRead, now, tuple.Tuple{})
	}
}

// bySeq sorts a row snapshot into insertion order. It implements
// sort.Interface on the pointer so Scan's sort of the pooled snapshot
// converts to the interface without allocating.
type bySeq []row

func (r *bySeq) Len() int           { return len(*r) }
func (r *bySeq) Less(i, j int) bool { return (*r)[i].seq < (*r)[j].seq }
func (r *bySeq) Swap(i, j int)      { (*r)[i], (*r)[j] = (*r)[j], (*r)[i] }

type fifoRef struct {
	seq  uint64
	hash uint64
}

// New creates an empty table from the given spec.
func New(spec Spec) *Table {
	return &Table{
		spec:    spec,
		rows:    make(map[uint64][]row),
		seqs:    make(map[uint64]uint64),
		soonest: math.Inf(1),
	}
}

// Spec returns the table's declaration.
func (tb *Table) Spec() Spec { return tb.spec }

// Name returns the predicate name stored in the table.
func (tb *Table) Name() string { return tb.spec.Name }

// Count returns the number of live rows. Callers should Expire first if
// they need the count at a particular instant.
func (tb *Table) Count() int {
	tb.syncRead(math.Inf(-1))
	return tb.count
}

// Subscribe registers a listener for subsequent changes and returns a
// handle for Unsubscribe. Listeners fire in subscription order.
func (tb *Table) Subscribe(l Listener) int {
	tb.listenerID++
	tb.listeners = append(tb.listeners, listenerEnt{id: tb.listenerID, fn: l})
	return tb.listenerID
}

// Unsubscribe removes the listener registered under the given handle
// (a no-op for unknown handles). Query teardown uses it to detach
// incremental-aggregate accumulators from tables that outlive the query.
func (tb *Table) Unsubscribe(id int) {
	for i, ent := range tb.listeners {
		if ent.id == id {
			tb.listeners = append(tb.listeners[:i:i], tb.listeners[i+1:]...)
			return
		}
	}
}

// NumListeners returns the number of registered listeners (tests use it
// to verify teardown).
func (tb *Table) NumListeners() int { return len(tb.listeners) }

func (tb *Table) notify(op Op, t tuple.Tuple) {
	for _, ent := range tb.listeners {
		ent.fn(op, t)
	}
}

func (tb *Table) keyOf(t tuple.Tuple) uint64 {
	if len(tb.spec.Keys) == 0 {
		return t.Hash()
	}
	return t.KeyHash(tb.spec.Keys)
}

func (tb *Table) sameKey(a, b tuple.Tuple) bool {
	if len(tb.spec.Keys) == 0 {
		return a.Equal(b)
	}
	return a.KeyEqual(b, tb.spec.Keys)
}

// Insert adds t at virtual time now (seconds). It returns true if the
// table changed (new row or replacement), false if an identical row merely
// had its TTL refreshed. Name mismatches are rejected with an error.
// t is borrowed: a new or replacing row stores a copy of t.Fields (and
// listeners see that copy), a refresh copies nothing, so the caller may
// reuse the fields' storage once Insert returns.
func (tb *Table) Insert(t tuple.Tuple, now float64) (bool, error) {
	if t.Name != tb.spec.Name {
		return false, fmt.Errorf("table %s: cannot insert %s tuple", tb.spec.Name, t.Name)
	}
	tb.expireLocked(now)
	expiry := math.Inf(1)
	if tb.spec.Lifetime >= 0 {
		expiry = now + tb.spec.Lifetime
		if expiry < tb.soonest {
			tb.soonest = expiry
		}
	}
	h := tb.keyOf(t)
	bucket := tb.rows[h]
	for i := range bucket {
		if !tb.sameKey(bucket[i].t, t) {
			continue
		}
		if bucket[i].t.Equal(t) {
			// Identical content: refresh TTL only.
			bucket[i].expiry = expiry
			return false, nil
		}
		old := bucket[i].t
		t.Fields = slices.Clone(t.Fields)
		delete(tb.seqs, bucket[i].seq)
		tb.seq++
		bucket[i] = row{t: t, expiry: expiry, seq: tb.seq}
		tb.trackSeq(tb.seq, h)
		tb.indexInsert(t, tb.seq)
		tb.notify(OpDelete, old)
		tb.notify(OpInsert, t)
		return true, nil
	}
	t.Fields = slices.Clone(t.Fields)
	tb.seq++
	tb.rows[h] = append(bucket, row{t: t, expiry: expiry, seq: tb.seq})
	tb.trackSeq(tb.seq, h)
	tb.indexInsert(t, tb.seq)
	tb.count++
	if tb.spec.MaxSize >= 0 && tb.count > tb.spec.MaxSize {
		tb.evictOldest(tb.seq)
	}
	tb.notify(OpInsert, t)
	return true, nil
}

// trackSeq records insertion order and occasionally compacts the lazily
// invalidated FIFO index.
func (tb *Table) trackSeq(seq, hash uint64) {
	tb.seqs[seq] = hash
	tb.fifo = append(tb.fifo, fifoRef{seq: seq, hash: hash})
	if len(tb.fifo) > 64 && len(tb.fifo) > 4*len(tb.seqs) {
		live := tb.fifo[:0]
		for _, ref := range tb.fifo {
			if _, ok := tb.seqs[ref.seq]; ok {
				live = append(live, ref)
			}
		}
		tb.fifo = live
	}
}

// evictOldest removes the FIFO-oldest row, never the just-inserted one
// (whose seq is keep).
func (tb *Table) evictOldest(keep uint64) {
	for len(tb.fifo) > 0 {
		ref := tb.fifo[0]
		if _, live := tb.seqs[ref.seq]; !live {
			tb.fifo = tb.fifo[1:]
			continue
		}
		bucket := tb.rows[ref.hash]
		for i := range bucket {
			if bucket[i].seq != ref.seq {
				continue
			}
			if ref.seq == keep {
				// The just-inserted row can only be the FIFO head
				// when it is the sole live row (MaxSize 0); never
				// evict it.
				return
			}
			victim := bucket[i].t
			tb.removeAt(ref.hash, i)
			tb.notify(OpDelete, victim)
			return
		}
		// Stale ref (row replaced); drop it.
		tb.fifo = tb.fifo[1:]
	}
}

func (tb *Table) removeAt(h uint64, i int) {
	tb.putBucket(h, tb.unlink(tb.rows[h], i))
}

// DeleteKey removes the row whose primary key equals sample's, without
// scanning the table (used by the tracer's reference-counted flushes),
// and reports whether there was one. Insert replaces on an equal key, so
// at most one row can match.
func (tb *Table) DeleteKey(sample tuple.Tuple) bool {
	h := tb.keyOf(sample)
	for i, r := range tb.rows[h] {
		if tb.sameKey(r.t, sample) {
			tb.removeAt(h, i)
			tb.notify(OpDelete, r.t)
			return true
		}
	}
	return false
}

// Delete removes every row unifiable with the pattern: fields in pattern
// that are non-nil must Equal the row's corresponding field; nil fields
// are wildcards. It returns the removed tuples.
func (tb *Table) Delete(pattern tuple.Tuple, now float64) []tuple.Tuple {
	tb.syncRead(now)
	tb.expireLocked(now)
	victims := tb.takeVictims()
	for h, bucket := range tb.rows {
		for i := 0; i < len(bucket); {
			if matchPattern(bucket[i].t, pattern) {
				victims = append(victims, bucket[i])
				bucket = tb.unlink(bucket, i)
			} else {
				i++
			}
		}
		tb.putBucket(h, bucket)
	}
	var removed []tuple.Tuple
	if len(victims) > 0 {
		removed = make([]tuple.Tuple, len(victims))
	}
	sortBySeq(victims)
	for i, r := range victims {
		removed[i] = r.t
	}
	tb.notifyRemoved(victims)
	if tb.sync != nil {
		for _, t := range removed {
			tb.sync(SyncDeleted, now, t)
		}
	}
	return removed
}

// takeVictims hands out the table-owned buffer in which Delete and
// expiry collect the rows they unlink. It is taken, not shared: a
// listener that reads the table re-enters expiry.
func (tb *Table) takeVictims() []row {
	victims := tb.victims[:0]
	tb.victims = nil
	return victims
}

// unlink removes bucket[i] from its bucket and the live-row accounting
// and returns the shortened bucket; putBucket stores it back.
func (tb *Table) unlink(bucket []row, i int) []row {
	delete(tb.seqs, bucket[i].seq)
	bucket[i] = bucket[len(bucket)-1]
	tb.count--
	return bucket[:len(bucket)-1]
}

func (tb *Table) putBucket(h uint64, bucket []row) {
	if len(bucket) == 0 {
		delete(tb.rows, h)
	} else {
		tb.rows[h] = bucket
	}
}

// sortBySeq puts unlinked rows into insertion order. Which rows go is
// decided by content, but the order listeners hear about them must not
// be Go's map iteration order, or identical-seed runs log same-instant
// deletions differently.
func sortBySeq(victims []row) {
	if len(victims) > 1 {
		slices.SortFunc(victims, func(a, b row) int { return cmp.Compare(a.seq, b.seq) })
	}
}

// notifyRemoved fires the delete listeners for the (sorted) victims and
// returns the buffer for reuse.
func (tb *Table) notifyRemoved(victims []row) {
	for _, r := range victims {
		tb.notify(OpDelete, r.t)
	}
	clear(victims)
	tb.victims = victims[:0]
}

func matchPattern(t, pattern tuple.Tuple) bool {
	if t.Name != pattern.Name || len(t.Fields) != len(pattern.Fields) {
		return false
	}
	for i, p := range pattern.Fields {
		if p.IsNil() {
			continue
		}
		if !t.Fields[i].Equal(p) {
			return false
		}
	}
	return true
}

// Scan calls fn for every live row at time now. Iteration order is
// deterministic (insertion order). fn must not mutate the table.
func (tb *Table) Scan(now float64, fn func(tuple.Tuple)) {
	tb.syncRead(now)
	tb.expireLocked(now)
	var rows bySeq
	pooled := !tb.scanBusy
	if pooled {
		tb.scanBusy = true
		if cap(tb.scanScratch) < tb.count {
			tb.scanScratch = make(bySeq, 0, tb.count)
		}
		rows = tb.scanScratch[:0]
	} else {
		rows = make(bySeq, 0, tb.count)
	}
	for _, bucket := range tb.rows {
		rows = append(rows, bucket...)
	}
	if pooled {
		// Sorting through the table-owned field keeps the
		// sort.Interface conversion allocation-free.
		tb.scanScratch = rows
		sort.Sort(&tb.scanScratch)
		rows = tb.scanScratch
	} else {
		sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	}
	for _, r := range rows {
		fn(r.t)
	}
	if pooled {
		tb.scanScratch = rows[:0] // keep any growth
		tb.scanBusy = false
	}
}

// Match calls fn for every live row whose fields at the given 0-based
// positions Equal the corresponding values. It is the lookup primitive
// used by join elements.
func (tb *Table) Match(now float64, positions []int, values []tuple.Value, fn func(tuple.Tuple)) {
	tb.Scan(now, func(t tuple.Tuple) {
		for i, p := range positions {
			if p >= len(t.Fields) || !t.Fields[p].Equal(values[i]) {
				return
			}
		}
		fn(t)
	})
}

// Expire removes rows whose TTL elapsed by now, firing delete listeners
// in the rows' insertion order.
func (tb *Table) Expire(now float64) {
	if tb.sync != nil {
		tb.sync(SyncExpire, now, tuple.Tuple{})
	}
	tb.expireLocked(now)
}

func (tb *Table) expireLocked(now float64) {
	if tb.spec.Lifetime < 0 || now < tb.soonest {
		return
	}
	next := math.Inf(1)
	victims := tb.takeVictims()
	for h, bucket := range tb.rows {
		for i := 0; i < len(bucket); {
			if bucket[i].expiry <= now {
				victims = append(victims, bucket[i])
				bucket = tb.unlink(bucket, i)
			} else {
				if bucket[i].expiry < next {
					next = bucket[i].expiry
				}
				i++
			}
		}
		tb.putBucket(h, bucket)
	}
	tb.soonest = next
	sortBySeq(victims)
	tb.notifyRemoved(victims)
}

// Clear drops every row WITHOUT firing per-row delete listeners: it
// models the soft-state loss of a process death (a crashed node emits no
// delete events — its state simply vanishes), which is what the fault
// injector's restart-with-amnesia needs. Secondary indexes keep their
// definitions but lose their rows. A single OpClear notification fires
// after the wipe so subscribers holding derived state (incremental
// aggregate accumulators) can invalidate it.
func (tb *Table) Clear() {
	tb.rows = make(map[uint64][]row)
	tb.seqs = make(map[uint64]uint64)
	tb.fifo = tb.fifo[:0]
	tb.count = 0
	tb.soonest = math.Inf(1)
	for _, chain := range tb.indexes {
		for _, ix := range chain {
			ix.buckets = make(map[uint64][]uint64)
		}
	}
	tb.notify(OpClear, tuple.Tuple{Name: tb.spec.Name})
}

// NextExpiry returns the earliest row expiry time, or +Inf when nothing
// expires. The engine uses it to schedule expiry sweeps.
func (tb *Table) NextExpiry() float64 {
	tb.syncRead(math.Inf(-1))
	next := math.Inf(1)
	for _, bucket := range tb.rows {
		for _, r := range bucket {
			if r.expiry < next {
				next = r.expiry
			}
		}
	}
	return next
}

// SizeBytes estimates the memory footprint of all live rows.
func (tb *Table) SizeBytes() int {
	tb.syncRead(math.Inf(-1))
	n := 0
	for _, bucket := range tb.rows {
		for _, r := range bucket {
			n += r.t.SizeBytes()
		}
	}
	return n
}

// Store is the per-node collection of tables.
type Store struct {
	tables map[string]*Table
	// order lists tables in materialization order. Whole-store sweeps
	// (ExpireAll) iterate it instead of the map: expiry fires delete
	// listeners, whose cross-table firing order must not depend on Go's
	// randomized map iteration or runs would not be reproducible.
	order []*Table
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[string]*Table)}
}

// Conflicts reports whether two specs for the same predicate disagree on
// shape (lifetime, size bound, or primary key). A nil error means other
// is a compatible re-declaration of s.
func (s Spec) Conflicts(other Spec) error {
	if s.Lifetime != other.Lifetime || s.MaxSize != other.MaxSize ||
		len(s.Keys) != len(other.Keys) {
		return fmt.Errorf("table %s already materialized with different spec", s.Name)
	}
	for i := range s.Keys {
		if s.Keys[i] != other.Keys[i] {
			return fmt.Errorf("table %s already materialized with different keys", s.Name)
		}
	}
	return nil
}

// Check validates spec against the store without creating anything: it
// returns the conflict error Materialize would, or nil. Install paths use
// it to validate a whole program before mutating any state.
func (s *Store) Check(spec Spec) error {
	if tb, ok := s.tables[spec.Name]; ok {
		return tb.spec.Conflicts(spec)
	}
	return nil
}

// Materialize creates (or returns the existing) table for the spec. A
// respecification with a different shape is an error: OverLog programs
// may be composed on-line, but a predicate's storage is declared once.
func (s *Store) Materialize(spec Spec) (*Table, error) {
	if tb, ok := s.tables[spec.Name]; ok {
		if err := tb.spec.Conflicts(spec); err != nil {
			return nil, err
		}
		return tb, nil
	}
	tb := New(spec)
	s.tables[spec.Name] = tb
	s.order = append(s.order, tb)
	return tb, nil
}

// Drop removes a table from the store, discarding its rows, listeners and
// indexes without firing delete events: a dropped query's state simply
// vanishes, like the soft state of a dead process. Dropping an unknown
// name is a no-op.
func (s *Store) Drop(name string) {
	tb, ok := s.tables[name]
	if !ok {
		return
	}
	delete(s.tables, name)
	for i, t := range s.order {
		if t == tb {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Get returns the table for a predicate, or nil if the predicate is not
// materialized (i.e. it is an event).
func (s *Store) Get(name string) *Table { return s.tables[name] }

// Names returns the materialized predicate names in sorted order.
func (s *Store) Names() []string {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LiveTuples returns the total number of live rows across all tables.
func (s *Store) LiveTuples() int {
	n := 0
	for _, tb := range s.order {
		n += tb.Count()
	}
	return n
}

// SizeBytes estimates total memory held by all tables.
func (s *Store) SizeBytes() int {
	n := 0
	for _, tb := range s.order {
		n += tb.SizeBytes()
	}
	return n
}

// ExpireAll sweeps every table at time now, in materialization order so
// cross-table delete-listener firing is deterministic.
func (s *Store) ExpireAll(now float64) {
	for _, tb := range s.order {
		tb.Expire(now)
	}
}

// NextExpiry returns the earliest expiry across all tables, or +Inf.
func (s *Store) NextExpiry() float64 {
	next := math.Inf(1)
	for _, tb := range s.order {
		if e := tb.NextExpiry(); e < next {
			next = e
		}
	}
	return next
}

// index is a secondary hash index over a set of 0-based field positions.
// Buckets hold row seqs and are compacted lazily: dead seqs are skipped
// and dropped during lookups.
type index struct {
	positions []int
	buckets   map[uint64][]uint64
}

// indexKey hashes a positions slice for the index-map lookup. Lookups
// verify the positions slice exactly, so a hash collision only costs a
// chain walk, never a wrong index. A uint64 key (rather than a built
// string) keeps the per-probe MatchIndexed path allocation-free.
func indexKey(positions []int) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range positions {
		h = (h ^ uint64(p)) * 1099511628211
	}
	return h
}

func samePositions(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (ix *index) keyOfRow(t tuple.Tuple) uint64 {
	return tuple.HashFieldsAt(t.Fields, ix.positions)
}

// EnsureIndex creates (or returns) a secondary index over the given
// 0-based field positions, backfilling it from live rows. The engine
// calls it once per distinct join access path; joins then probe buckets
// instead of scanning the table (P2's planner-created join indices).
func (tb *Table) EnsureIndex(positions []int) {
	tb.ensureIndex(positions)
}

func (tb *Table) ensureIndex(positions []int) *index {
	key := indexKey(positions)
	if tb.indexes == nil {
		tb.indexes = make(map[uint64][]*index)
	}
	for _, ix := range tb.indexes[key] {
		if samePositions(ix.positions, positions) {
			return ix
		}
	}
	ix := &index{positions: positions, buckets: make(map[uint64][]uint64)}
	// Backfill in seq (insertion) order so bucket enumeration order is
	// deterministic and identical to Scan order — fresh inserts append
	// monotonically increasing seqs, keeping that invariant.
	backfill := make([]row, 0, tb.count)
	for _, bucket := range tb.rows {
		backfill = append(backfill, bucket...)
	}
	sort.Slice(backfill, func(i, j int) bool { return backfill[i].seq < backfill[j].seq })
	for i := range backfill {
		k := ix.keyOfRow(backfill[i].t)
		ix.buckets[k] = append(ix.buckets[k], backfill[i].seq)
	}
	tb.indexes[key] = append(tb.indexes[key], ix)
	return ix
}

// indexInsert registers a fresh row in every secondary index.
func (tb *Table) indexInsert(t tuple.Tuple, seq uint64) {
	for _, chain := range tb.indexes {
		for _, ix := range chain {
			k := ix.keyOfRow(t)
			ix.buckets[k] = append(ix.buckets[k], seq)
		}
	}
}

// MatchIndexed calls fn for every live row whose fields at the 0-based
// positions Equal values, probing the secondary index for those
// positions (created on first use). The number of candidate rows visited
// is returned so callers can bill per-probe costs. Hash collisions are
// filtered by the Equal checks.
func (tb *Table) MatchIndexed(now float64, positions []int, values []tuple.Value, fn func(tuple.Tuple)) int {
	tb.syncRead(now)
	tb.expireLocked(now)
	ix := tb.ensureIndex(positions)
	k := tuple.HashValues(values)
	bucket := ix.buckets[k]
	if len(bucket) == 0 {
		return 0
	}
	visited := 0
	// Compaction writes into a FRESH slice, never in place: fn may
	// re-enter this table (a rule self-join probing the same bucket),
	// and in-place filtering would alias the array being iterated.
	var live []uint64
	for i, seq := range bucket {
		h, ok := tb.seqs[seq]
		if !ok {
			if live == nil {
				live = append(make([]uint64, 0, len(bucket)-1), bucket[:i]...)
			}
			continue // dead row: compact away
		}
		if live != nil {
			live = append(live, seq)
		}
		var row *tuple.Tuple
		for j := range tb.rows[h] {
			if tb.rows[h][j].seq == seq {
				row = &tb.rows[h][j].t
				break
			}
		}
		if row == nil {
			continue
		}
		visited++
		match := true
		for j, p := range positions {
			if p >= len(row.Fields) || !row.Fields[p].Equal(values[j]) {
				match = false
				break
			}
		}
		if match {
			fn(*row)
		}
	}
	if live != nil {
		if len(live) == 0 {
			delete(ix.buckets, k)
		} else {
			ix.buckets[k] = live
		}
	}
	return visited
}
