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
//
// A table keeps its rows in one slab, in insertion order; a replacement
// is a fresh insertion and goes to the end. Scan, expiry, Delete, index
// backfill and FIFO eviction walk the slab, so the order readers and
// listeners see comes from the structure, not from a sort. A row is its
// fields, ID, expiry and tombstone flag; the predicate name is the
// table's, and every tuple handed out carries spec.Name.
//
// The primary key and every secondary index find rows through
// open-addressed arrays of slab positions, allocated on first insert and
// doubled when three quarters full. The key array holds each position
// near its key's hash; an index bucket keeps the full hash of its fields
// and the ends of a list of positions in slab order, linked through
// per-position arrays, so a new row costs one allocation (its copy of
// the fields) and a probe walks the bucket. A probe on the location
// specifier alone, which a node's rows usually all share, walks the slab.
//
// A delete leaves a tombstone in the slab and unlinks the row from the
// key array and the indexes at once. The unlinked row keeps its forward
// link, so a read standing on a row that is deleted under it still
// reaches the rest of its bucket. Once tombstones outnumber live rows,
// the write that made them so compacts the slab, renumbering every
// position, unless a read is walking it: the table counts the Scans and
// MatchIndexed calls in progress (a tracer sync can insert and delete
// rows from inside a nested read of the same table), and a deferred
// compaction happens at the next expiry check with none in progress.
// Compaction refills the arrays in place; the slab and an array give
// memory back only when at least four times what the live rows need.
package table

import (
	"fmt"
	"math"
	"slices"

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
	fields []tuple.Value
	id     uint64
	expiry float64 // virtual seconds; +Inf = never
	dead   bool    // tombstone, until the slab compacts
}

// Table is a single soft-state table. Tables are not safe for concurrent
// use; the engine serializes all access within a node's event loop.
type Table struct {
	spec Spec
	// slab holds the rows in insertion order; no live row precedes
	// slab[first].
	slab  []row
	first int
	// keys holds each slab position p as p+1 at or after the slot its
	// primary-key hash picks; 0 is a free slot, -1 a removed row's.
	keys  []int32
	count int
	// reading counts the Scans and MatchIndexed walks in progress;
	// compaction waits for zero.
	reading    int
	listeners  []listenerEnt
	listenerID int
	// soonest lower-bounds the earliest row expiry, letting expiry
	// sweeps exit without walking the slab.
	soonest float64
	// indexes holds secondary join indexes (see EnsureIndex).
	indexes []*index
	// victims is the reusable buffer in which Delete and expiry collect
	// the rows they remove before notifying listeners in slab order.
	victims []tuple.Tuple
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

// New creates an empty table from the given spec.
func New(spec Spec) *Table {
	return &Table{spec: spec, soonest: math.Inf(1)}
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

// tupleAt is the stored row at position p as readers and listeners see it.
func (tb *Table) tupleAt(p int) tuple.Tuple {
	r := &tb.slab[p]
	return tuple.Tuple{Name: tb.spec.Name, Fields: r.fields, ID: r.id}
}

func (tb *Table) sameKey(a, b tuple.Tuple) bool {
	if len(tb.spec.Keys) == 0 {
		return a.Equal(b)
	}
	return a.KeyEqual(b, tb.spec.Keys)
}

// find returns the position of the live row whose primary key (hash h)
// equals t's, or -1. Keys that are Equal can hash apart (an int and a
// float of the same negative value), and such rows do not replace each
// other, so a row whose key matches must also match h.
func (tb *Table) find(t tuple.Tuple, h uint64) int32 {
	mask := len(tb.keys) - 1
	for i := int(h) & mask; mask >= 0; i = (i + 1) & mask {
		switch q := tb.keys[i]; {
		case q == 0:
			return -1
		case q > 0:
			if r := tb.tupleAt(int(q - 1)); tb.sameKey(r, t) && tb.keyOf(r) == h {
				return q - 1
			}
		}
	}
	return -1
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
	p := tb.find(t, h)
	if p >= 0 && tb.tupleAt(int(p)).Equal(t) {
		tb.slab[p].expiry = expiry // identical content: refresh TTL only
		return false, nil
	}
	t = tuple.Tuple{Name: tb.spec.Name, Fields: slices.Clone(t.Fields), ID: t.ID}
	var gone tuple.Tuple // the row this insert replaces or evicts
	removed := p >= 0
	if removed {
		gone = tb.tupleAt(int(p))
		tb.remove(p, h)
	}
	tb.add(t, h, expiry)
	if !removed && tb.spec.MaxSize >= 0 && tb.count > tb.spec.MaxSize {
		gone, removed = tb.evictOldest()
	}
	tb.compact()
	if removed {
		tb.notify(OpDelete, gone)
	}
	tb.notify(OpInsert, t)
	return true, nil
}

// add appends a live row at the end of the slab and links it into the
// key array and every index.
func (tb *Table) add(t tuple.Tuple, h uint64, expiry float64) {
	tb.slab = append(tb.slab, row{fields: t.Fields, id: t.ID, expiry: expiry})
	if len(tb.slab)*4 > len(tb.keys)*3 {
		tb.rekey(slotsFor(len(tb.slab)))
	} else {
		tb.linkKey(int32(len(tb.slab)-1), h)
	}
	tb.count++
	for _, ix := range tb.indexes {
		ix.push(t.Fields, true)
	}
}

// minSlots is the smallest position array.
const minSlots = 4

// slotsFor returns the power-of-two array length that holds n entries
// at most three quarters full.
func slotsFor(n int) int {
	s := minSlots
	for s*3 < n*4 {
		s *= 2
	}
	return s
}

// refit returns the length an array of n slots, large enough for need
// entries, should keep: n, unless that is at least four times what they
// take.
func refit(n, need int) int {
	if s := slotsFor(need); n >= 4*s {
		return s
	}
	return n
}

// rekey rebuilds the key array at length n from the live rows.
func (tb *Table) rekey(n int) {
	if n != len(tb.keys) {
		tb.keys = make([]int32, n)
	} else {
		clear(tb.keys)
	}
	for p := range tb.slab {
		if !tb.slab[p].dead {
			tb.linkKey(int32(p), tb.keyOf(tb.tupleAt(p)))
		}
	}
}

// linkKey puts position p in the first free or removed slot from the
// one its primary-key hash h picks.
func (tb *Table) linkKey(p int32, h uint64) {
	mask := len(tb.keys) - 1
	i := int(h) & mask
	for tb.keys[i] > 0 {
		i = (i + 1) & mask
	}
	tb.keys[i] = p + 1
}

// remove makes slab[p] (primary-key hash h) a tombstone and unlinks it
// from the key array and every index.
func (tb *Table) remove(p int32, h uint64) {
	r := &tb.slab[p]
	r.dead = true
	tb.count--
	mask := len(tb.keys) - 1
	i := int(h) & mask
	for tb.keys[i] != p+1 {
		i = (i + 1) & mask
	}
	tb.keys[i] = -1
	for _, ix := range tb.indexes {
		ix.unlink(p, r.fields)
	}
}

// evictOldest removes the FIFO-oldest row, the first live one in the
// slab, and returns it; the just-inserted row (the last) stays, so when
// it is the only live row (MaxSize 0) nothing goes.
func (tb *Table) evictOldest() (tuple.Tuple, bool) {
	for tb.slab[tb.first].dead {
		tb.first++
	}
	if tb.first == len(tb.slab)-1 {
		return tuple.Tuple{}, false
	}
	victim := tb.tupleAt(tb.first)
	tb.remove(int32(tb.first), tb.keyOf(victim))
	return victim, true
}

// compact squeezes the tombstones out of the slab once they outnumber
// live rows, unless a read is walking it; a compaction a read deferred
// happens at the next expiry check.
func (tb *Table) compact() {
	if tb.reading > 0 || len(tb.slab)-tb.count <= tb.count {
		return
	}
	live := tb.slab[:0]
	for _, r := range tb.slab {
		if !r.dead {
			live = append(live, r)
		}
	}
	clear(tb.slab[len(live):])
	if cap(live) >= 4*max(len(live), minSlots) {
		live = append([]row(nil), live...)
	}
	tb.slab, tb.first = live, 0
	tb.reindex()
}

// reindex rebuilds the key array and every index from the slab.
func (tb *Table) reindex() {
	tb.rekey(refit(len(tb.keys), tb.count))
	for _, ix := range tb.indexes {
		ix.fill(tb.slab)
	}
}

// DeleteKey removes the row whose primary key equals sample's, without
// scanning the table (used by the tracer's reference-counted flushes),
// and reports whether there was one. Insert replaces on an equal key, so
// at most one row can match.
func (tb *Table) DeleteKey(sample tuple.Tuple) bool {
	h := tb.keyOf(sample)
	p := tb.find(sample, h)
	if p < 0 {
		return false
	}
	victim := tb.tupleAt(int(p))
	tb.remove(p, h)
	tb.compact()
	tb.notify(OpDelete, victim)
	return true
}

// Delete removes every row unifiable with the pattern: fields in pattern
// that are non-nil must Equal the row's corresponding field; nil fields
// are wildcards. It returns the removed tuples.
func (tb *Table) Delete(pattern tuple.Tuple, now float64) []tuple.Tuple {
	tb.syncRead(now)
	tb.expireLocked(now)
	victims := tb.sweep(func(p int) bool { return matchPattern(tb.tupleAt(p), pattern) })
	var removed []tuple.Tuple
	if len(victims) > 0 {
		removed = slices.Clone(victims)
	}
	tb.notifyRemoved(victims)
	if tb.sync != nil {
		for _, t := range removed {
			tb.sync(SyncDeleted, now, t)
		}
	}
	return removed
}

// sweep removes every live row doomed reports true for, compacts if
// due, and returns the removed rows in slab order in the table-owned
// buffer, which notifyRemoved hands back. The buffer is taken, not
// shared: a listener that reads the table re-enters expiry.
func (tb *Table) sweep(doomed func(p int) bool) []tuple.Tuple {
	victims := tb.victims[:0]
	tb.victims = nil
	for p := tb.first; p < len(tb.slab); p++ {
		if !tb.slab[p].dead && doomed(p) {
			t := tb.tupleAt(p)
			victims = append(victims, t)
			tb.remove(int32(p), tb.keyOf(t))
		}
	}
	tb.compact()
	return victims
}

// notifyRemoved fires the delete listeners for the swept victims and
// returns the buffer for reuse.
func (tb *Table) notifyRemoved(victims []tuple.Tuple) {
	for _, t := range victims {
		tb.notify(OpDelete, t)
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

// Scan calls fn for every live row at time now, in insertion order. It
// walks the rows live when it began and skips those deleted before it
// reaches them: fn may insert and delete rows (a nested read can run an
// owner's sync), and a row inserted during the walk is not visited.
func (tb *Table) Scan(now float64, fn func(tuple.Tuple)) {
	tb.syncRead(now)
	tb.expireLocked(now)
	tb.reading++
	for p, end := tb.first, len(tb.slab); p < end; p++ {
		if !tb.slab[p].dead {
			fn(tb.tupleAt(p))
		}
	}
	tb.reading--
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
	tb.compact()
	if tb.spec.Lifetime < 0 || now < tb.soonest {
		return
	}
	next := math.Inf(1)
	victims := tb.sweep(func(p int) bool {
		e := tb.slab[p].expiry
		if e > now {
			next = min(next, e)
		}
		return e <= now
	})
	tb.soonest = next
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
	clear(tb.slab)
	tb.slab, tb.first, tb.count = tb.slab[:0], 0, 0
	if cap(tb.slab) >= 4*minSlots {
		tb.slab = nil
	}
	tb.soonest = math.Inf(1)
	tb.reindex()
	tb.notify(OpClear, tuple.Tuple{Name: tb.spec.Name})
}

// NextExpiry returns the earliest row expiry time, or +Inf when nothing
// expires. The engine uses it to schedule expiry sweeps.
func (tb *Table) NextExpiry() float64 {
	tb.syncRead(math.Inf(-1))
	next := math.Inf(1)
	for p := tb.first; p < len(tb.slab); p++ {
		if r := &tb.slab[p]; !r.dead {
			next = min(next, r.expiry)
		}
	}
	return next
}

// SizeBytes estimates the memory footprint of all live rows.
func (tb *Table) SizeBytes() int {
	tb.syncRead(math.Inf(-1))
	n := 0
	for p := tb.first; p < len(tb.slab); p++ {
		if !tb.slab[p].dead {
			n += tb.tupleAt(p).SizeBytes()
		}
	}
	return n
}

// Store is the per-node collection of tables.
type Store struct {
	// order lists tables in materialization order: whole-store sweeps
	// (ExpireAll) iterate it, so the cross-table order in which expiry
	// fires delete listeners is reproducible. A node holds a few dozen
	// tables, so Get walks it too.
	order []*Table
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{} }

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
	if tb := s.Get(spec.Name); tb != nil {
		return tb.spec.Conflicts(spec)
	}
	return nil
}

// Materialize creates (or returns the existing) table for the spec. A
// respecification with a different shape is an error: OverLog programs
// may be composed on-line, but a predicate's storage is declared once.
func (s *Store) Materialize(spec Spec) (*Table, error) {
	if tb := s.Get(spec.Name); tb != nil {
		if err := tb.spec.Conflicts(spec); err != nil {
			return nil, err
		}
		return tb, nil
	}
	tb := New(spec)
	s.order = append(s.order, tb)
	return tb, nil
}

// Drop removes a table from the store, discarding its rows, listeners and
// indexes without firing delete events: a dropped query's state simply
// vanishes, like the soft state of a dead process. Dropping an unknown
// name is a no-op.
func (s *Store) Drop(name string) {
	s.order = slices.DeleteFunc(s.order, func(tb *Table) bool { return tb.spec.Name == name })
}

// Get returns the table for a predicate, or nil if the predicate is not
// materialized (i.e. it is an event).
func (s *Store) Get(name string) *Table {
	for _, tb := range s.order {
		if tb.spec.Name == name {
			return tb
		}
	}
	return nil
}

// Names returns the materialized predicate names in sorted order.
func (s *Store) Names() []string {
	names := make([]string, len(s.order))
	for i, tb := range s.order {
		names[i] = tb.spec.Name
	}
	slices.Sort(names)
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
// A bucket holds the live rows whose indexed fields hash alike, in slab
// order, as a list linked through next and prev, which have one entry per
// slab position.
type index struct {
	positions []int
	// buckets is open-addressed by hash, at most three quarters full;
	// used counts the buckets in it.
	buckets    []bucket
	used       int
	next, prev []int32 // -1 ends a list
}

// bucket is a list's hash and ends, each end a position p held as p+1;
// first == 0 marks a free slot.
type bucket struct {
	h           uint64
	first, last int32
}

// slot returns the bucket slot for hash h: the bucket's, or the free
// slot that ends its probe (-1 with no array yet).
func (ix *index) slot(h uint64) int {
	mask := len(ix.buckets) - 1
	for i := int(h) & mask; mask >= 0; i = (i + 1) & mask {
		if b := &ix.buckets[i]; b.first == 0 || b.h == h {
			return i
		}
	}
	return -1
}

// push gives the next slab position its links and, for a live row with
// these fields, appends it to the tail of its bucket.
func (ix *index) push(fields []tuple.Value, live bool) {
	p := int32(len(ix.next))
	ix.next = append(ix.next, -1)
	ix.prev = append(ix.prev, -1)
	if !live {
		return
	}
	h := tuple.HashFieldsAt(fields, ix.positions)
	i := ix.slot(h)
	if i >= 0 && ix.buckets[i].first != 0 {
		b := &ix.buckets[i]
		ix.next[b.last-1], ix.prev[p] = p, b.last-1
		b.last = p + 1
		return
	}
	if ix.used++; ix.used*4 > len(ix.buckets)*3 {
		ix.rehash(slotsFor(ix.used))
		i = ix.slot(h)
	}
	ix.buckets[i] = bucket{h, p + 1, p + 1}
}

// rehash moves the buckets to a fresh array of n slots.
func (ix *index) rehash(n int) {
	old := ix.buckets
	ix.buckets = make([]bucket, n)
	for _, b := range old {
		if b.first != 0 {
			ix.buckets[ix.slot(b.h)] = b
		}
	}
}

// unlink takes position p (a row with these fields) out of its bucket.
// next[p] is left as it was, for a read standing on p.
func (ix *index) unlink(p int32, fields []tuple.Value) {
	prev, next := ix.prev[p], ix.next[p]
	if prev >= 0 {
		ix.next[prev] = next
	}
	if next >= 0 {
		ix.prev[next] = prev
	}
	if prev >= 0 && next >= 0 {
		return
	}
	i := ix.slot(tuple.HashFieldsAt(fields, ix.positions))
	b := &ix.buckets[i]
	if prev < 0 {
		b.first = next + 1
	}
	if next < 0 {
		b.last = prev + 1
	}
	if b.first == 0 {
		ix.free(i)
	}
}

// free empties bucket slot i, shifting back the buckets after it that
// the hole would cut off from the slot their hash picks.
func (ix *index) free(i int) {
	ix.used--
	mask := len(ix.buckets) - 1
	for j := i; ; i = j {
		ix.buckets[i] = bucket{}
		for {
			j = (j + 1) & mask
			if ix.buckets[j].first == 0 {
				return
			}
			if k := int(ix.buckets[j].h) & mask; (j-k)&mask >= (j-i)&mask {
				break
			}
		}
		ix.buckets[i] = ix.buckets[j]
	}
}

// fill rebuilds the index from the slab, giving back arrays at least
// four times what the rows need.
func (ix *index) fill(slab []row) {
	clear(ix.buckets)
	ix.used = 0
	if cap(ix.next) >= 4*max(len(slab), minSlots) {
		ix.next, ix.prev = nil, nil
	}
	ix.next, ix.prev = ix.next[:0], ix.prev[:0]
	for p := range slab {
		ix.push(slab[p].fields, !slab[p].dead)
	}
	if n := refit(len(ix.buckets), ix.used); n < len(ix.buckets) {
		ix.rehash(n)
	}
}

// EnsureIndex creates (or returns) a secondary index over the given
// 0-based field positions, backfilling it from live rows. The engine
// calls it once per distinct join access path; joins then probe buckets
// instead of scanning the table (P2's planner-created join indices).
func (tb *Table) EnsureIndex(positions []int) {
	tb.ensureIndex(positions)
}

// locSpec is the lone location specifier: no index is built over it.
func locSpec(positions []int) bool { return len(positions) == 1 && positions[0] == 0 }

func (tb *Table) ensureIndex(positions []int) *index {
	if locSpec(positions) {
		return nil
	}
	for _, ix := range tb.indexes {
		if slices.Equal(ix.positions, positions) {
			return ix
		}
	}
	ix := &index{positions: positions}
	ix.fill(tb.slab)
	tb.indexes = append(tb.indexes, ix)
	return ix
}

// MatchIndexed calls fn for every live row whose fields at the 0-based
// positions Equal values, in insertion order, probing the secondary
// index for those positions (created on first use). It returns the
// number of live rows in the probed bucket, hash collisions included, so
// callers can bill per-probe costs. A probe on the location specifier
// alone walks the slab instead and counts the rows an index would have
// put in the bucket. Like Scan, it skips rows deleted before it reaches
// them and does not visit rows inserted during the walk.
func (tb *Table) MatchIndexed(now float64, positions []int, values []tuple.Value, fn func(tuple.Tuple)) int {
	tb.syncRead(now)
	tb.expireLocked(now)
	if locSpec(positions) {
		return tb.matchLoc(positions, values, fn)
	}
	ix := tb.ensureIndex(positions)
	i := ix.slot(tuple.HashValues(values))
	if i < 0 || ix.buckets[i].first == 0 {
		return 0
	}
	visited := 0
	end := int32(len(tb.slab))
	tb.reading++
	for p := ix.buckets[i].first - 1; p >= 0 && p < end; p = ix.next[p] {
		r := &tb.slab[p]
		if r.dead {
			continue
		}
		visited++
		match := true
		for j, q := range positions {
			if q >= len(r.fields) || !r.fields[q].Equal(values[j]) {
				match = false
				break
			}
		}
		if match {
			fn(tb.tupleAt(int(p)))
		}
	}
	tb.reading--
	return visited
}

// matchLoc is MatchIndexed on field 0 alone (positions is [0]). A row
// is visited when its field 0 hashes like values[0], as an index bucket
// would hold it; when that is a string, an equal field settles it
// without hashing.
func (tb *Table) matchLoc(positions []int, values []tuple.Value, fn func(tuple.Tuple)) int {
	v, h := values[0], tuple.HashValues(values)
	str := v.Kind() == tuple.KindStr
	visited := 0
	tb.reading++
	for p, end := tb.first, len(tb.slab); p < end; p++ {
		r := &tb.slab[p]
		if r.dead {
			continue
		}
		eq := len(r.fields) > 0 && r.fields[0].Equal(v)
		if !(eq && str) && tuple.HashFieldsAt(r.fields, positions) != h {
			continue
		}
		visited++
		if eq {
			fn(tb.tupleAt(p))
		}
	}
	tb.reading--
	return visited
}
