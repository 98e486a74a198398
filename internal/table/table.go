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
// listeners see comes from the structure, not from a sort. A row is 32
// bytes: a pointer to its fields and their count (the slice is rebuilt
// on read), ID, expiry and tombstone flag; the predicate name is the
// table's, and every tuple handed out carries spec.Name.
//
// The primary key and every secondary index find rows through
// open-addressed arrays of slab positions, allocated on first insert and
// doubled when three quarters full. The key array holds each position
// near its key's hash; an index bucket keeps the full hash of its fields
// and the ends of a list of positions in slab order, linked through
// per-position arrays, so a new row costs at most one allocation (its
// copy of the fields) and a probe walks the bucket. A probe on the
// location specifier alone, which a node's rows usually all share, walks
// the slab.
//
// A row's field array is the table's. Once every listener (and, for
// Delete, the owner's SyncDeleted calls) has seen a row removed, the
// table clears its array and keeps it, one at a time, for the next
// insert to refill instead of allocating: a table whose rows are
// replaced, expire or are deleted about as fast as new ones arrive
// copies its rows without allocating.
//
// A join on the location alone followed by a ring-interval selection on
// one of the row's fields (Chord's FID in (NID, K)) probes with
// MatchRange first, which hands over only the rows in the interval, each
// with the number of rows the walk would have visited and rejected
// before it, so the caller bills exactly what the walk would. Its ring
// index, made on first use and kept in the same list as the hash
// indexes, holds the live rows' positions sorted by the field's ring
// position and a bit per slab position; a table that empties drops it
// until the next probe. When the index cannot stand for the walk (a
// row at another location, say), MatchRange says so and the join walks.
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
// memory back only when at least four times what the live rows need, and
// one sized to the slab keeps room for as many tombstones as rows.
package table

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

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
// table's stored row (never the caller's argument to Insert): its fields
// stay valid while the row is live, up to the end of its OpDelete
// notification. Then the table clears them and refills the array with a
// later row, so a listener that keeps a row past its removal keeps
// t.Clone().
type Listener func(op Op, t tuple.Tuple)

type listenerEnt struct {
	id int
	fn Listener
}

type row struct {
	data   *tuple.Value // the fields, n of them; nil in a tombstone
	id     uint64
	expiry float64 // virtual seconds; +Inf = never
	n      int32
	dead   bool // tombstone, until the slab compacts
}

func (r *row) fields() []tuple.Value { return unsafe.Slice(r.data, r.n) }

// Table is a single soft-state table. Tables are not safe for concurrent
// use; the engine serializes all access within a node's event loop.
type Table struct {
	spec Spec
	// slab holds the rows in insertion order; no live row precedes
	// slab[first].
	slab  []row
	first int32
	count int32
	// keys holds each slab position p as p+1 at or after the slot its
	// primary-key hash picks; 0 is a free slot, -1 a removed row's.
	keys []int32
	// reading counts the Scans and MatchIndexed walks in progress;
	// compaction waits for zero.
	reading    int32
	listenerID int32
	// spare, spareCap long, is a removed row's field array, cleared,
	// that the next insert refills (see keep); nil when there is none. A
	// pointer and a 32-bit length keep the header in its size class.
	spare     *tuple.Value
	spareCap  int32
	listeners []listenerEnt
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
	return int(tb.count)
}

// Subscribe registers a listener for subsequent changes and returns a
// handle for Unsubscribe. Listeners fire in subscription order.
func (tb *Table) Subscribe(l Listener) int {
	tb.listenerID++
	tb.listeners = append(tb.listeners, listenerEnt{id: int(tb.listenerID), fn: l})
	return int(tb.listenerID)
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
	return tuple.Tuple{Name: tb.spec.Name, Fields: r.fields(), ID: r.id}
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
// reuse the fields' storage once Insert returns. The copy refills the
// array of a row the table removed earlier when there is one; the row
// this insert replaces or evicts gives its array up after its OpDelete
// notification.
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
	t = tuple.Tuple{Name: tb.spec.Name, Fields: tb.refill(t.Fields), ID: t.ID}
	var gone tuple.Tuple // the row this insert replaces or evicts
	removed := p >= 0
	if removed {
		gone = tb.tupleAt(int(p))
		tb.remove(p, h)
	}
	tb.add(t, h, expiry)
	if !removed && tb.spec.MaxSize >= 0 && int(tb.count) > tb.spec.MaxSize {
		gone, removed = tb.evictOldest()
	}
	tb.compact()
	if removed {
		tb.notify(OpDelete, gone)
		tb.keep(gone.Fields)
	}
	tb.notify(OpInsert, t)
	return true, nil
}

// refill returns a copy of fields in the spare array when it is large
// enough, and in a new one otherwise.
func (tb *Table) refill(fields []tuple.Value) []tuple.Value {
	if tb.spare == nil || len(fields) == 0 || len(fields) > int(tb.spareCap) {
		return slices.Clone(fields)
	}
	f := unsafe.Slice(tb.spare, tb.spareCap)[:len(fields)]
	tb.spare = nil
	copy(f, fields)
	return f
}

// keep clears the field array of a row every listener has seen removed,
// so it pins no strings and a keeper that did not copy the row reads nil
// fields, and makes it the spare, in place of any other.
func (tb *Table) keep(fields []tuple.Value) {
	clear(fields)
	if len(fields) > 0 {
		tb.spare, tb.spareCap = unsafe.SliceData(fields), int32(len(fields))
	}
}

// add appends a live row at the end of the slab and links it into the
// key array and every index.
func (tb *Table) add(t tuple.Tuple, h uint64, expiry float64) {
	tb.slab = append(tb.slab, row{data: unsafe.SliceData(t.Fields), n: int32(len(t.Fields)), id: t.ID, expiry: expiry})
	if len(tb.slab)*4 > len(tb.keys)*3 {
		tb.rekey(slotsFor(len(tb.slab)))
	} else {
		tb.linkKey(int32(len(tb.slab)-1), h)
	}
	tb.count++
	for _, ix := range tb.indexes {
		ix.push(tb.slab, len(tb.slab)-1)
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

// room is the most slab positions a table of n live rows fills before
// it next compacts: the rows, as many tombstones, and the row that tips
// the balance. An array sized to the slab that gives memory back keeps
// this much, so a table that turns its rows over at a steady count does
// not grow it again before every compaction.
func room(n int) int { return 2*n + 1 }

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
// from the key array and every index. The tombstone drops its fields: the
// array is the removed row's until its listeners have seen it, then the
// spare's.
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
		ix.unlink(tb.slab, p)
	}
	r.data, r.n = nil, 0
}

// evictOldest removes the FIFO-oldest row, the first live one in the
// slab, and returns it; the just-inserted row (the last) stays, so when
// it is the only live row (MaxSize 0) nothing goes.
func (tb *Table) evictOldest() (tuple.Tuple, bool) {
	for tb.slab[tb.first].dead {
		tb.first++
	}
	if int(tb.first) == len(tb.slab)-1 {
		return tuple.Tuple{}, false
	}
	victim := tb.tupleAt(int(tb.first))
	tb.remove(tb.first, tb.keyOf(victim))
	return victim, true
}

// compact squeezes the tombstones out of the slab once they outnumber
// live rows, unless a read is walking it; a compaction a read deferred
// happens at the next expiry check.
func (tb *Table) compact() {
	if tb.reading > 0 || len(tb.slab)-int(tb.count) <= int(tb.count) {
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
		live = append(make([]row, 0, room(len(live))), live...)
	}
	tb.slab, tb.first = live, 0
	tb.reindex()
}

// reindex rebuilds the key array, which holds slab positions, and every
// index from the slab.
func (tb *Table) reindex() {
	tb.rekey(refit(len(tb.keys), room(int(tb.count))))
	if tb.count == 0 { // a ring index is rebuilt when next probed
		tb.indexes = slices.DeleteFunc(tb.indexes, func(ix *index) bool { return ix.ring != nil })
	}
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
	tb.keep(victim.Fields)
	return true
}

// Delete removes every row unifiable with the pattern: fields in pattern
// that are non-nil must Equal the row's corresponding field; nil fields
// are wildcards. It returns how many rows it removed. The delete
// listeners, then the owner's SyncDeleted calls, see each removed row.
func (tb *Table) Delete(pattern tuple.Tuple, now float64) int {
	tb.syncRead(now)
	tb.expireLocked(now)
	victims := tb.sweep(func(p int) bool { return matchPattern(tb.tupleAt(p), pattern) })
	tb.notifyRemoved(victims)
	if tb.sync != nil {
		for _, t := range victims {
			tb.sync(SyncDeleted, now, t)
		}
	}
	n := len(victims)
	tb.recycle(victims)
	return n
}

// sweep removes every live row doomed reports true for, compacts if
// due, and returns the removed rows in slab order in the table-owned
// buffer, which recycle hands back. The buffer is taken, not
// shared: a listener that reads the table re-enters expiry.
func (tb *Table) sweep(doomed func(p int) bool) []tuple.Tuple {
	victims := tb.victims[:0]
	tb.victims = nil
	for p := int(tb.first); p < len(tb.slab); p++ {
		if !tb.slab[p].dead && doomed(p) {
			t := tb.tupleAt(p)
			victims = append(victims, t)
			tb.remove(int32(p), tb.keyOf(t))
		}
	}
	tb.compact()
	return victims
}

// notifyRemoved fires the delete listeners for the swept victims.
func (tb *Table) notifyRemoved(victims []tuple.Tuple) {
	for _, t := range victims {
		tb.notify(OpDelete, t)
	}
}

// recycle gives up the swept victims' field arrays, keeping the last as
// the spare, then clears their buffer and returns it for reuse.
func (tb *Table) recycle(victims []tuple.Tuple) {
	for _, t := range victims {
		tb.keep(t.Fields)
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
	for p, end := int(tb.first), len(tb.slab); p < end; p++ {
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
	tb.recycle(victims)
}

// Clear drops every row WITHOUT firing per-row delete listeners: it
// models the soft-state loss of a process death (a crashed node emits no
// delete events — its state simply vanishes), which is what the fault
// injector's restart-with-amnesia needs. Secondary indexes keep their
// definitions but lose their rows, and the spare array goes too. A single
// OpClear notification fires after the wipe so subscribers holding
// derived state (incremental aggregate accumulators) can invalidate it.
func (tb *Table) Clear() {
	clear(tb.slab)
	tb.slab, tb.first, tb.count = tb.slab[:0], 0, 0
	tb.spare = nil
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
	for p := int(tb.first); p < len(tb.slab); p++ {
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
	for p := int(tb.first); p < len(tb.slab); p++ {
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
// slab position. An index whose ring is set is a ring index instead (see
// ring), and uses none of the other fields.
type index struct {
	positions []int
	// buckets is open-addressed by hash, at most three quarters full;
	// used counts the buckets in it.
	buckets    []bucket
	used       int
	next, prev []int32 // -1 ends a list
	ring       *ring
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

// push gives slab position p, the next one, its links and, for a live
// row, appends it to the tail of its bucket.
func (ix *index) push(slab []row, pos int) {
	if ix.ring != nil {
		ix.ring.push(slab, pos)
		return
	}
	p := int32(pos)
	ix.next = append(ix.next, -1)
	ix.prev = append(ix.prev, -1)
	if slab[p].dead {
		return
	}
	h := tuple.HashFieldsAt(slab[p].fields(), ix.positions)
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

// unlink takes position p out of its bucket. next[p] is left as it was,
// for a read standing on p.
func (ix *index) unlink(slab []row, p int32) {
	if ix.ring != nil {
		ix.ring.unlink(slab, p)
		return
	}
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
	i := ix.slot(tuple.HashFieldsAt(slab[p].fields(), ix.positions))
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
	if ix.ring != nil {
		ix.ring.fill(slab)
		return
	}
	clear(ix.buckets)
	ix.used = 0
	if cap(ix.next) >= 4*max(len(slab), minSlots) {
		ix.next, ix.prev = make([]int32, 0, room(len(slab))), make([]int32, 0, room(len(slab)))
	}
	ix.next, ix.prev = ix.next[:0], ix.prev[:0]
	for p := range slab {
		ix.push(slab, p)
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
		if ix.ring == nil && slices.Equal(ix.positions, positions) {
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
		match, fields := true, r.fields()
		for j, q := range positions {
			if q >= len(fields) || !fields[q].Equal(values[j]) {
				match = false
				break
			}
		}
		if match {
			fn(tuple.Tuple{Name: tb.spec.Name, Fields: fields, ID: r.id})
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
	for p, end := int(tb.first), len(tb.slab); p < end; p++ {
		r := &tb.slab[p]
		if r.dead {
			continue
		}
		fields := r.fields()
		eq := len(fields) > 0 && fields[0].Equal(v)
		if !(eq && str) && tuple.HashFieldsAt(fields, positions) != h {
			continue
		}
		visited++
		if eq {
			fn(tuple.Tuple{Name: tb.spec.Name, Fields: fields, ID: r.id})
		}
	}
	tb.reading--
	return visited
}

// Range is a ring-interval selection on one field of rows of one arity,
// as OverLog's `in` tests it (tuple.InInterval).
type Range struct {
	field, arity int
	from, to     uint64 // the arc tuple.RingArc gives
	ok           bool   // false: the interval holds no position
}

// NewRange returns the selection of rows of the given arity whose field
// (a 0-based position past the location) lies in the interval from lo
// to hi, each end open or closed.
func NewRange(field, arity int, lo, hi tuple.Value, loOpen, hiOpen bool) Range {
	from, to, ok := tuple.RingArc(lo, hi, loOpen, hiOpen)
	return Range{field: field, arity: arity, from: from, to: to, ok: ok}
}

// MatchRange is MatchIndexed on the location specifier alone, loc its
// value, for a join followed by the selection r, when a ring index can
// stand for the walk: fn gets only the rows r keeps, each with the
// number of visited rows r rejected since the one before, and
// MatchRange returns the visited count MatchIndexed would, the number
// rejected after the last row, and true. A caller bills a rejected row
// what the selection would have cost it, in the walk's order, without
// ever binding it.
//
// The ring index over r's field is made on first use and kept like a
// secondary index. It answers when the table is not filled on read,
// every live row has location loc, r's arity and a number in the field,
// and no more rows than a probe sorts on the stack lie in range.
// Otherwise MatchRange hands over nothing and returns false, and the
// caller walks with MatchIndexed.
func (tb *Table) MatchRange(now float64, loc tuple.Value, r *Range, fn func(t tuple.Tuple, passed int)) (visited, passed int, ok bool) {
	if tb.sync != nil {
		return 0, 0, false
	}
	tb.expireLocked(now)
	if tb.count == 0 {
		return 0, 0, true
	}
	rg := tb.ensureRing(r.field)
	if !rg.answers(tb.slab, loc, r.arity) {
		return 0, 0, false
	}
	var hits [ringHits]int32
	n, ok := rg.inRange(tb.slab, r, hits[:0])
	if !ok {
		return 0, 0, false
	}
	visited, passed = tb.probeRing(rg, n, fn)
	return visited, passed, true
}

// ringHits is the most rows in range a ring probe sorts, on the stack.
// Each row handed over runs the rest of a rule, so a probe that hands
// over more spends little on walking the rows it passes over instead.
const ringHits = 32

// ensureRing returns the ring index over field, backfilling a new one
// from the slab.
func (tb *Table) ensureRing(field int) *ring {
	for _, ix := range tb.indexes {
		if ix.ring != nil && int(ix.ring.field) == field {
			return ix.ring
		}
	}
	both := &struct {
		ix index
		rg ring
	}{} // one allocation
	ix := &both.ix
	ix.ring, both.rg.field = &both.rg, int32(field)
	ix.fill(tb.slab)
	tb.indexes = append(tb.indexes, ix)
	return ix.ring
}

// probeRing hands fn the rows in range, in slab order, each that is
// still live when reached, with the number of live rows between it and
// the one before: the rows the walk would have rejected, counted when
// it would have reached them.
func (tb *Table) probeRing(rg *ring, hits []int32, fn func(tuple.Tuple, int)) (visited, passed int) {
	end := int32(len(tb.slab))
	tb.reading++
	next := tb.first
	for _, p := range hits {
		if tb.slab[p].dead {
			continue
		}
		n := rg.liveIn(next, p)
		visited += n + 1
		fn(tb.tupleAt(int(p)), n)
		next = p + 1
	}
	passed = rg.liveIn(next, end)
	tb.reading--
	return visited + passed, passed
}

// ring is a ring index: the live rows sorted by one field's position on
// the ring (tuple.Value.AsRing), for the interval selections MatchRange
// answers, and a bit per slab position marking the live ones, which
// counts the rows between two in slab order. The sorted rows share the
// location and arity of the first and hold a number in the field; odd
// counts the other live rows, and while there are any MatchRange does
// not answer. A row's key is read from the slab, not kept.
type ring struct {
	field int32
	odd   int32
	order []int32 // sorted rows' positions, by ring position, then position
	live  []uint64
	// word and slots hold live and order while they fit: a table of up
	// to 64 positions and 32 rows costs no allocation but the index's.
	word  [1]uint64
	slots [32]int32
}

func (rg *ring) key(slab []row, p int32) uint64 { return slab[p].fields()[rg.field].AsRing() }

// answers reports whether the index stands for a walk of the rows at loc
// by a selection over rows of the given arity.
func (rg *ring) answers(slab []row, loc tuple.Value, arity int) bool {
	if rg.odd > 0 || len(rg.order) == 0 || loc.Kind() != tuple.KindStr {
		return false
	}
	first := slab[rg.order[0]].fields()
	return len(first) == arity && loc.Equal(first[0])
}

// sorts reports whether a live row with these fields belongs in order:
// it has the location and arity of the sorted rows, a string, and a
// number in the field.
func (rg *ring) sorts(slab []row, fields []tuple.Value) bool {
	if int(rg.field) >= len(fields) || fields[0].Kind() != tuple.KindStr || !fields[rg.field].Numeric() {
		return false
	}
	if len(rg.order) == 0 {
		return true
	}
	first := slab[rg.order[0]].fields()
	return len(fields) == len(first) && fields[0].Equal(first[0])
}

// enter marks slab position p, the next one, and reports whether it
// holds a live row that belongs in order; a live row that does not is
// counted odd.
func (rg *ring) enter(slab []row, p int) bool {
	if p/64 == len(rg.live) {
		rg.live = append(rg.live, 0)
	}
	r := &slab[p]
	if r.dead {
		return false
	}
	rg.live[p/64] |= 1 << (p % 64)
	if rg.sorts(slab, r.fields()) {
		return true
	}
	rg.odd++
	return false
}

// search returns the first index in order whose row sorts at or after
// ring position k and slab position p.
func (rg *ring) search(slab []row, k uint64, p int32) int {
	lo, hi := 0, len(rg.order)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		q := rg.order[m]
		if kq := rg.key(slab, q); kq < k || kq == k && q < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (rg *ring) push(slab []row, p int) {
	if rg.enter(slab, p) {
		i := rg.search(slab, rg.key(slab, int32(p)), int32(p))
		rg.order = slices.Insert(rg.order, i, int32(p))
	}
}

func (rg *ring) unlink(slab []row, p int32) {
	rg.live[p/64] &^= 1 << (p % 64)
	if fields := slab[p].fields(); int(rg.field) < len(fields) && fields[rg.field].Numeric() {
		if i := rg.search(slab, fields[rg.field].AsRing(), p); i < len(rg.order) && rg.order[i] == p {
			rg.order = slices.Delete(rg.order, i, i+1)
			return
		}
	}
	rg.odd--
}

// fill rebuilds the index from the slab, sizing order to the live rows
// and giving back arrays at least four times what they need.
func (rg *ring) fill(slab []row) {
	live := 0
	for p := range slab {
		if !slab[p].dead {
			live++
		}
	}
	switch c := cap(rg.order); {
	case live <= len(rg.slots):
		rg.order = rg.slots[:0]
	case c < live || c >= 4*live:
		rg.order = make([]int32, 0, live)
	}
	if words, c := (len(slab)+63)/64, cap(rg.live); c < words || c >= 4*max(words, 2) {
		rg.live = rg.word[:0]
		if n := (room(len(slab)) + 63) / 64; n > len(rg.word) {
			rg.live = make([]uint64, 0, n)
		}
	}
	rg.order, rg.odd, rg.live = rg.order[:0], 0, rg.live[:0]
	for p := range slab {
		if rg.enter(slab, p) {
			rg.order = append(rg.order, int32(p))
		}
	}
	slices.SortFunc(rg.order, func(a, b int32) int {
		if c := cmp.Compare(rg.key(slab, a), rg.key(slab, b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// inRange appends to hits the positions of the sorted rows r does not
// reject, in slab order, or reports false when there are more than hits
// holds.
func (rg *ring) inRange(slab []row, r *Range, hits []int32) ([]int32, bool) {
	if !r.ok {
		return hits, true
	}
	// The rows in range are order[i:j], and order[:k] when the arc
	// wraps past 0 (from > to).
	i, j, k := rg.search(slab, r.from, 0), len(rg.order), 0
	switch {
	case r.from > r.to:
		k = rg.search(slab, r.to+1, 0)
	case r.to < math.MaxUint64:
		j = rg.search(slab, r.to+1, 0)
	}
	if j-i+k > cap(hits)-len(hits) {
		return hits, false
	}
	hits = append(append(hits, rg.order[i:j]...), rg.order[:k]...)
	slices.Sort(hits)
	return hits, true
}

// liveIn counts the live rows at slab positions a through b-1.
func (rg *ring) liveIn(a, b int32) int {
	n := 0
	for a < b {
		off := a % 64
		w := rg.live[a/64] >> off
		if span := b - a; span < 64-off {
			return n + bits.OnesCount64(w&(1<<span-1))
		}
		n += bits.OnesCount64(w)
		a += 64 - off
	}
	return n
}
