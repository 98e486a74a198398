package table

import (
	"fmt"
	"math"
	"slices"

	"p2go/internal/tuple"
)

// refTable is the table as it was before rows dropped their predicate
// name and the key map and index buckets became position arrays: Go
// maps keyed by hash, a per-row key chain, and an index over every
// probed position list, the location specifier alone included.
// FuzzTableMatchesRef holds Table to it. The comments below are the
// originals.

type refRow struct {
	t      tuple.Tuple
	expiry float64 // virtual seconds; +Inf = never
	next   int32   // next live position with the same primary-key hash, or -1
	dead   bool    // tombstone, until the slab compacts
}

// Table is a single soft-state table. Tables are not safe for concurrent
// use; the engine serializes all access within a node's event loop.
type refTable struct {
	spec Spec
	// slab holds the rows in insertion order; no live row precedes
	// slab[first].
	slab  []refRow
	first int
	keys  map[uint64]int32 // primary-key hash -> a live position with it
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
	indexes []*refIndex
	// victims is the reusable buffer in which Delete and expiry collect
	// the rows they remove before notifying listeners in slab order.
	victims []tuple.Tuple
	// sync, when set, is the owner's callback that brings the rows up to
	// date (see SetSync).
	sync SyncFunc
}

// SetSync makes the table a cache of state its owner keeps in a cheaper
// form: fn runs before every read and expiry, so the owner can insert
// the rows it has not materialised yet (Insert and DeleteKey do not call
// back), and after every row an explicit Delete removes, so the owner
// can forget it too. Readers see an ordinary table; a table nobody reads
// costs its owner no tuples. The execution tracer owns its reflection
// tables this way.
func (tb *refTable) SetSync(fn SyncFunc) { tb.sync = fn }

func (tb *refTable) syncRead(now float64) {
	if tb.sync != nil {
		tb.sync(SyncRead, now, tuple.Tuple{})
	}
}

// New creates an empty table from the given spec.
func newRef(spec Spec) *refTable {
	return &refTable{
		spec:    spec,
		keys:    make(map[uint64]int32),
		soonest: math.Inf(1),
	}
}

// Spec returns the table's declaration.
func (tb *refTable) Spec() Spec { return tb.spec }

// Name returns the predicate name stored in the table.
func (tb *refTable) Name() string { return tb.spec.Name }

// Count returns the number of live rows. Callers should Expire first if
// they need the count at a particular instant.
func (tb *refTable) Count() int {
	tb.syncRead(math.Inf(-1))
	return tb.count
}

// Subscribe registers a listener for subsequent changes and returns a
// handle for Unsubscribe. Listeners fire in subscription order.
func (tb *refTable) Subscribe(l Listener) int {
	tb.listenerID++
	tb.listeners = append(tb.listeners, listenerEnt{id: tb.listenerID, fn: l})
	return tb.listenerID
}

// Unsubscribe removes the listener registered under the given handle
// (a no-op for unknown handles). Query teardown uses it to detach
// incremental-aggregate accumulators from tables that outlive the query.
func (tb *refTable) Unsubscribe(id int) {
	for i, ent := range tb.listeners {
		if ent.id == id {
			tb.listeners = append(tb.listeners[:i:i], tb.listeners[i+1:]...)
			return
		}
	}
}

// NumListeners returns the number of registered listeners (tests use it
// to verify teardown).
func (tb *refTable) NumListeners() int { return len(tb.listeners) }

func (tb *refTable) notify(op Op, t tuple.Tuple) {
	for _, ent := range tb.listeners {
		ent.fn(op, t)
	}
}

func (tb *refTable) keyOf(t tuple.Tuple) uint64 {
	if len(tb.spec.Keys) == 0 {
		return t.Hash()
	}
	return t.KeyHash(tb.spec.Keys)
}

func (tb *refTable) sameKey(a, b tuple.Tuple) bool {
	if len(tb.spec.Keys) == 0 {
		return a.Equal(b)
	}
	return a.KeyEqual(b, tb.spec.Keys)
}

// find returns the position of the live row whose primary key (hash h)
// equals t's, or -1.
func (tb *refTable) find(t tuple.Tuple, h uint64) int32 {
	p, ok := tb.keys[h]
	for ok && p >= 0 {
		if tb.sameKey(tb.slab[p].t, t) {
			return p
		}
		p = tb.slab[p].next
	}
	return -1
}

// Insert adds t at virtual time now (seconds). It returns true if the
// table changed (new row or replacement), false if an identical row merely
// had its TTL refreshed. Name mismatches are rejected with an error.
// t is borrowed: a new or replacing row stores a copy of t.Fields (and
// listeners see that copy), a refresh copies nothing, so the caller may
// reuse the fields' storage once Insert returns.
func (tb *refTable) Insert(t tuple.Tuple, now float64) (bool, error) {
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
	if p >= 0 && tb.slab[p].t.Equal(t) {
		tb.slab[p].expiry = expiry // identical content: refresh TTL only
		return false, nil
	}
	t.Fields = slices.Clone(t.Fields)
	var gone tuple.Tuple // the row this insert replaces or evicts
	removed := p >= 0
	if removed {
		gone = tb.slab[p].t
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
// key map and every index.
func (tb *refTable) add(t tuple.Tuple, h uint64, expiry float64) {
	tb.slab = append(tb.slab, refRow{t: t, expiry: expiry})
	tb.linkKey(int32(len(tb.slab)-1), h)
	tb.count++
	for _, ix := range tb.indexes {
		ix.push(t, true)
	}
}

// linkKey puts position p at the head of the chain for primary-key hash h.
func (tb *refTable) linkKey(p int32, h uint64) {
	tb.slab[p].next = -1
	if q, ok := tb.keys[h]; ok {
		tb.slab[p].next = q
	}
	tb.keys[h] = p
}

// remove makes slab[p] (primary-key hash h) a tombstone and unlinks it
// from the key map and every index.
func (tb *refTable) remove(p int32, h uint64) {
	r := &tb.slab[p]
	r.dead = true
	tb.count--
	if q := tb.keys[h]; q == p {
		if r.next < 0 {
			delete(tb.keys, h)
		} else {
			tb.keys[h] = r.next
		}
	} else {
		for tb.slab[q].next != p {
			q = tb.slab[q].next
		}
		tb.slab[q].next = r.next
	}
	for _, ix := range tb.indexes {
		ix.unlink(p, r.t)
	}
}

// evictOldest removes the FIFO-oldest row, the first live one in the
// slab, and returns it; the just-inserted row (the last) stays, so when
// it is the only live row (MaxSize 0) nothing goes.
func (tb *refTable) evictOldest() (tuple.Tuple, bool) {
	for tb.slab[tb.first].dead {
		tb.first++
	}
	if tb.first == len(tb.slab)-1 {
		return tuple.Tuple{}, false
	}
	victim := tb.slab[tb.first].t
	tb.remove(int32(tb.first), tb.keyOf(victim))
	return victim, true
}

// compact squeezes the tombstones out of the slab once they outnumber
// live rows, unless a read is walking it; a compaction a read deferred
// happens at the next expiry check.
func (tb *refTable) compact() {
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
	tb.slab, tb.first = live, 0
	tb.reindex()
}

// reindex rebuilds the key map and every index from the slab.
func (tb *refTable) reindex() {
	clear(tb.keys)
	for p := range tb.slab {
		tb.linkKey(int32(p), tb.keyOf(tb.slab[p].t))
	}
	for _, ix := range tb.indexes {
		ix.fill(tb.slab)
	}
}

// DeleteKey removes the row whose primary key equals sample's, without
// scanning the table (used by the tracer's reference-counted flushes),
// and reports whether there was one. Insert replaces on an equal key, so
// at most one row can match.
func (tb *refTable) DeleteKey(sample tuple.Tuple) bool {
	h := tb.keyOf(sample)
	p := tb.find(sample, h)
	if p < 0 {
		return false
	}
	victim := tb.slab[p].t
	tb.remove(p, h)
	tb.compact()
	tb.notify(OpDelete, victim)
	return true
}

// Delete removes every row unifiable with the pattern: fields in pattern
// that are non-nil must Equal the row's corresponding field; nil fields
// are wildcards. It returns the removed tuples.
func (tb *refTable) Delete(pattern tuple.Tuple, now float64) []tuple.Tuple {
	tb.syncRead(now)
	tb.expireLocked(now)
	victims := tb.sweep(func(r *refRow) bool { return refMatchPattern(r.t, pattern) })
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
func (tb *refTable) sweep(doomed func(*refRow) bool) []tuple.Tuple {
	victims := tb.victims[:0]
	tb.victims = nil
	for p := tb.first; p < len(tb.slab); p++ {
		if r := &tb.slab[p]; !r.dead && doomed(r) {
			victims = append(victims, r.t)
			tb.remove(int32(p), tb.keyOf(r.t))
		}
	}
	tb.compact()
	return victims
}

// notifyRemoved fires the delete listeners for the swept victims and
// returns the buffer for reuse.
func (tb *refTable) notifyRemoved(victims []tuple.Tuple) {
	for _, t := range victims {
		tb.notify(OpDelete, t)
	}
	clear(victims)
	tb.victims = victims[:0]
}

func refMatchPattern(t, pattern tuple.Tuple) bool {
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
func (tb *refTable) Scan(now float64, fn func(tuple.Tuple)) {
	tb.syncRead(now)
	tb.expireLocked(now)
	tb.reading++
	for p, end := tb.first, len(tb.slab); p < end; p++ {
		if r := &tb.slab[p]; !r.dead {
			fn(r.t)
		}
	}
	tb.reading--
}

// Expire removes rows whose TTL elapsed by now, firing delete listeners
// in the rows' insertion order.
func (tb *refTable) Expire(now float64) {
	if tb.sync != nil {
		tb.sync(SyncExpire, now, tuple.Tuple{})
	}
	tb.expireLocked(now)
}

func (tb *refTable) expireLocked(now float64) {
	tb.compact()
	if tb.spec.Lifetime < 0 || now < tb.soonest {
		return
	}
	next := math.Inf(1)
	victims := tb.sweep(func(r *refRow) bool {
		if r.expiry <= now {
			return true
		}
		next = min(next, r.expiry)
		return false
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
func (tb *refTable) Clear() {
	clear(tb.slab)
	tb.slab, tb.first, tb.count = tb.slab[:0], 0, 0
	tb.soonest = math.Inf(1)
	tb.reindex()
	tb.notify(OpClear, tuple.Tuple{Name: tb.spec.Name})
}

// NextExpiry returns the earliest row expiry time, or +Inf when nothing
// expires. The engine uses it to schedule expiry sweeps.
func (tb *refTable) NextExpiry() float64 {
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
func (tb *refTable) SizeBytes() int {
	tb.syncRead(math.Inf(-1))
	n := 0
	for p := tb.first; p < len(tb.slab); p++ {
		if r := &tb.slab[p]; !r.dead {
			n += r.t.SizeBytes()
		}
	}
	return n
}

// index is a secondary hash index over a set of 0-based field positions.
// A bucket holds the live rows whose indexed fields hash alike, in slab
// order, as a list linked through next and prev, which have one entry per
// slab position.
type refIndex struct {
	positions  []int
	buckets    map[uint64]refBucket
	next, prev []int32 // -1 ends a list
}

type refBucket struct{ first, last int32 }

func (ix *refIndex) keyOfRow(t tuple.Tuple) uint64 {
	return tuple.HashFieldsAt(t.Fields, ix.positions)
}

// push gives the next slab position its links and, for a live row t,
// appends it to the tail of its bucket.
func (ix *refIndex) push(t tuple.Tuple, live bool) {
	p := int32(len(ix.next))
	ix.next = append(ix.next, -1)
	ix.prev = append(ix.prev, -1)
	if !live {
		return
	}
	k := ix.keyOfRow(t)
	b, ok := ix.buckets[k]
	if !ok {
		ix.buckets[k] = refBucket{p, p}
		return
	}
	ix.next[b.last], ix.prev[p] = p, b.last
	b.last = p
	ix.buckets[k] = b
}

// unlink takes position p (row t) out of its bucket. next[p] is left as
// it was, for a read standing on p.
func (ix *refIndex) unlink(p int32, t tuple.Tuple) {
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
	k := ix.keyOfRow(t)
	b := ix.buckets[k]
	if prev < 0 {
		b.first = next
	}
	if next < 0 {
		b.last = prev
	}
	if b.first < 0 {
		delete(ix.buckets, k)
	} else {
		ix.buckets[k] = b
	}
}

// fill rebuilds the index from the slab.
func (ix *refIndex) fill(slab []refRow) {
	clear(ix.buckets)
	ix.next, ix.prev = ix.next[:0], ix.prev[:0]
	for p := range slab {
		ix.push(slab[p].t, !slab[p].dead)
	}
}

// EnsureIndex creates (or returns) a secondary index over the given
// 0-based field positions, backfilling it from live rows. The engine
// calls it once per distinct join access path; joins then probe buckets
// instead of scanning the table (P2's planner-created join indices).
func (tb *refTable) EnsureIndex(positions []int) {
	tb.ensureIndex(positions)
}

func (tb *refTable) ensureIndex(positions []int) *refIndex {
	for _, ix := range tb.indexes {
		if slices.Equal(ix.positions, positions) {
			return ix
		}
	}
	ix := &refIndex{positions: positions, buckets: make(map[uint64]refBucket)}
	ix.fill(tb.slab)
	tb.indexes = append(tb.indexes, ix)
	return ix
}

// MatchIndexed calls fn for every live row whose fields at the 0-based
// positions Equal values, in insertion order, probing the secondary
// index for those positions (created on first use). It returns the
// number of live rows in the probed bucket, hash collisions included, so
// callers can bill per-probe costs. Like Scan, it skips rows deleted
// before it reaches them and does not visit rows inserted during the
// walk.
func (tb *refTable) MatchIndexed(now float64, positions []int, values []tuple.Value, fn func(tuple.Tuple)) int {
	tb.syncRead(now)
	tb.expireLocked(now)
	ix := tb.ensureIndex(positions)
	b, ok := ix.buckets[tuple.HashValues(values)]
	if !ok {
		return 0
	}
	visited := 0
	end := int32(len(tb.slab))
	tb.reading++
	for p := b.first; p >= 0 && p < end; p = ix.next[p] {
		r := &tb.slab[p]
		if r.dead {
			continue
		}
		visited++
		match := true
		for j, q := range positions {
			if q >= len(r.t.Fields) || !r.t.Fields[q].Equal(values[j]) {
				match = false
				break
			}
		}
		if match {
			fn(r.t)
		}
	}
	tb.reading--
	return visited
}
