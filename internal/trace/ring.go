package trace

import (
	"math"

	"p2go/internal/table"
	"p2go/internal/tuple"
)

// ring stands in for one bounded soft-state reflection table on the
// tracer's write path: typed records in append order, at most max live
// ones (the oldest is evicted), each dying ttl seconds after the time it
// was appended at — the bounds table.Table enforces on rows, enforced
// here on structs, so appending allocates nothing and hashes nothing.
//
// The table tb is a cache of the ring, brought up to date when somebody
// reads it (table.SetSync): fill inserts the records appended since the
// previous read, each at its own time so the row expires when the record
// does, and a record that dies after its row was built takes the row
// with it. At every read the table therefore holds exactly the live
// records, in append order.
//
// A slot is its append time and the record, nothing else: whether it
// died out of turn is a bit in dead, so a flag costs no padded word.
type ring[T any] struct {
	buf     []slot[T] // circular
	dead    []uint64  // bit p: buf[p] was replaced or deleted before its turn; skipped everywhere
	head, n int       // oldest slot, slots held
	base    uint64    // sequence number of the oldest slot; the first record is 1
	live    int       // slots not dead; the oldest slot is never dead
	max     int       // table.Spec.MaxSize
	ttl     float64   // table.Spec.Lifetime
	soonest float64   // lower bound on the earliest expiry of a live record
	sorted  bool      // append times are nondecreasing: the oldest live record expires first

	tb     *table.Table
	built  uint64 // records up to this sequence number have had their row inserted
	row    func(seq uint64, at float64, rec *T) tuple.Tuple
	onDrop func(rec *T) // a live record died; nil if nothing hangs off records
}

type slot[T any] struct {
	at  float64 // append time; the record expires at at+ttl
	rec T
}

func newRing[T any](tb *table.Table, row func(uint64, float64, *T) tuple.Tuple, onDrop func(*T)) ring[T] {
	spec := tb.Spec()
	return ring[T]{
		base: 1, max: spec.MaxSize, ttl: spec.Lifetime, soonest: math.Inf(1), sorted: true,
		tb: tb, row: row, onDrop: onDrop,
	}
}

// pos returns the position in buf of the i-th oldest slot.
func (r *ring[T]) pos(i int) int {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// nth returns the i-th oldest slot.
func (r *ring[T]) nth(i int) *slot[T] { return &r.buf[r.pos(i)] }

func (r *ring[T]) isDead(p int) bool { return r.dead[p/64]&(1<<(p%64)) != 0 }

// find returns the position in buf of the record numbered seq, or -1
// once it has left the ring (and for 0, which numbers no record).
func (r *ring[T]) find(seq uint64) int {
	if seq < r.base || seq >= r.base+uint64(r.n) {
		return -1
	}
	return r.pos(int(seq - r.base))
}

// slot returns the record numbered seq and whether it died out of turn,
// or nil once it has left the ring.
func (r *ring[T]) slot(seq uint64) (*slot[T], bool) {
	p := r.find(seq)
	if p < 0 {
		return nil, false
	}
	return &r.buf[p], r.isDead(p)
}

// push appends a record at time at and returns its sequence number,
// evicting the oldest record when that exceeds the bound. Like
// table.Insert it never evicts the record it just added, so a bound of 0
// holds one. The caller expires first, as table.Insert does.
func (r *ring[T]) push(at float64, rec T) uint64 {
	if r.n == len(r.buf) {
		r.grow()
	}
	if r.n > 0 && at < r.nth(r.n-1).at {
		r.sorted = false
	}
	seq := r.base + uint64(r.n)
	*r.nth(r.n) = slot[T]{at: at, rec: rec}
	r.n++
	r.live++
	if r.ttl >= 0 && at+r.ttl < r.soonest {
		r.soonest = at + r.ttl
	}
	if r.max >= 0 && r.live > max(r.max, 1) {
		r.kill(r.base)
	}
	return seq
}

// grow doubles the buffer, stopping at the size a full ring needs; only
// records killed out of turn, which wait in place for the head to reach
// them, can push it past that.
func (r *ring[T]) grow() {
	size := max(2*len(r.buf), 16)
	if full := r.max + 1; r.max >= 0 && len(r.buf) < full && size > full {
		size = full
	}
	buf, dead := make([]slot[T], size), make([]uint64, (size+63)/64)
	for i := 0; i < r.n; i++ {
		p := r.pos(i)
		buf[i] = r.buf[p]
		if r.isDead(p) {
			dead[i/64] |= 1 << (i % 64)
		}
	}
	r.buf, r.dead, r.head = buf, dead, 0
}

// expire kills the records whose lifetime ended by now, as
// table.Table's expiry does for rows.
func (r *ring[T]) expire(now float64) {
	if r.ttl < 0 || now < r.soonest {
		return
	}
	soonest, sorted, last := math.Inf(1), true, math.Inf(-1)
	for i := 0; i < r.n; i++ {
		p := r.pos(i)
		if r.isDead(p) {
			continue
		}
		s := &r.buf[p]
		if s.at+r.ttl <= now {
			r.drop(r.base+uint64(i), p)
			continue
		}
		if r.sorted {
			// Nothing behind the oldest survivor is due.
			soonest = s.at + r.ttl
			break
		}
		soonest = min(soonest, s.at+r.ttl)
		sorted = sorted && s.at >= last
		last = s.at
	}
	r.soonest = soonest
	r.sorted = r.sorted || sorted
	r.trim()
}

// kill removes one live record out of turn: a replaced key, an explicit
// delete, or the oldest record on eviction.
func (r *ring[T]) kill(seq uint64) {
	if p := r.find(seq); p >= 0 && !r.isDead(p) {
		r.drop(seq, p)
		r.trim()
	}
}

// drop kills the live record numbered seq at position p. Its row, if
// built, goes first, while what the record refers to is still there;
// then onDrop releases that.
func (r *ring[T]) drop(seq uint64, p int) {
	s := &r.buf[p]
	r.dead[p/64] |= 1 << (p % 64)
	r.live--
	if seq <= r.built {
		r.tb.DeleteKey(r.row(seq, s.at, &s.rec))
	}
	if r.onDrop != nil {
		r.onDrop(&s.rec)
	}
}

// trim pops dead slots off the head.
func (r *ring[T]) trim() {
	for r.n > 0 && r.isDead(r.head) {
		r.buf[r.head] = slot[T]{}
		r.dead[r.head/64] &^= 1 << (r.head % 64)
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
		r.n--
		r.base++
	}
	if r.n == 0 {
		r.sorted = true
	}
}

// sync is the ring's half of table.SyncFunc: age to now, and before a
// read build the rows of the records appended since the last one.
func (r *ring[T]) sync(op table.SyncOp, now float64) {
	r.expire(now)
	if op != table.SyncRead {
		return
	}
	first, end := max(r.built+1, r.base), r.base+uint64(r.n)
	r.built = end - 1 // first: an insert listener that reads the table lands here again
	for seq := first; seq < end; seq++ {
		if s, dead := r.slot(seq); !dead {
			r.tb.Insert(r.row(seq, s.at, &s.rec), s.at) //nolint:errcheck // row names the table
		}
	}
}

// reset forgets every record without dropping it (the owner wipes what
// hung off them) and restarts the numbering; the caller clears the table.
func (r *ring[T]) reset() {
	clear(r.buf)
	clear(r.dead)
	r.head, r.n, r.live = 0, 0, 0
	r.base, r.built = 1, 0
	r.soonest, r.sorted = math.Inf(1), true
}
