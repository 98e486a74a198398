//go:build !race

package table

import (
	"runtime"
	"testing"

	"p2go/internal/tuple"
)

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestReadAfterWritesAllocs: a read never copies a bucket or a row
// snapshot, so MatchIndexed and Scan allocate nothing, also right after
// replacements, key deletes and expiry have left tombstones behind.
func TestReadAfterWritesAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tb := fingers(160, 50)
	pos, vals := []int{0}, []tuple.Value{tuple.Str("n1")}
	probe := func() { tb.MatchIndexed(float64(0), pos, vals, func(tuple.Tuple) {}) }
	probe()
	tb.Scan(0, func(tuple.Tuple) {})
	for round := 0; round < 200; round++ {
		now := float64(round)
		switch round % 3 {
		case 0: // replace a row: same key, new address
			tb.Insert(finger(round%160, string(rune('a'+round%26))), now) //nolint:errcheck
		case 1: // delete one and insert a fresh key
			tb.DeleteKey(finger(round%160, ""))
			tb.Insert(finger(160+round, "f"), now) //nolint:errcheck
		case 2: // let the rows inserted 50 s ago expire
			tb.Expire(now)
		}
		if n := mallocs(func() { tb.MatchIndexed(now, pos, vals, func(tuple.Tuple) {}) }); n != 0 {
			t.Fatalf("round %d: MatchIndexed allocated %d objects, want 0", round, n)
		}
		if n := mallocs(func() { tb.Scan(now, func(tuple.Tuple) {}) }); n != 0 {
			t.Fatalf("round %d: Scan allocated %d objects, want 0", round, n)
		}
	}
}

// TestInsertNewKeyAllocs: a new key costs the row's copy of its fields
// and nothing per key besides; the slab, the key map and the index
// buckets grow amortised.
func TestInsertNewKeyAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tb := fingers(1000, Infinity)
	tb.EnsureIndex([]int{0})
	tb.EnsureIndex([]int{2})
	rows := make([]tuple.Tuple, 4000)
	for i := range rows {
		rows[i] = finger(1000+i, "f")
	}
	n := mallocs(func() {
		for _, r := range rows {
			tb.Insert(r, 0) //nolint:errcheck
		}
	})
	// testing.AllocsPerRun would truncate the mean to a whole number.
	if got := float64(n) / float64(len(rows)); got > 1.05 {
		t.Errorf("new-key Insert allocates %v objects, want <= 1.05", got)
	}
}

// TestInsertAllocs: a row the table stores refills the field array of
// one it removed, so at steady state a replacement, an insert after an
// expiry, an insert after a Delete and an insert that evicts at MaxSize
// allocate nothing. A table holding no removed row's array (fresh, or
// emptied by Clear, which drops it) pays a new row its one copy.
func TestInsertAllocs(t *testing.T) {
	spec := Spec{Name: "finger", Lifetime: Infinity, MaxSize: Infinity, Keys: []int{2}}
	rows := make([]tuple.Tuple, 256)
	for i := range rows {
		rows[i] = finger(i, "f")
	}
	patterns := make([]tuple.Tuple, len(rows))
	for i, r := range rows {
		patterns[i] = tuple.New("finger", r.Fields[0], r.Fields[1], tuple.Value{}, tuple.Value{})
	}
	flip := []tuple.Tuple{finger(7, "a"), finger(7, "b")}
	for _, c := range []struct {
		name string
		spec func(Spec) Spec
		// step makes the i-th insert of the case, with what removes a row.
		step func(tb *Table, i int)
	}{
		{"replace", nil, func(tb *Table, i int) {
			tb.Insert(flip[i%2], 0) //nolint:errcheck
		}},
		{"expire", func(s Spec) Spec { s.Lifetime = 1; return s }, func(tb *Table, i int) {
			tb.Insert(rows[i%len(rows)], float64(2*i)) //nolint:errcheck
		}},
		{"delete", nil, func(tb *Table, i int) {
			tb.Delete(patterns[(i+len(rows)-1)%len(rows)], 0)
			tb.Insert(rows[i%len(rows)], 0) //nolint:errcheck
		}},
		{"evict", func(s Spec) Spec { s.MaxSize = 16; return s }, func(tb *Table, i int) {
			tb.Insert(rows[i%len(rows)], 0) //nolint:errcheck
		}},
	} {
		sp := spec
		if c.spec != nil {
			sp = c.spec(spec)
		}
		tb := New(sp)
		tb.EnsureIndex([]int{0, 2})
		for i := range 2 * len(rows) { // warm: slab, key array, buckets, victims
			c.step(tb, i)
		}
		i := 2 * len(rows)
		if got := testing.AllocsPerRun(1000, func() { c.step(tb, i); i++ }); got != 0 {
			t.Errorf("%s: %v allocs per insert at steady state, want 0", c.name, got)
		}
	}

	tb := New(spec)
	tb.Insert(rows[0], 0) //nolint:errcheck
	tb.DeleteKey(rows[0])
	if n := mallocs(func() { tb.Clear(); tb.Insert(rows[1], 0) }); n == 0 { //nolint:errcheck
		t.Error("a row after Clear refilled the array of one removed before it")
	}
	if got := testing.AllocsPerRun(100, func() {
		tb.Clear()
		tb.Insert(rows[1], 0) //nolint:errcheck
	}); got != 1 {
		t.Errorf("a row after Clear: %v allocs, want 1 (its copy)", got)
	}
}
