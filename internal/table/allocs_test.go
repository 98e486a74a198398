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
