package table

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"p2go/internal/tuple"
)

func succ(loc string, id uint64, addr string) tuple.Tuple {
	return tuple.New("succ", tuple.Str(loc), tuple.ID(id), tuple.Str(addr))
}

func TestInsertAndCount(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: Infinity, MaxSize: Infinity, Keys: []int{2}})
	changed, err := tb.Insert(succ("n1", 10, "n2"), 0)
	if err != nil || !changed {
		t.Fatalf("insert: changed=%v err=%v", changed, err)
	}
	if tb.Count() != 1 {
		t.Fatalf("count = %d", tb.Count())
	}
	if _, err := tb.Insert(tuple.New("other", tuple.Str("n1")), 0); err == nil {
		t.Error("wrong-name insert must fail")
	}
}

func TestPrimaryKeyReplacement(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: Infinity, MaxSize: Infinity, Keys: []int{2}})
	var events []string
	tb.Subscribe(func(op Op, tp tuple.Tuple) {
		if op == OpInsert {
			events = append(events, "ins:"+tp.Field(2).AsStr())
		} else {
			events = append(events, "del:"+tp.Field(2).AsStr())
		}
	})
	tb.Insert(succ("n1", 10, "n2"), 0)
	// Same key (ID 10), different addr: replaces.
	tb.Insert(succ("n1", 10, "n3"), 0)
	if tb.Count() != 1 {
		t.Fatalf("count = %d, want 1 after replacement", tb.Count())
	}
	want := []string{"ins:n2", "del:n2", "ins:n3"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestIdenticalInsertRefreshesWithoutNotify(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: 10, MaxSize: Infinity, Keys: []int{2}})
	fired := 0
	tb.Subscribe(func(Op, tuple.Tuple) { fired++ })
	tb.Insert(succ("n1", 10, "n2"), 0)
	changed, _ := tb.Insert(succ("n1", 10, "n2"), 8)
	if changed {
		t.Error("identical insert must report unchanged")
	}
	if fired != 1 {
		t.Errorf("listeners fired %d times, want 1", fired)
	}
	// TTL was refreshed at t=8, so the row survives t=12 ...
	tb.Expire(12)
	if tb.Count() != 1 {
		t.Error("row must survive after refresh")
	}
	// ... but not t=19.
	tb.Expire(19)
	if tb.Count() != 0 {
		t.Error("row must expire 10s after refresh")
	}
}

func TestExpiryFiresDeleteListeners(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: 5, MaxSize: Infinity, Keys: []int{2}})
	deletes := 0
	tb.Subscribe(func(op Op, tp tuple.Tuple) {
		if op == OpDelete {
			deletes++
		}
	})
	tb.Insert(succ("n1", 1, "a"), 0)
	tb.Insert(succ("n1", 2, "b"), 3)
	tb.Expire(5.5)
	if tb.Count() != 1 || deletes != 1 {
		t.Errorf("count=%d deletes=%d, want 1/1", tb.Count(), deletes)
	}
	if e := tb.NextExpiry(); e != 8 {
		t.Errorf("NextExpiry = %v, want 8", e)
	}
}

func TestFIFOEviction(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: Infinity, MaxSize: 3, Keys: []int{2}})
	for i := uint64(1); i <= 5; i++ {
		tb.Insert(succ("n1", i, "a"), 0)
	}
	if tb.Count() != 3 {
		t.Fatalf("count = %d, want 3", tb.Count())
	}
	// Oldest rows (IDs 1, 2) must have been evicted.
	var ids []uint64
	tb.Scan(0, func(tp tuple.Tuple) { ids = append(ids, tp.Field(1).AsID()) })
	want := []uint64{3, 4, 5}
	for i, id := range ids {
		if id != want[i] {
			t.Fatalf("surviving ids = %v, want %v", ids, want)
		}
	}
}

// TestFIFOEvictionBoundZero: the row just inserted is never the victim,
// so a bound of 0 holds the newest row (and evicts it on the next insert).
func TestFIFOEvictionBoundZero(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: Infinity, MaxSize: 0, Keys: []int{2}})
	var deleted []uint64
	tb.Subscribe(func(op Op, tp tuple.Tuple) {
		if op == OpDelete {
			deleted = append(deleted, tp.Field(1).AsID())
		}
	})
	for i := uint64(1); i <= 3; i++ {
		tb.Insert(succ("n1", i, "a"), 0)
		var ids []uint64
		tb.Scan(0, func(tp tuple.Tuple) { ids = append(ids, tp.Field(1).AsID()) })
		if len(ids) != 1 || ids[0] != i {
			t.Fatalf("after insert %d: rows = %v, want [%d]", i, ids, i)
		}
	}
	// A replacement is not an eviction: same key, new content.
	tb.Insert(succ("n1", 3, "b"), 0)
	if want := []uint64{1, 2, 3}; !slices.Equal(deleted, want) {
		t.Fatalf("deleted = %v, want %v", deleted, want)
	}
}

// TestRemovalNotifiesInInsertionOrder: rows that leave in one sweep (or
// one Delete) are reported to listeners oldest first, not in the order a
// Go map happens to yield them — the order ends up in trace stores,
// tupleLog and aggregate accumulators, and must repeat between runs.
func TestRemovalNotifiesInInsertionOrder(t *testing.T) {
	const n = 40
	want := make([]uint64, n)
	for i := range want {
		want[i] = uint64(i + 1)
	}
	for rep := 0; rep < 20; rep++ {
		for _, how := range []string{"expire", "delete"} {
			tb := New(Spec{Name: "succ", Lifetime: 10, MaxSize: Infinity, Keys: []int{2}})
			for _, id := range want {
				tb.Insert(succ("n1", id, "a"), 0)
			}
			var got []uint64
			tb.Subscribe(func(op Op, tp tuple.Tuple) {
				if op == OpDelete {
					got = append(got, tp.Field(1).AsID())
				}
			})
			if how == "expire" {
				tb.Expire(10)
			} else {
				if removed := tb.Delete(tuple.New("succ", tuple.Nil, tuple.Nil, tuple.Str("a")), 1); removed != n {
					t.Fatalf("rep %d: Delete removed %d rows, want %d", rep, removed, n)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("rep %d, %s: listeners heard %v, want insertion order", rep, how, got)
			}
		}
	}
}

// TestSetSync: the owner's callback precedes every read and expiry and
// follows every explicit delete; its own inserts do not call back.
func TestSetSync(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: 10, MaxSize: Infinity, Keys: []int{2}})
	var ops []SyncOp
	next := uint64(0)
	tb.SetSync(func(op SyncOp, now float64, tp tuple.Tuple) {
		ops = append(ops, op)
		if op == SyncRead { // one more row materialised per read
			next++
			tb.Insert(succ("n1", next, "a"), 0)
		}
		if op == SyncDeleted && tp.Field(1).AsID() != 1 {
			t.Errorf("SyncDeleted reported %v", tp)
		}
	})
	if got := tb.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1 (built by the callback)", got)
	}
	n := 0
	tb.Scan(1, func(tuple.Tuple) { n++ })
	tb.MatchIndexed(1, []int{2}, []tuple.Value{tuple.Str("a")}, func(tuple.Tuple) { n++ })
	if n != 2+3 {
		t.Fatalf("Scan+MatchIndexed visited %d rows, want 2 then 3", n)
	}
	tb.SizeBytes()
	tb.Expire(2)
	tb.Delete(succ("n1", 1, "a"), 2)
	want := []SyncOp{SyncRead, SyncRead, SyncRead, SyncRead, SyncExpire, SyncRead, SyncDeleted}
	if !slices.Equal(ops, want) {
		t.Fatalf("callback ops = %v, want %v", ops, want)
	}
}

// TestReadSurvivesSyncWrites: a SetSync callback, run by a nested read
// from inside an outer Scan or MatchIndexed callback, deletes the row
// the outer read stands on, rows ahead of and behind it, replaces a row
// ahead and inserts new ones, until tombstones far outnumber live rows.
// The outer read visits every original row that survives until it is
// reached, each once, and nothing inserted or deleted before it is
// reached; compaction waits for the read, and the rows end up in
// insertion order.
func TestReadSurvivesSyncWrites(t *testing.T) {
	for _, outer := range []string{"Scan", "MatchIndexed"} {
		tb := New(Spec{Name: "succ", Lifetime: Infinity, MaxSize: Infinity, Keys: []int{2}})
		var order []uint64 // the model: live ids in insertion order
		for id := uint64(1); id <= 40; id++ {
			tb.Insert(succ("n1", id, "a"), 0) //nolint:errcheck
			order = append(order, id)
		}
		deleted, inserted := map[uint64]bool{}, map[uint64]bool{}
		at, fresh := uint64(0), uint64(100)
		outnumbered := false
		tb.SetSync(func(op SyncOp, _ float64, _ tuple.Tuple) {
			if op != SyncRead || at == 0 {
				return
			}
			for _, id := range []uint64{at, at + 2, at + 3, at - 1} {
				if tb.DeleteKey(succ("n1", id, "")) {
					deleted[id] = true
					order = slices.DeleteFunc(order, func(x uint64) bool { return x == id })
				}
			}
			if slices.Contains(order, at+4) {
				tb.Insert(succ("n1", at+4, "a2"), 0) //nolint:errcheck
				deleted[at+4] = true
				order = append(slices.DeleteFunc(order, func(x uint64) bool { return x == at+4 }), at+4)
			}
			for k := 0; k < 2; k++ {
				fresh++
				tb.Insert(succ("n1", fresh, "a"), 0) //nolint:errcheck
				inserted[fresh] = true
				order = append(order, fresh)
			}
			outnumbered = outnumbered || len(tb.slab)-int(tb.count) > int(tb.count)
		})
		seen := map[uint64]bool{}
		visit := func(tp tuple.Tuple) {
			id := tp.Field(1).AsID()
			switch {
			case seen[id]:
				t.Errorf("%s visited row %d twice", outer, id)
			case inserted[id]:
				t.Errorf("%s visited row %d, inserted during the read", outer, id)
			case deleted[id]:
				t.Errorf("%s visited row %d after it was deleted", outer, id)
			}
			seen[id] = true
			if len(seen) > 40 {
				t.Fatalf("%s visited more rows than it started with", outer)
			}
			at = id
			tb.MatchIndexed(0, []int{2}, []tuple.Value{tuple.Str("b")}, func(tuple.Tuple) {})
			at = 0
		}
		if outer == "Scan" {
			tb.Scan(0, visit)
		} else {
			tb.MatchIndexed(0, []int{0}, []tuple.Value{tuple.Str("n1")}, visit)
		}
		for id := uint64(1); id <= 40; id++ {
			if !seen[id] && !deleted[id] {
				t.Errorf("%s never reached live row %d", outer, id)
			}
		}
		if !outnumbered {
			t.Fatalf("%s: tombstones never outnumbered live rows", outer)
		}
		tb.Insert(succ("n1", 1000, "a"), 0) //nolint:errcheck
		order = append(order, 1000)
		if len(tb.slab) != int(tb.count) {
			t.Errorf("%s: slab holds %d positions for %d rows after the read", outer, len(tb.slab), tb.count)
		}
		var got []uint64
		tb.Scan(0, func(tp tuple.Tuple) { got = append(got, tp.Field(1).AsID()) })
		if !slices.Equal(got, order) {
			t.Errorf("%s: rows after the read = %v, want %v", outer, got, order)
		}
	}
}

func TestDeleteWithPattern(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: Infinity, MaxSize: Infinity, Keys: []int{2, 3}})
	tb.Insert(succ("n1", 1, "a"), 0)
	tb.Insert(succ("n1", 2, "a"), 0)
	tb.Insert(succ("n1", 3, "b"), 0)
	// Delete all rows with addr "a" (ID wildcard).
	pattern := tuple.New("succ", tuple.Str("n1"), tuple.Nil, tuple.Str("a"))
	if removed := tb.Delete(pattern, 0); removed != 2 || tb.Count() != 1 {
		t.Errorf("removed %d rows, count %d; want 2, 1", removed, tb.Count())
	}
}

func TestMatch(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: Infinity, MaxSize: Infinity, Keys: []int{2}})
	tb.Insert(succ("n1", 1, "a"), 0)
	tb.Insert(succ("n1", 2, "b"), 0)
	tb.Insert(succ("n2", 3, "b"), 0)
	n := 0
	tb.MatchIndexed(0, []int{0, 2}, []tuple.Value{tuple.Str("n1"), tuple.Str("b")}, func(tuple.Tuple) { n++ })
	if n != 1 {
		t.Errorf("matched %d rows, want 1", n)
	}
	// A single-position probe yields every row sharing the value, in
	// insertion order.
	var got []uint64
	tb.MatchIndexed(0, []int{2}, []tuple.Value{tuple.Str("b")}, func(tp tuple.Tuple) { got = append(got, tp.Field(1).AsID()) })
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("matched %v, want [2 3]", got)
	}
}

func TestScanDeterministicOrder(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: Infinity, MaxSize: Infinity, Keys: []int{2}})
	for i := uint64(0); i < 20; i++ {
		tb.Insert(succ("n1", i*7919%97, "a"), 0)
	}
	var first []uint64
	tb.Scan(0, func(tp tuple.Tuple) { first = append(first, tp.Field(1).AsID()) })
	var second []uint64
	tb.Scan(0, func(tp tuple.Tuple) { second = append(second, tp.Field(1).AsID()) })
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("scan order not deterministic")
		}
	}
}

func TestStoreMaterializeIdempotent(t *testing.T) {
	s := NewStore()
	spec := Spec{Name: "succ", Lifetime: 30, MaxSize: 16, Keys: []int{2}}
	a, err := s.Materialize(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Materialize(spec)
	if err != nil || a != b {
		t.Error("re-materialize with same spec must return same table")
	}
	if _, err := s.Materialize(Spec{Name: "succ", Lifetime: 60, MaxSize: 16, Keys: []int{2}}); err == nil {
		t.Error("conflicting respecification must fail")
	}
	if s.Get("nope") != nil {
		t.Error("Get of unmaterialized name must be nil")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "succ" {
		t.Errorf("Names = %v", names)
	}
}

func TestStoreAccounting(t *testing.T) {
	s := NewStore()
	tb, _ := s.Materialize(Spec{Name: "succ", Lifetime: 5, MaxSize: Infinity, Keys: []int{2}})
	tb.Insert(succ("n1", 1, "a"), 0)
	tb.Insert(succ("n1", 2, "b"), 1)
	if s.LiveTuples() != 2 {
		t.Errorf("LiveTuples = %d", s.LiveTuples())
	}
	if s.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
	if e := s.NextExpiry(); e != 5 {
		t.Errorf("NextExpiry = %v", e)
	}
	s.ExpireAll(7)
	if s.LiveTuples() != 0 {
		t.Errorf("LiveTuples after expire = %d", s.LiveTuples())
	}
	if e := s.NextExpiry(); !math.IsInf(e, 1) {
		t.Errorf("NextExpiry of empty store = %v", e)
	}
}

// Property: a table keyed on field 2 never holds two rows with equal
// field 2, and never exceeds MaxSize, under arbitrary insert sequences.
func TestKeyUniquenessProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		tb := New(Spec{Name: "succ", Lifetime: Infinity, MaxSize: 8, Keys: []int{2}})
		r := rand.New(rand.NewSource(1))
		for _, id := range ids {
			tb.Insert(succ("n1", uint64(id), string(rune('a'+r.Intn(3)))), 0)
		}
		if tb.Count() > 8 {
			return false
		}
		seen := map[uint64]bool{}
		ok := true
		tb.Scan(0, func(tp tuple.Tuple) {
			id := tp.Field(1).AsID()
			if seen[id] {
				ok = false
			}
			seen[id] = true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRemovedRowNotCopiedReadsNil: a stored row is the table's while it
// is live. A listener that keeps a row past its OpDelete notification
// without copying it finds its fields cleared once the call that removed
// it returns, whether a replacement, an expiry or a Delete removed it;
// after the table's next insert they hold nil or that insert's row
// (whose copy refilled the array), never the removed row again.
func TestRemovedRowNotCopiedReadsNil(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: 10, MaxSize: Infinity, Keys: []int{2}})
	var removed []tuple.Tuple
	tb.Subscribe(func(op Op, tp tuple.Tuple) {
		if op == OpDelete {
			removed = append(removed, tp)
		}
	})
	doors := []struct {
		name   string
		remove func(now float64)
	}{
		{"replaced", func(now float64) { tb.Insert(succ("n1", 1, "b"), now) }}, //nolint:errcheck
		{"expired", func(now float64) { tb.Expire(now + 11) }},
		{"deleted", func(now float64) {
			tb.Delete(tuple.New("succ", tuple.Str("n1"), tuple.ID(1), tuple.Value{}), now)
		}},
	}
	for i, d := range doors {
		now := float64(100 * i)
		row := succ("n1", 1, "a")
		tb.Insert(row, now) //nolint:errcheck
		removed = removed[:0]
		d.remove(now)
		if len(removed) != 1 {
			t.Fatalf("%s: heard %d rows removed, want 1", d.name, len(removed))
		}
		kept := removed[0]
		for j, v := range kept.Fields {
			if !v.IsNil() {
				t.Errorf("%s: the kept row's field %d reads %v once it is removed, want nil", d.name, j, v)
			}
		}
		next := succ("n1", uint64(50+i), "next")
		tb.Insert(next, now+12) //nolint:errcheck
		cleared := !slices.ContainsFunc(kept.Fields, func(v tuple.Value) bool { return !v.IsNil() })
		if !cleared && !slices.EqualFunc(kept.Fields, next.Fields, tuple.Value.Equal) {
			t.Errorf("%s: after the next insert the kept row reads %v, want nil fields or %v", d.name, kept, next)
		}
		tb.Clear()
	}
}

// BenchmarkInsert is a stored row's write path, per insert: new inserts
// a fresh key, its copy in a new array, into a table emptied every
// 1 024 rows; replace flips one key between two values, each copy
// refilling the array of the row it replaces; refresh inserts the stored
// row again, which copies nothing.
func BenchmarkInsert(b *testing.B) {
	rows := make([]tuple.Tuple, 1024)
	for i := range rows {
		rows[i] = finger(i, "f")
	}
	flip := []tuple.Tuple{finger(1, "a"), finger(1, "b")}
	for _, c := range []struct {
		name string
		rows []tuple.Tuple
	}{
		{"new", rows},
		{"replace", flip},
		{"refresh", flip[:1]},
	} {
		b.Run(c.name, func(b *testing.B) {
			tb := New(Spec{Name: "finger", Lifetime: 180, MaxSize: Infinity, Keys: []int{2}})
			tb.EnsureIndex([]int{0, 2})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % len(c.rows)
				if k == 0 && c.name == "new" {
					tb.Clear()
				}
				tb.Insert(c.rows[k], 0) //nolint:errcheck
			}
		})
	}
}
