package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"p2go/internal/table"
)

// FuzzMemoTable holds the memo's ID table to a Go map over random puts,
// gets, deletes and clears, driven the way the tracer drives it: a put
// files a memo slot that already holds its ID, and a delete empties the
// cell find returned before the slot is wiped. IDs come dense (the
// node's counter), sparse, colliding (an ID whose home cell is that of
// one present) and 0, and the table grows through several sizes.
func FuzzMemoTable(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(int64(i), uint16(200*i+50), uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, ops uint16, mix uint8) {
		rng := rand.New(rand.NewSource(seed))
		var (
			tb    idTable
			slots []memoEntry
			free  []uint32
			want  = map[uint64]uint32{}
			keys  []uint64 // want's keys, for drawing a present one
			next  uint64   // the dense counter
		)
		removeKey := func(id uint64) {
			for k, x := range keys {
				if x == id {
					keys[k] = keys[len(keys)-1]
					keys = keys[:len(keys)-1]
					return
				}
			}
		}
		draw := func() uint64 {
			switch (int(mix) + rng.Intn(8)) % 8 {
			case 0, 1, 2:
				next++
				return next
			case 3:
				return rng.Uint64()
			case 4:
				if len(keys) > 0 {
					// A new ID that starts its probe where a present one does.
					home := tb.home(keys[rng.Intn(len(keys))])
					for try := 0; try < 64*len(tb.cells); try++ {
						if id := rng.Uint64(); tb.home(id) == home {
							return id
						}
					}
				}
				return rng.Uint64()
			case 5:
				return 0
			default:
				if len(keys) > 0 {
					return keys[rng.Intn(len(keys))]
				}
				next++
				return next
			}
		}
		check := func(step int, what string, id uint64) {
			t.Helper()
			if tb.n != len(want) {
				t.Fatalf("step %d, %s %d: table holds %d IDs, the map %d", step, what, id, tb.n, len(want))
			}
			if 2*tb.n > len(tb.cells) && tb.n > 0 {
				t.Fatalf("step %d: %d IDs in %d cells, more than half full", step, tb.n, len(tb.cells))
			}
			used := 0
			for _, c := range tb.cells {
				if c != 0 {
					used++
				}
			}
			if used != tb.n {
				t.Fatalf("step %d: %d cells in use for %d IDs", step, used, tb.n)
			}
			for id, i := range want {
				if _, got, ok := tb.find(slots, id); !ok || got != i {
					t.Fatalf("step %d, after %s %d: get(%d) = %d, %v, want slot %d", step, what, id, id, got, ok, i)
				}
			}
		}
		n := int(ops) % 3000
		for step := 0; step < n; step++ {
			id := draw()
			switch op := rng.Intn(100); {
			case op < 50: // put, as addRef does for an ID it does not find
				p, got, ok := tb.find(slots, id)
				if i, present := want[id]; present {
					if !ok || got != i || tb.cells[p] != i+1 {
						t.Fatalf("step %d: find(%d) = cell %d, slot %d, %v, want slot %d", step, id, p, got, ok, i)
					}
					continue
				}
				if ok {
					t.Fatalf("step %d: find(%d) found an ID never put or since deleted", step, id)
				}
				var i uint32
				if k := len(free); k > 0 {
					i, free = free[k-1], free[:k-1]
				} else {
					i = uint32(len(slots))
					slots = append(slots, memoEntry{})
				}
				slots[i] = memoEntry{id: id, refs: 1}
				tb.put(slots, p, i)
				want[id] = i
				keys = append(keys, id)
				check(step, "put", id)
			case op < 70:
				_, got, ok := tb.find(slots, id)
				if i, present := want[id]; ok != present || (ok && got != i) {
					t.Fatalf("step %d: get(%d) = %d, %v; the map holds %d, %v", step, id, got, ok, i, present)
				}
			case op < 98: // delete, as release does
				i, present := want[id]
				p, _, ok := tb.find(slots, id)
				if ok != present {
					t.Fatalf("step %d: find(%d) says %v, the map %v", step, id, ok, present)
				}
				if !ok {
					continue
				}
				tb.del(slots, p)
				slots[i] = memoEntry{}
				free = append(free, i)
				delete(want, id)
				removeKey(id)
				check(step, "del", id)
				if _, _, ok := tb.find(slots, id); ok {
					t.Fatalf("step %d: %d still found after its delete", step, id)
				}
			default: // Reset
				clear(tb.cells) // as Reset does
				tb.n = 0
				clear(slots)
				slots, free, keys = slots[:0], free[:0], keys[:0]
				clear(want)
				check(step, "clear", 0)
			}
		}
		check(n, "the end", 0)
	})
}

// TestStaleSlotHintsFallBack: inside one activation, a slot the record
// kept for its input and one kept for a precondition are released and
// reused for other IDs before the next output reads them, and the slot
// kept for a precondition row with ID 0 (the node's epoch row has it) is
// free when read, its entry's ID wiped to 0. The hints must be passed
// over for a lookup, so the rows and the memo stay the eager reference's,
// at the bounds (0 and 1) where every new record evicts the last.
func TestStaleSlotHintsFallBack(t *testing.T) {
	for _, max := range []int{0, 1} {
		t.Run(fmt.Sprintf("RuleExecMax=%d", max), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RuleExecMax = max
			var sides [2]side
			for i := range sides {
				sides[i].store = table.NewStore()
				var err error
				if i == 0 {
					sides[i].tr, err = New(sides[i].store, "n1", cfg)
				} else {
					sides[i].tr, err = newEager(sides[i].store, "n1", cfg, 1)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			tr := sides[0].tr.(*Tracer)
			s := diffStrands[2] // two stages
			in, p1, p2, h1, h2 := tup("ev", 1), tup("p", 2), tup("p", 0), tup("head", 4), tup("head", 5)
			each := func(f func(tracerAPI)) {
				for _, sd := range sides {
					f(sd.tr)
				}
			}
			each(func(a tracerAPI) {
				for _, tp := range []struct {
					id   uint64
					name string
				}{{1, "ev"}, {2, "p"}, {3, "p"}, {4, "head"}, {5, "head"}} {
					a.Register(tp.id, tp.name, "n1", tp.id, "n1", 1)
				}
				a.Input(s, in, 1)
				a.Precond(s, 1, p1, 1)
				a.Precond(s, 2, p2, 1)
				a.Output(s, h1, 1)
			})
			// Each of the output's records evicted the one before, so the
			// input's slot was released and the second precondition took
			// it, and the first precondition's slot is free.
			inSlot, p1Slot := tr.rec.in, tr.rec.pre[0].slot
			if e := tr.slots[inSlot]; e.id != p2.ID || e.refs == 0 {
				t.Fatalf("the input's slot %d holds ID %d with %d references, want the second precondition's", inSlot, e.id, e.refs)
			}
			if e := tr.slots[p1Slot]; e.refs != 0 {
				t.Fatalf("the first precondition's slot %d holds %d references, want none", p1Slot, e.refs)
			}
			// The second output's records reference the input and the
			// preconditions through the slots a lookup finds, which become
			// the hints; a hint taken on trust would have made records
			// about the tuples in the old slots, or revived the second
			// precondition's, freed by then and reading ID 0.
			each(func(a tracerAPI) { a.Output(s, h2, 2) })
			if tr.rec.in == inSlot || tr.rec.pre[0].slot == p1Slot || tr.rec.pre[1].slot == inSlot {
				t.Errorf("hints after the second output: input %d, preconditions %d and %d, the stale ones %d, %d and %d",
					tr.rec.in, tr.rec.pre[0].slot, tr.rec.pre[1].slot, inSlot, p1Slot, inSlot)
			}
			each(func(a tracerAPI) {
				if e, ok := a.(*eagerTracer); ok {
					e.StageDone(s, 1)
					e.StageDone(s, 2)
				}
				a.TaskDone()
			})
			for _, name := range []string{RuleExecTable, TupleTable} {
				if a, b := dump(sides[0].store.Get(name), 2), dump(sides[1].store.Get(name), 2); a != b {
					t.Errorf("%s:\nrings:\n%s\neager tables:\n%s", name, a, b)
				}
			}
			for id := uint64(1); id <= 5; id++ {
				a, aok := sides[0].tr.Name(id)
				b, bok := sides[1].tr.Name(id)
				if a != b || aok != bok {
					t.Errorf("Name(%d) = %q, %v; the reference's %q, %v", id, a, aok, b, bok)
				}
			}
			if a, b := sides[0].tr.MemoSize(), sides[1].tr.MemoSize(); a != b {
				t.Errorf("memo holds %d tuples, the reference's %d", a, b)
			}
		})
	}
}
