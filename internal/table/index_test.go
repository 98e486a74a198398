package table

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"p2go/internal/tuple"
)

func TestMatchIndexedBasics(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: Infinity, MaxSize: Infinity, Keys: []int{2}})
	tb.Insert(succ("n1", 1, "a"), 0) //nolint:errcheck
	tb.Insert(succ("n1", 2, "b"), 0) //nolint:errcheck
	tb.Insert(succ("n2", 3, "b"), 0) //nolint:errcheck

	var got []uint64
	visited := tb.MatchIndexed(0, []int{0, 2},
		[]tuple.Value{tuple.Str("n1"), tuple.Str("b")},
		func(tp tuple.Tuple) { got = append(got, tp.Field(1).AsID()) })
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("matched = %v, want [2]", got)
	}
	if visited < 1 {
		t.Errorf("visited = %d", visited)
	}
	// A position past every row's end hashes as Nil, so the probe lands
	// in a bucket of all three rows: each is visited, and none matches.
	if v := tb.MatchIndexed(0, []int{5}, []tuple.Value{tuple.Nil}, func(tuple.Tuple) {
		t.Error("a missing field matched")
	}); v != 3 {
		t.Errorf("visited past-the-end bucket = %d, want 3", v)
	}
	// Empty-bucket probes visit nothing.
	if v := tb.MatchIndexed(0, []int{0, 2},
		[]tuple.Value{tuple.Str("zz"), tuple.Str("b")}, func(tuple.Tuple) {
			t.Error("unexpected match")
		}); v != 0 {
		t.Errorf("visited empty bucket = %d", v)
	}
}

func TestIndexTracksMutations(t *testing.T) {
	tb := New(Spec{Name: "succ", Lifetime: 10, MaxSize: 3, Keys: []int{2}})
	probe := func(addr string) int {
		n := 0
		tb.MatchIndexed(0, []int{2}, []tuple.Value{tuple.Str(addr)},
			func(tuple.Tuple) { n++ })
		return n
	}
	tb.Insert(succ("n1", 1, "a"), 0) //nolint:errcheck
	if probe("a") != 1 {
		t.Fatal("index missed insert")
	}
	// Replacement by primary key: old row leaves the index view.
	tb.Insert(succ("n1", 1, "b"), 0) //nolint:errcheck
	if probe("a") != 0 || probe("b") != 1 {
		t.Error("index stale after replacement")
	}
	// Eviction (MaxSize 3).
	for i := uint64(2); i <= 5; i++ {
		tb.Insert(succ("n1", i, "b"), 0) //nolint:errcheck
	}
	if got := probe("b"); got != 3 {
		t.Errorf("indexed rows after eviction = %d, want 3", got)
	}
	// Expiry.
	tb.Expire(11)
	if probe("b") != 0 {
		t.Error("index returned expired rows")
	}
	// DeleteKey.
	tb.Insert(succ("n1", 9, "c"), 20) //nolint:errcheck
	tb.DeleteKey(succ("n1", 9, "zzz"))
	if probe("c") != 0 {
		t.Error("index returned key-deleted rows")
	}
}

// listModel is the table as a plain insertion-ordered list (keyed on
// field 2, MaxSize max, TTL life), recording what listeners should hear.
type listModel struct {
	rows   []tuple.Tuple
	expiry []float64
	life   float64
	max    int
	heard  []string
}

func (m *listModel) hear(op Op, t tuple.Tuple) {
	m.heard = append(m.heard, fmt.Sprint(op, t))
}

func (m *listModel) drop(i int) {
	m.hear(OpDelete, m.rows[i])
	m.rows = slices.Delete(m.rows, i, i+1)
	m.expiry = slices.Delete(m.expiry, i, i+1)
}

func (m *listModel) expire(now float64) {
	for i := 0; i < len(m.rows); {
		if m.expiry[i] <= now {
			m.drop(i)
		} else {
			i++
		}
	}
}

func (m *listModel) insert(t tuple.Tuple, now float64) {
	m.expire(now)
	for i, r := range m.rows {
		if r.Field(1).Equal(t.Field(1)) {
			if r.Equal(t) {
				m.expiry[i] = now + m.life
				return
			}
			m.drop(i)
			m.rows, m.expiry = append(m.rows, t), append(m.expiry, now+m.life)
			m.hear(OpInsert, t)
			return
		}
	}
	m.rows, m.expiry = append(m.rows, t), append(m.expiry, now+m.life)
	if len(m.rows) > m.max {
		m.drop(0)
	}
	m.hear(OpInsert, t)
}

// deleteWhere removes the rows doomed reports true for, oldest first.
func (m *listModel) deleteWhere(doomed func(tuple.Tuple) bool) {
	for i := 0; i < len(m.rows); {
		if doomed(m.rows[i]) {
			m.drop(i)
		} else {
			i++
		}
	}
}

// Property: under random new-key, replacing and refreshing inserts,
// DeleteKey, Delete, Expire, MaxSize eviction, Clear and a mid-run
// EnsureIndex, the table agrees with a plain insertion-ordered list
// after every step: Scan and every MatchIndexed probe yield the same
// rows in the same order, a probe visits exactly its matches, and
// listeners hear the same changes in the same order.
func TestIndexEquivalentToScanProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := New(Spec{Name: "succ", Lifetime: 20, MaxSize: 12, Keys: []int{2}})
		m := &listModel{life: 20, max: 12}
		var heard []string
		tb.Subscribe(func(op Op, tp tuple.Tuple) { heard = append(heard, fmt.Sprint(op, tp)) })
		probes := [][]int{{0, 2}}
		r := rand.New(rand.NewSource(7))
		now := 0.0
		for step, op := range ops {
			now += float64(op%7) * 0.5
			id := uint64(op % 17)
			addr := string(rune('a' + int(op%3)))
			switch op % 10 {
			case 4:
				tb.DeleteKey(succ("n1", id, "x"))
				m.deleteWhere(func(tp tuple.Tuple) bool { return tp.Field(1).AsID() == id })
			case 5:
				tb.Expire(now)
				m.expire(now)
			case 6:
				tb.Delete(tuple.New("succ", tuple.Str("n1"), tuple.Nil, tuple.Str(addr)), now)
				m.expire(now)
				m.deleteWhere(func(tp tuple.Tuple) bool { return tp.Field(2).AsStr() == addr })
			case 7:
				if len(probes) == 1 {
					tb.EnsureIndex([]int{2})
					probes = append(probes, []int{2})
				}
			case 8:
				if op/10%4 == 0 {
					tb.Clear()
					m.rows, m.expiry = nil, nil
					m.hear(OpClear, tuple.Tuple{Name: "succ"})
					break
				}
				fallthrough
			default:
				tb.Insert(succ("n1", id, addr), now) //nolint:errcheck
				m.insert(succ("n1", id, addr), now)
			}
			m.expire(now) // the reads below expire at now
			var got []string
			tb.Scan(now, func(tp tuple.Tuple) { got = append(got, tp.String()) })
			if want := m.strings(func(tuple.Tuple) bool { return true }); !slices.Equal(got, want) {
				t.Logf("step %d: Scan = %v, want %v", step, got, want)
				return false
			}
			probeAddr := string(rune('a' + r.Intn(3)))
			for _, pos := range probes {
				vals := []tuple.Value{tuple.Str(probeAddr)}
				if len(pos) == 2 {
					vals = []tuple.Value{tuple.Str("n1"), tuple.Str(probeAddr)}
				}
				got = got[:0]
				visited := tb.MatchIndexed(now, pos, vals, func(tp tuple.Tuple) { got = append(got, tp.String()) })
				want := m.strings(func(tp tuple.Tuple) bool { return tp.Field(2).AsStr() == probeAddr })
				if !slices.Equal(got, want) || visited != len(want) {
					t.Logf("step %d: MatchIndexed%v = %v (visited %d), want %v", step, pos, got, visited, want)
					return false
				}
			}
			if !slices.Equal(heard, m.heard) {
				t.Logf("step %d: listeners heard %v, want %v", step, heard, m.heard)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func (m *listModel) strings(keep func(tuple.Tuple) bool) []string {
	var out []string
	for _, r := range m.rows {
		if keep(r) {
			out = append(out, r.String())
		}
	}
	return out
}

// fingers is a node's Chord finger table, finger@N(I, FID, FAddr) keyed
// on I, with n rows at node n1: the table Chord's l2 probes on position 0
// once per lookup.
func fingers(n int, lifetime float64) *Table {
	tb := New(Spec{Name: "finger", Lifetime: lifetime, MaxSize: Infinity, Keys: []int{2}})
	for i := 0; i < n; i++ {
		tb.Insert(finger(i, "f"), 0) //nolint:errcheck
	}
	return tb
}

func finger(i int, addr string) tuple.Tuple {
	return tuple.New("finger", tuple.Str("n1"), tuple.Int(int64(i)), tuple.ID(uint64(i)*(math.MaxUint64/160)+0x2000), tuple.Str(addr))
}

var benchRows int

// BenchmarkMatchIndexed is l2's access path: one probe on position 0 of
// a 160-row finger table, every row a match.
func BenchmarkMatchIndexed(b *testing.B) {
	tb := fingers(160, Infinity)
	pos, vals := []int{0}, []tuple.Value{tuple.Str("n1")}
	tb.EnsureIndex(pos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRows += tb.MatchIndexed(0, pos, vals, func(tuple.Tuple) {})
	}
}

// BenchmarkScan walks the same 160 rows.
func BenchmarkScan(b *testing.B) {
	tb := fingers(160, Infinity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Scan(0, func(tuple.Tuple) { benchRows++ })
	}
}
