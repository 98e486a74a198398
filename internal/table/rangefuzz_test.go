package table

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"p2go/internal/tuple"
)

// ringKey is a value for the field a range selects on: numbers of every
// kind, a few of them at the same ring position, around both ends of
// the ring, and values that are not numbers.
func ringKey(b byte) tuple.Value {
	switch b % 16 {
	case 0, 1, 2:
		return tuple.ID(uint64(b % 5))
	case 3:
		return tuple.ID(math.MaxUint64 - uint64(b%3))
	case 4:
		return tuple.Int(int64(b%5) - 2)
	case 5:
		return tuple.Float(float64(b%7) - 2.5)
	case 6:
		return tuple.Float([]float64{math.NaN(), math.Inf(1), 1e19, -1e19}[b/16%4])
	case 7:
		return tuple.ID(1 << 63)
	case 8:
		return tuple.Str("k")
	case 9:
		return tuple.Bool(b&16 != 0)
	case 10:
		return tuple.List(tuple.ID(1))
	}
	return tuple.ID(uint64(b))
}

// rangeScript plays fuzz bytes on a table as FuzzTableMatchesRef's
// script does, but its rows are r(loc, k, v) with a ring key in k or v,
// and its reads are range probes. With walk set a probe is the walk
// (MatchIndexed on the location) judged by tuple.InInterval; otherwise
// it is MatchRange, and the walk where MatchRange does not answer.
type rangeScript struct {
	script
	walk     bool
	answered int // probes MatchRange answered
}

func (s *rangeScript) rangeTuple() tuple.Tuple {
	n := 3
	if s.next()%16 == 0 {
		n = 2
	}
	t := tuple.Tuple{Name: "r", Fields: make([]tuple.Value, n)}
	t.Fields[0] = loc(s.next())
	for i := 1; i < n; i++ {
		t.Fields[i] = ringKey(s.next())
	}
	s.id++
	t.ID = s.id
	return t
}

// selection picks the field, arity, bounds and ends of a range probe.
func (s *rangeScript) selection() (field, arity int, lo, hi tuple.Value, loOpen, hiOpen bool) {
	field, arity = 1+int(s.next()%2), 3
	if s.next()%8 == 0 {
		field, arity = 1, 2
	}
	lo, hi = ringKey(s.next()), ringKey(s.next())
	if b := s.next(); b%4 == 0 {
		hi = lo // degenerate
	} else if b%4 == 1 {
		hi = tuple.ID(lo.AsRing() + 1)
	}
	e := s.next()
	return field, arity, lo, hi, e&1 != 0, e&2 != 0
}

func (s *rangeScript) step(depth int) {
	if s.i >= len(s.ops) {
		return
	}
	switch op := s.next(); op % 10 {
	case 0, 1, 2:
		t := s.rangeTuple()
		changed, err := s.tb.Insert(t, s.now)
		s.logf("insert %s: %v %v", s.row(t), changed, err)
	case 3:
		pat := s.rangeTuple()
		for i := range pat.Fields {
			if s.next()%2 == 0 {
				pat.Fields[i] = tuple.Nil
			}
		}
		// The listener log names each removed row.
		s.logf("removed %d", s.tb.Delete(pat, s.now))
	case 4:
		t := s.rangeTuple()
		s.logf("delete key %v: %v", t, s.tb.DeleteKey(t))
	case 5:
		s.now += float64(s.next() % 6)
		s.tb.Expire(s.now)
	case 6:
		if depth == 0 && op/10%4 == 0 {
			s.tb.Clear()
			s.logf("clear")
		}
	default:
		s.probe(depth)
	}
}

// probe logs each row handed over with the count passed over before it,
// the count after the last and the visited count, and plays one nested
// operation per row handed over at depth 0.
func (s *rangeScript) probe(depth int) {
	at := loc(s.next())
	field, arity, lo, hi, loOpen, hiOpen := s.selection()
	s.logf("%d probe %v: field %d arity %d %v..%v open %v %v", depth, at, field, arity, lo, hi, loOpen, hiOpen)
	hand := func(t tuple.Tuple, passed int) {
		s.logf("%d +%d %s", depth, passed, s.row(t))
		if depth == 0 {
			s.step(1)
		}
	}
	var visited, passed int
	tb := s.tb.(*Table)
	walk := func() int {
		return tb.MatchIndexed(s.now, []int{0}, []tuple.Value{at}, func(t tuple.Tuple) {
			f := t.Fields
			if len(f) == arity && f[field].Numeric() && !tuple.InInterval(f[field], lo, hi, loOpen, hiOpen) {
				passed++
				return
			}
			hand(t, passed)
			passed = 0
		})
	}
	if s.walk {
		visited = walk()
	} else {
		r := NewRange(field, arity, lo, hi, loOpen, hiOpen)
		n := len(s.log)
		var ok bool
		visited, passed, ok = tb.MatchRange(s.now, at, &r, hand)
		switch {
		case ok:
			s.answered++
		case len(s.log) > n:
			s.logf("%d MatchRange handed rows over, then did not answer", depth)
		default:
			visited = walk()
		}
	}
	s.logf("%d +%d visited %d", depth, passed, visited)
}

// checkRings holds every ring index of tb to its definition: order is
// live rows sorted by ring position then position, each with a string
// location and a number in the field and the location and arity of the
// first; odd counts the other live rows; and a position's bit is set
// exactly while it is live.
func checkRings(t *testing.T, tb *Table) {
	t.Helper()
	for _, ix := range tb.indexes {
		rg := ix.ring
		if rg == nil {
			continue
		}
		live, ones := 0, 0
		for p := range tb.slab {
			on := rg.live[p/64]>>(p%64)&1 != 0
			if on == tb.slab[p].dead {
				t.Fatalf("position %d: live bit %v on a row dead=%v", p, on, tb.slab[p].dead)
			}
			if on {
				live++
			}
		}
		for _, w := range rg.live {
			ones += bits.OnesCount64(w)
		}
		if ones != live || live != int(tb.count) || int(rg.odd) != live-len(rg.order) {
			t.Fatalf("ring over %d: %d bits, %d live, count %d; %d sorted, odd %d",
				rg.field, ones, live, tb.count, len(rg.order), rg.odd)
		}
		if !slices.IsSortedFunc(rg.order, func(a, b int32) int {
			if c := cmp.Compare(rg.key(tb.slab, a), rg.key(tb.slab, b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		}) {
			t.Fatalf("ring over %d: order %v not sorted", rg.field, rg.order)
		}
		for _, p := range rg.order {
			f := tb.slab[p].fields()
			if tb.slab[p].dead || !rg.sorts(tb.slab, f) || f[0].Kind() != tuple.KindStr || !f[rg.field].Numeric() {
				t.Fatalf("ring over %d: order holds position %d, dead=%v", rg.field, p, tb.slab[p].dead)
			}
		}
	}
}

// wideRangeOps is a script of eighty rows at n1 with numeric keys, then
// probes, which the ring index answers over more than one word of live
// bits.
func wideRangeOps() []byte {
	wide := []byte{0, 0, 2}
	for i := range 80 {
		k := byte(11 + i%5 + 16*(i/5))
		wide = append(wide, 0, 1, 0, k, k)
	}
	for i := range 8 {
		wide = append(wide, 7, 0, byte(i), 1, byte(16*i+1), byte(16*i+11), 2, byte(i))
	}
	return wide
}

// FuzzRangeProbe holds MatchRange, and the walk where it does not
// answer, to the walk it stands for: MatchIndexed on the location, with
// each row judged by tuple.InInterval. Over open,
// closed, wrapping, empty and degenerate intervals, keys of every kind,
// rows at foreign locations and of another arity, tombstones, Clear,
// and reads nested in a probe that insert, delete and expire (deferring
// compaction), both must hand over the same rows in the same order with
// the same passed-over counts, and return the same visited count; and
// the ring indexes must stay true to their definition.
func FuzzRangeProbe(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 7, 0, 1, 2, 0, 0, 7, 5, 2, 3})
	f.Add([]byte{1, 1, 1, 0, 0, 1, 2, 0, 0, 7, 3, 0, 1, 1, 0, 4, 8, 0, 1, 2, 1, 1, 1})
	f.Add([]byte{2, 2, 2, 0, 6, 1, 1, 1, 0, 6, 2, 2, 8, 0, 0, 6, 9, 0, 2, 7, 3, 7, 3, 1, 5, 11, 6, 6, 6})
	f.Add(wideRangeOps())
	for seed := byte(0); seed < 16; seed++ {
		ops := make([]byte, 200)
		x := uint32(seed)*2654435761 + 7
		for i := range ops {
			x = x*1664525 + 1013904223
			ops[i] = byte(x >> 24)
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 || len(b) > 1024 {
			t.Skip()
		}
		spec := fuzzSpec(b)
		run := func(walk bool) ([]string, *Table) {
			tb := New(spec)
			s := &rangeScript{script: script{tb: tb, ops: b[3:]}, walk: walk}
			tb.Subscribe(func(op Op, t tuple.Tuple) { s.logf("listener %d %s", op, s.row(t)) })
			for s.i < len(s.ops) {
				s.step(0)
				if !walk {
					checkRings(t, tb)
				}
			}
			return s.log, tb
		}
		got, tb := run(false)
		want, _ := run(true)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("spec %+v: line %d: MatchRange %q, walk %q\n(context: %q)",
				spec, i, at(got, i), at(want, i), want[max(0, i-8):i])
		}
		checkRings(t, tb)
	})
}

// TestRangeProbeUsesIndex: on a table MatchRange can index, it builds
// one ring index and reads no row outside the interval, yet reports the
// walk's counts; after a foreign row it does not answer.
func TestRangeProbeUsesIndex(t *testing.T) {
	tb := New(Spec{Name: "r", Lifetime: Infinity, MaxSize: Infinity, Keys: []int{2}})
	for i := range 32 {
		tb.Insert(tuple.New("r", tuple.Str("n1"), tuple.Int(int64(i)), tuple.ID(uint64(i)*10)), 0) //nolint:errcheck
	}
	r := NewRange(2, 3, tuple.ID(95), tuple.ID(125), true, false) // (95, 125]: 100, 110, 120
	var got []string
	hand := func(t tuple.Tuple, n int) {
		got = append(got, fmt.Sprintf("+%d %v", n, t.Fields[2]))
	}
	visited, passed, ok := tb.MatchRange(0, tuple.Str("n1"), &r, hand)
	want := []string{"+10 0x64", "+0 0x6e", "+0 0x78"}
	if !slices.Equal(got, want) || visited != 32 || passed != 19 || !ok {
		t.Fatalf("got %q visited %d passed %d answered %v, want %q 32 19 true", got, visited, passed, ok, want)
	}
	if len(tb.indexes) != 1 || tb.indexes[0].ring == nil || len(tb.indexes[0].ring.order) != 32 {
		t.Fatalf("indexes %+v, want one ring over 32 rows", tb.indexes)
	}
	tb.Insert(tuple.New("r", tuple.Str("n2"), tuple.Int(99), tuple.ID(105)), 0) //nolint:errcheck
	if rg := tb.indexes[0].ring; rg.answers(tb.slab, tuple.Str("n1"), 3) || rg.odd != 1 {
		t.Fatalf("a foreign row leaves the index answering (odd %d)", rg.odd)
	}
	got = got[:0]
	if _, _, ok := tb.MatchRange(0, tuple.Str("n1"), &r, hand); ok || len(got) > 0 {
		t.Fatalf("with a foreign row: answered %v, handed over %q", ok, got)
	}
}

// TestRangeProbeAnswers: the ring index answers seven of the eight
// probes in the fuzz corpus's wide script, so FuzzRangeProbe holds the
// index, not only the walk, to the walk; the eighth has 35 rows in
// range, more than a probe sorts, and walks.
func TestRangeProbeAnswers(t *testing.T) {
	b := wideRangeOps()
	s := &rangeScript{script: script{tb: New(fuzzSpec(b)), ops: b[3:]}}
	for s.i < len(s.ops) {
		s.step(0)
	}
	if s.answered != 7 {
		t.Fatalf("%d of 8 probes answered, want 7", s.answered)
	}
}

// TestRangeProbeNestedDelete: a row in range that a nested write deletes
// before the probe reaches it is skipped and not counted, as the walk
// skips it; the compaction that delete makes due waits for the probe.
func TestRangeProbeNestedDelete(t *testing.T) {
	var logs [2][]string
	for i, walk := range []bool{false, true} {
		tb := New(Spec{Name: "r", Lifetime: Infinity, MaxSize: Infinity, Keys: []int{2}})
		for k := range 8 {
			tb.Insert(tuple.New("r", tuple.Str("n1"), tuple.Int(int64(k)), tuple.ID(uint64(k)*10)), 0) //nolint:errcheck
		}
		hand := func(row tuple.Tuple, n int) {
			logs[i] = append(logs[i], fmt.Sprintf("+%d %v", n, row.Fields[2]))
			if row.Fields[1].AsInt() == 2 { // more dead rows than live: compaction is due
				for _, k := range []int64{3, 4, 6, 7, 0} {
					tb.DeleteKey(tuple.New("r", tuple.Str("n1"), tuple.Int(k)))
				}
			}
		}
		lo, hi := tuple.ID(15), tuple.ID(65) // 20..60
		var visited, passed int
		if walk {
			visited = tb.MatchIndexed(0, []int{0}, []tuple.Value{tuple.Str("n1")}, func(row tuple.Tuple) {
				if !tuple.InInterval(row.Fields[2], lo, hi, false, false) {
					passed++
					return
				}
				hand(row, passed)
				passed = 0
			})
		} else {
			r := NewRange(2, 3, lo, hi, false, false)
			var ok bool
			if visited, passed, ok = tb.MatchRange(0, tuple.Str("n1"), &r, hand); !ok {
				t.Fatal("MatchRange did not answer")
			}
		}
		logs[i] = append(logs[i], fmt.Sprintf("+%d visited %d slab %d", passed, visited, len(tb.slab)))
		if !walk {
			checkRings(t, tb)
		}
	}
	if !slices.Equal(logs[0], logs[1]) {
		t.Fatalf("MatchRange %q, walk %q", logs[0], logs[1])
	}
	if want := []string{"+2 0x14", "+0 0x32", "+0 visited 4 slab 8"}; !slices.Equal(logs[0], want) {
		t.Fatalf("got %q, want %q", logs[0], want)
	}
}
