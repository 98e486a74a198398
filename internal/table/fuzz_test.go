package table

import (
	"fmt"
	"slices"
	"testing"

	"p2go/internal/tuple"
)

// tableAPI is what FuzzTableMatchesRef drives on Table and refTable alike.
type tableAPI interface {
	Insert(tuple.Tuple, float64) (bool, error)
	Delete(tuple.Tuple, float64) []tuple.Tuple
	DeleteKey(tuple.Tuple) bool
	Expire(float64)
	Clear()
	Scan(float64, func(tuple.Tuple))
	MatchIndexed(float64, []int, []tuple.Value, func(tuple.Tuple)) int
	Count() int
	NextExpiry() float64
	SizeBytes() int
	Subscribe(Listener) int
}

// script plays fuzz bytes as table operations and logs every result and
// every listener call, so two tables that agree log the same lines.
type script struct {
	tb  tableAPI
	ops []byte
	i   int
	now float64
	id  uint64
	log []string
}

func (s *script) next() byte {
	if s.i >= len(s.ops) {
		return 0
	}
	s.i++
	return s.ops[s.i-1]
}

func (s *script) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

func (s *script) row(t tuple.Tuple) string { return fmt.Sprintf("%v#%d", t, t.ID) }

// loc is a location specifier: mostly the node's own, sometimes another
// node's, sometimes a number that Equals its twin of the other kind but
// hashes apart from it.
func loc(b byte) tuple.Value {
	switch b % 8 {
	case 5:
		return tuple.Str("n2")
	case 6:
		return tuple.Int(-1)
	case 7:
		return tuple.Float(-1)
	}
	return tuple.Str("n1")
}

func field(i int, b byte) tuple.Value {
	switch i {
	case 0:
		return loc(b)
	case 1:
		return tuple.Int(int64(b % 6))
	}
	return tuple.Str(string(rune('a' + b%3)))
}

// tuple builds r(loc, k, v), or r(loc, k) for one byte in sixteen.
func (s *script) tuple() tuple.Tuple {
	n := 3
	if s.next()%16 == 0 {
		n = 2
	}
	t := tuple.Tuple{Name: "r", Fields: make([]tuple.Value, n)}
	for i := range t.Fields {
		t.Fields[i] = field(i, s.next())
	}
	s.id++
	t.ID = s.id
	return t
}

// probe picks [0], [0 k] or [k] and the values to look up.
func (s *script) probe() ([]int, []tuple.Value) {
	k := 1 + int(s.next()%2)
	var pos []int
	switch s.next() % 3 {
	case 0:
		pos = []int{0}
	case 1:
		pos = []int{0, k}
	default:
		pos = []int{k}
	}
	vals := make([]tuple.Value, len(pos))
	for j, p := range pos {
		vals[j] = field(p, s.next())
	}
	return pos, vals
}

// step plays one operation. A read at depth 0 plays one nested
// operation per row it visits, until the bytes run out; Clear, which no
// read survives, only runs at depth 0.
func (s *script) step(depth int) {
	if s.i >= len(s.ops) {
		return
	}
	visit := func(t tuple.Tuple) {
		s.logf("%d visit %s", depth, s.row(t))
		if depth == 0 {
			s.step(1)
		}
	}
	switch op := s.next(); op % 12 {
	case 0, 1, 2:
		t := s.tuple()
		changed, err := s.tb.Insert(t, s.now)
		s.logf("insert %s: %v %v", s.row(t), changed, err)
	case 3:
		pat := s.tuple()
		for i := range pat.Fields {
			if s.next()%2 == 0 {
				pat.Fields[i] = tuple.Nil
			}
		}
		s.logf("delete %v", pat)
		for _, t := range s.tb.Delete(pat, s.now) {
			s.logf("  removed %s", s.row(t))
		}
	case 4:
		t := s.tuple()
		s.logf("delete key %v: %v", t, s.tb.DeleteKey(t))
	case 5:
		s.now += float64(s.next() % 6)
		s.tb.Expire(s.now)
		s.logf("expire %v", s.now)
	case 6:
		if depth == 0 && op/12%4 == 0 {
			s.tb.Clear()
			s.logf("clear")
		}
	case 7, 8:
		pos, vals := s.probe()
		s.logf("%d probe %v %v", depth, pos, vals)
		s.logf("%d visited %d", depth, s.tb.MatchIndexed(s.now, pos, vals, visit))
	case 9:
		s.logf("%d scan", depth)
		s.tb.Scan(s.now, visit)
	case 10:
		s.logf("count %d next %v size %d", s.tb.Count(), s.tb.NextExpiry(), s.tb.SizeBytes())
	default:
		s.now += float64(s.next()%4) / 2
	}
}

// play runs ops on tb from an empty table, closing with a full scan.
func play(tb tableAPI, ops []byte) []string {
	s := &script{tb: tb, ops: ops}
	tb.Subscribe(func(op Op, t tuple.Tuple) { s.logf("listener %d %s", op, s.row(t)) })
	for s.i < len(s.ops) {
		s.step(0)
	}
	s.tb.Scan(s.now, func(t tuple.Tuple) { s.logf("final %s", s.row(t)) })
	return s.log
}

// fuzzSpec reads a table declaration from the first three bytes.
func fuzzSpec(b []byte) Spec {
	spec := Spec{Name: "r", Lifetime: Infinity, MaxSize: Infinity}
	if b[0]%4 != 0 {
		spec.Lifetime = float64(b[0]%4) * 3
	}
	if b[1]%3 != 0 {
		spec.MaxSize = int(b[1] % 9)
	}
	spec.Keys = [][]int{{2}, {1, 2}, nil, {3}}[b[2]%4]
	return spec
}

// FuzzTableMatchesRef holds Table to the table it replaced, kept in
// tableref_test.go: over inserts and replacements, pattern Delete,
// DeleteKey, expiry, eviction, Clear, and reads nested in reads that
// write, on probes of [0], [0 k] and [k], every read (rows, their order
// and IDs, and the visited count a probe bills) and every listener call
// must agree.
func FuzzTableMatchesRef(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 7, 0, 1, 2})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 7, 1, 1, 0, 9, 4, 0, 1, 0, 5, 5, 10})
	f.Add([]byte{2, 2, 2, 0, 6, 1, 1, 1, 0, 6, 2, 2, 8, 0, 0, 6, 9, 0, 2, 7, 3, 7, 3, 1, 5, 11, 6, 6, 6})
	f.Add([]byte{3, 4, 3, 2, 1, 2, 1, 0, 1, 2, 0, 1, 9, 4, 0, 1, 0, 3, 4, 1, 1, 2, 0, 7, 0, 2, 6, 5, 9, 9, 5, 3})
	for seed := byte(0); seed < 12; seed++ {
		ops := make([]byte, 120)
		x := uint32(seed)*2654435761 + 1
		for i := range ops {
			x = x*1664525 + 1013904223
			ops[i] = byte(x >> 24)
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 || len(b) > 512 {
			t.Skip()
		}
		spec := fuzzSpec(b)
		tb, ref := New(spec), newRef(spec)
		got, want := play(tb, b[3:]), play(ref, b[3:])
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("spec %+v: line %d: table %q, reference %q\n(context: %q)",
				spec, i, at(got, i), at(want, i), want[max(0, i-8):i])
		}
		if len(tb.slab) != len(ref.slab) || tb.count != ref.count {
			t.Fatalf("slab %d positions, %d live; reference %d, %d",
				len(tb.slab), tb.count, len(ref.slab), ref.count)
		}
	})
}

func firstDiff(a, b []string) int {
	if slices.Equal(a, b) {
		return -1
	}
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<end>"
}
