package table

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"p2go/internal/allocwin"
	"p2go/internal/tuple"
)

// TestRowSize: a stored row is a pointer to its fields and their
// count, ID, expiry and tombstone flag; the predicate name is the
// table's.
func TestRowSize(t *testing.T) {
	if n := unsafe.Sizeof(row{}); n > 32 {
		t.Errorf("row is %d bytes, want <= 32", n)
	}
}

// TestTableHoldsNoMaps: the store, its tables and their indexes find
// rows through position arrays, not Go maps, whose per-map overhead
// dominates the small tables a node holds by the dozen.
func TestTableHoldsNoMaps(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Map:
			t.Errorf("%s is a %v", path, ty)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	walk("Store", reflect.TypeOf(Store{}))
	walk("index", reflect.TypeOf(index{}))
}

// liveBytes returns the heap bytes each of n values mk builds keeps live.
func liveBytes(n int, mk func() any) float64 {
	keep := make([]any, n)
	before := allocwin.LiveBytes()
	for i := range keep {
		keep[i] = mk()
	}
	after := allocwin.LiveBytes()
	runtime.KeepAlive(keep)
	return float64(int64(after)-int64(before)) / float64(n)
}

// TestOneRowFootprint: a table holding one succ row costs its header,
// a one-row slab, the smallest key array and the row's fields, 320
// bytes on amd64; the bound leaves one size class of headroom.
func TestOneRowFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the bound is measured on a 64-bit platform")
	}
	spec := Spec{Name: "succ", Lifetime: 30, MaxSize: 16, Keys: []int{2}}
	r := succ("n1", 1, "n2")
	if b := liveBytes(10000, func() any {
		tb := New(spec)
		tb.Insert(r, 0) //nolint:errcheck
		return tb
	}); b > 336 {
		t.Errorf("a one-row table holds %.0f bytes, want <= 336", b)
	}
}

// tableShape is one table of a store: its declaration, its rows and
// the access paths its rules probe.
type tableShape struct {
	spec   Spec
	rows   int
	probes [][]int
}

// chordShape is a Chord node's store at ring1k-join's final row counts
// (mean rows per host after 40 virtual seconds of the 1 000-host join).
// The reflection and stats tables fill only when read, and nothing
// reads them there, so they hold no rows.
func chordShape() []tableShape {
	const inf = Infinity
	return []tableShape{
		{Spec{"ruleTable", inf, inf, []int{2, 3, 4}}, 0, nil},
		{Spec{"tableTable", inf, inf, []int{2}}, 0, nil},
		{Spec{"queryTable", inf, inf, []int{2}}, 0, nil},
		{Spec{"nodeStats", inf, inf, []int{3}}, 0, nil},
		{Spec{"queryStats", inf, inf, []int{3, 4}}, 0, nil},
		{Spec{"nodeEpoch", inf, inf, []int{1}}, 1, nil},
		{Spec{"node", inf, 1, []int{1}}, 1, [][]int{{0}}},
		{Spec{"landmark", inf, 1, []int{1}}, 1, [][]int{{0}}},
		{Spec{"succ", 30, 16, []int{2}}, 10, [][]int{{0}, {0, 2}}},
		{Spec{"pred", inf, 1, []int{1}}, 1, [][]int{{0}, {0, 2}}},
		{Spec{"bestSucc", inf, 1, []int{1}}, 1, [][]int{{0}, {0, 2}}},
		{Spec{"finger", 180, 64, []int{2}}, 13, [][]int{{0}, {0, 3}}},
		{Spec{"uniqueFinger", 180, 64, []int{2}}, 7, [][]int{{0}, {0, 1}}},
		{Spec{"nextFingerFix", inf, 1, []int{1}}, 1, [][]int{{0}}},
		{Spec{"fingerLookup", 60, 16, []int{2}}, 2, [][]int{{0, 1}, {0, 2}}},
		{Spec{"pingNode", 12, 48, []int{2}}, 11, [][]int{{0}, {0, 1}}},
		{Spec{"lastHeard", 60, 48, []int{2}}, 15, [][]int{{0, 1}}},
		{Spec{"faultyNode", 30, 16, []int{2}}, 3, [][]int{{0}, {0, 1}}},
	}
}

// BenchmarkFootprint builds one Chord-shaped node store per iteration
// and reports the heap bytes a live row costs, its table's share of the
// structures included, beside the allocations per store and per row.
func BenchmarkFootprint(b *testing.B) {
	shape := chordShape()
	rows := make([][]tuple.Tuple, len(shape))
	total := 0
	for i, sh := range shape {
		for k := range sh.rows {
			rows[i] = append(rows[i], tuple.New(sh.spec.Name, tuple.Str("n1"),
				tuple.ID(uint64(k)), tuple.ID(uint64(k)*7), tuple.Int(int64(k))))
		}
		total += sh.rows
	}
	build := func() *Store {
		s := NewStore()
		for i, sh := range shape {
			tb, _ := s.Materialize(sh.spec)
			for _, r := range rows[i] {
				tb.Insert(r, 0) //nolint:errcheck
			}
			for _, pos := range sh.probes {
				vals := make([]tuple.Value, len(pos))
				for j, p := range pos {
					vals[j] = rows[i][0].Fields[p]
				}
				tb.MatchIndexed(0, pos, vals, func(tuple.Tuple) {})
			}
		}
		return s
	}
	perRow := liveBytes(200, func() any { return build() }) / float64(total)
	b.ReportAllocs()
	w := allocwin.Measure(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchRows += build().LiveTuples()
		}
		b.StopTimer()
	})
	b.ReportMetric(perRow, "B/row")
	b.ReportMetric(float64(w.Objects)/float64(b.N*total), "allocs/row")
}
