package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// TestValueLayout pins the two-word layout: 16 bytes, no ==, and the
// empty string, the empty list and nil kept apart although none of them
// has a payload.
func TestValueLayout(t *testing.T) {
	typ := reflect.TypeOf(Value{})
	if typ.Size() != 16 {
		t.Errorf("a Value is %d bytes, want 16", typ.Size())
	}
	if typ.Comparable() {
		t.Error("Value is comparable: == would compare data pointers, not contents")
	}
	if Str("").Kind() != KindStr || List().Kind() != KindList || Nil.Kind() != KindNil {
		t.Errorf(`kinds: Str("") %s, List() %s, Nil %s`, Str("").Kind(), List().Kind(), Nil.Kind())
	}
	if Str("").IsNil() || List().IsNil() || !Nil.IsNil() || !(Value{}).IsNil() {
		t.Error(`only Nil may be nil; Str("") and List() are not`)
	}
	if Nil.p != nil || Nil.n != 0 {
		t.Errorf("Nil is not the zero Value: %#v", Nil)
	}
}

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Nil, KindNil},
		{Int(-7), KindInt},
		{ID(42), KindID},
		{Float(3.5), KindFloat},
		{Str("hello"), KindStr},
		{Bool(true), KindBool},
		{List(Int(1), Str("a")), KindList},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if got := Int(-7).AsInt(); got != -7 {
		t.Errorf("AsInt = %d, want -7", got)
	}
	if got := ID(1 << 63).AsID(); got != 1<<63 {
		t.Errorf("AsID = %d", got)
	}
	if got := Float(2.25).AsFloat(); got != 2.25 {
		t.Errorf("AsFloat = %v", got)
	}
	if got := Str("x").AsStr(); got != "x" {
		t.Errorf("AsStr = %q", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("AsBool wrong")
	}
	l := List(Int(1), Int(2)).AsList()
	if len(l) != 2 || l[1].AsInt() != 2 {
		t.Errorf("AsList = %v", l)
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(ID(3)) {
		t.Error("Int(3) should equal ID(3)")
	}
	if !Float(3).Equal(Int(3)) {
		t.Error("Float(3) should equal Int(3)")
	}
	if Int(-1).Equal(ID(math.MaxUint64)) {
		t.Error("Int(-1) must not equal ID(MaxUint64)")
	}
	if Str("3").Equal(Int(3)) {
		t.Error("Str vs Int must not be equal")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(3), ID(3)},
		{Float(7), Int(7)},
		{Str("abc"), Str("abc")},
		{List(Int(1), Str("x")), List(Int(1), Str("x"))},
	}
	for _, p := range pairs {
		if !p[0].Equal(p[1]) {
			t.Fatalf("%v != %v", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("hash mismatch for equal values %v and %v", p[0], p[1])
		}
	}
}

// TestHashFieldsAtMatchesProjection: an index bucket key computed from a
// row (HashFieldsAt) must be the key a probe computes from the projected
// values (HashValues), including a position past the row's arity.
func TestHashFieldsAtMatchesProjection(t *testing.T) {
	fields := []Value{Str("n1"), Int(7), Float(2.5), List(ID(9), Str("x"))}
	for _, positions := range [][]int{{}, {0}, {3, 1}, {2, 2, 0}, {1, 4}, {9}} {
		proj := make([]Value, len(positions))
		for i, p := range positions {
			if p < len(fields) {
				proj[i] = fields[p]
			}
		}
		if got, want := HashFieldsAt(fields, positions), HashValues(proj); got != want {
			t.Errorf("positions %v: HashFieldsAt = %#x, HashValues of the projection = %#x", positions, got, want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	if Int(1).Compare(Int(2)) >= 0 {
		t.Error("1 < 2")
	}
	if ID(math.MaxUint64).Compare(ID(0)) <= 0 {
		t.Error("max id > 0")
	}
	if Str("a").Compare(Str("b")) >= 0 {
		t.Error("a < b")
	}
	if List(Int(1)).Compare(List(Int(1), Int(2))) >= 0 {
		t.Error("shorter list sorts first")
	}
}

func TestArithmetic(t *testing.T) {
	mustAdd := func(a, b Value) Value {
		t.Helper()
		v, err := Add(a, b)
		if err != nil {
			t.Fatalf("Add(%v,%v): %v", a, b, err)
		}
		return v
	}
	if got := mustAdd(Int(2), Int(3)); got.AsInt() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustAdd(Str("n"), Int(1)); got.AsStr() != "n1" {
		t.Errorf("str concat = %v", got)
	}
	if got := mustAdd(List(Int(1)), List(Int(2))); len(got.AsList()) != 2 {
		t.Errorf("list concat = %v", got)
	}
	// Ring arithmetic wraps.
	if got, _ := Sub(ID(1), ID(3)); got.AsID() != math.MaxUint64-1 {
		t.Errorf("ring 1-3 = %v", got)
	}
	if got, _ := Shl(Int(1), Int(10)); got.AsID() != 1024 {
		t.Errorf("1<<10 = %v", got)
	}
	if got, _ := Div(Int(7), Int(2)); got.AsInt() != 3 {
		t.Errorf("7/2 = %v", got)
	}
	if got, _ := Div(Int(7), Float(2)); got.AsFloat() != 3.5 {
		t.Errorf("7/2.0 = %v", got)
	}
	if got, _ := Mod(Int(7), Int(3)); got.AsInt() != 1 {
		t.Errorf("7%%3 = %v", got)
	}
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("div by zero must error")
	}
	if _, err := Add(Bool(true), Int(1)); err == nil {
		t.Error("bool+int must error")
	}
}

func TestInInterval(t *testing.T) {
	cases := []struct {
		k, lo, hi      uint64
		loOpen, hiOpen bool
		want           bool
	}{
		{5, 1, 10, true, true, true},
		{1, 1, 10, true, true, false},   // open low excludes
		{10, 1, 10, true, false, true},  // closed high includes
		{10, 1, 10, true, true, false},  // open high excludes
		{0, 250, 10, true, false, true}, // wraparound
		{100, 250, 10, true, false, false},
		{7, 7, 7, true, false, true},  // (a, a] = full ring
		{9, 7, 7, true, false, true},  // (a, a] = full ring
		{7, 7, 7, false, false, true}, // [a, a] = point
		{9, 7, 7, false, false, false},
		{7, 7, 7, true, true, false}, // (a, a) excludes a
		{9, 7, 7, true, true, true},
	}
	for _, c := range cases {
		got := InInterval(ID(c.k), ID(c.lo), ID(c.hi), c.loOpen, c.hiOpen)
		if got != c.want {
			t.Errorf("InInterval(%d in %d..%d, loOpen=%v hiOpen=%v) = %v, want %v",
				c.k, c.lo, c.hi, c.loOpen, c.hiOpen, got, c.want)
		}
	}
}

// TestFloatRingPosition pins where a float sits on the ring, for ring
// arithmetic and `in`: toward zero, a negative as its two's complement,
// and NaN, the infinities and anything past int64's low end or uint64's
// high end at 2^63 — what amd64's conversion gives, on every platform.
func TestFloatRingPosition(t *testing.T) {
	const half = 1 << 63
	cases := []struct {
		f    float64
		want uint64
	}{
		{0, 0},
		{math.Copysign(0, -1), 0},
		{1.9, 1},
		{-0.5, 0},
		{-1.5, math.MaxUint64},
		{-2, math.MaxUint64 - 1},
		{-(1 << 62), 3 << 62},
		{-(1 << 63), half},
		{-1e19, half},
		{math.Inf(-1), half},
		{1 << 62, 1 << 62},
		{math.Nextafter(1<<63, 0), 1<<63 - 1024},
		{1 << 63, half},
		{1e19, 0x8ac7230489e80000},
		{math.Nextafter(1<<64, 0), math.MaxUint64 - 2047},
		{1 << 64, half},
		{2e19, half},
		{math.Inf(1), half},
		{math.NaN(), half},
	}
	for _, c := range cases {
		if got := Float(c.f).AsRing(); got != c.want {
			t.Errorf("Float(%g).AsRing() = %#x, want %#x", c.f, got, c.want)
		}
		if got := refFloat(c.f).asRing(); got != c.want {
			t.Errorf("reference: %g sits at %#x, want %#x", c.f, got, c.want)
		}
		// Ring arithmetic and `in` read the same position.
		if d, _ := Sub(Float(c.f), ID(0)); d.AsID() != c.want {
			t.Errorf("%g - id 0 = %#x, want %#x", c.f, d.AsID(), c.want)
		}
		if !InInterval(Float(c.f), ID(c.want), ID(c.want), false, false) {
			t.Errorf("%g not in [%#x, %#x]", c.f, c.want, c.want)
		}
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	// On amd64 the definition is the hardware conversion, bit for bit.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		f := math.Float64frombits(r.Uint64())
		if i%2 == 0 {
			f = math.Ldexp(r.NormFloat64(), r.Intn(140)-10)
		}
		if got, want := Float(f).AsRing(), uint64(f); got != want {
			t.Fatalf("Float(%g).AsRing() = %#x, amd64 converts to %#x", f, got, want)
		}
	}
}

// Property: for distinct lo != hi, each key is either inside (lo,hi] or
// inside (hi,lo], never both, never neither — the two arcs partition the
// ring. This is the invariant Chord's routing correctness rests on.
func TestIntervalPartitionProperty(t *testing.T) {
	f := func(k, lo, hi uint64) bool {
		if lo == hi {
			return true
		}
		a := InInterval(ID(k), ID(lo), ID(hi), true, false)
		b := InInterval(ID(k), ID(hi), ID(lo), true, false)
		return a != b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruth(t *testing.T) {
	if !Bool(true).Truth() || Bool(false).Truth() {
		t.Error("bool truth")
	}
	if Nil.Truth() {
		t.Error("nil is false")
	}
	if !Int(0).Truth() {
		t.Error("non-bool non-nil values are true")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"nil":    Nil,
		"-3":     Int(-3),
		"3.5":    Float(3.5),
		`"hi"`:   Str("hi"),
		"true":   Bool(true),
		"[1, 2]": List(Int(1), Int(2)),
		"0xff":   ID(255),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
}

func TestArithmeticIDVariants(t *testing.T) {
	if v, _ := Mul(ID(3), Int(4)); v.AsID() != 12 {
		t.Errorf("ID*Int = %v", v)
	}
	if v, _ := Mul(Float(2), Int(3)); v.AsFloat() != 6 {
		t.Errorf("Float*Int = %v", v)
	}
	if v, _ := Div(ID(9), Int(2)); v.AsID() != 4 {
		t.Errorf("ID/Int = %v", v)
	}
	if _, err := Div(ID(9), Int(0)); err == nil {
		t.Error("ID/0 must fail")
	}
	if v, _ := Div(Float(9), Float(2)); v.AsFloat() != 4.5 {
		t.Errorf("Float/Float = %v", v)
	}
	if _, err := Div(Float(1), Float(0)); err == nil {
		t.Error("float div by zero must fail")
	}
	if v, _ := Mod(ID(9), Int(4)); v.AsID() != 1 {
		t.Errorf("ID%%Int = %v", v)
	}
	if _, err := Mod(ID(9), Int(0)); err == nil {
		t.Error("ID%%0 must fail")
	}
	if _, err := Mod(Float(1), Float(2)); err == nil {
		t.Error("float modulo must fail")
	}
	if v, _ := Sub(Float(5), Int(2)); v.AsFloat() != 3 {
		t.Errorf("Float-Int = %v", v)
	}
	if _, err := Sub(Str("a"), Float(1)); err == nil {
		t.Error("str-float must fail")
	}
	if _, err := Shl(Str("a"), Int(1)); err == nil {
		t.Error("str<<int must fail")
	}
}

func TestCompareMixedKinds(t *testing.T) {
	// Different non-numeric kinds order by kind tag, deterministically.
	if Str("z").Compare(Bool(true)) == 0 {
		t.Error("str vs bool must not compare equal")
	}
	if Int(3).Compare(Float(3.5)) >= 0 {
		t.Error("3 < 3.5 across kinds")
	}
	if List(Int(1), Int(2)).Compare(List(Int(1), Int(3))) >= 0 {
		t.Error("lexicographic list compare")
	}
}

func TestSortValues(t *testing.T) {
	vs := []Value{Int(3), Int(1), Int(2)}
	SortValues(vs)
	for i, want := range []int64{1, 2, 3} {
		if vs[i].AsInt() != want {
			t.Fatalf("sorted = %v", vs)
		}
	}
}
