package tuple

import (
	"bytes"
	"math"
	"testing"
)

// FuzzUnmarshal: arbitrary bytes never panic, whatever decodes
// re-encodes to something that decodes to an equal tuple, and the append
// decoder, interning through one owner across inputs, agrees with
// Unmarshal on every input.
func FuzzUnmarshal(f *testing.F) {
	var in Interner
	f.Add([]byte{})
	f.Add(Marshal(nil, New("pred", Str("n1"), ID(10), Str("n2"))))
	f.Add(Marshal(nil, New("mix", Str("loc"), Int(-5), Float(2.75), Bool(true),
		Nil, List(Int(1), List(Str("nested"))))))
	f.Add([]byte{0x01, 0x78, 0x01, 0x63})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, n, err := Unmarshal(data)
		// The append decoder is the same decoder: same tuple, byte count
		// and error, with what dst already held left alone (narrow tuples
		// land in its spare capacity, wide ones move it).
		pre := append(make([]Value, 0, 6), Str("kept"), Int(7))
		ap, vals, an, aerr := UnmarshalAppend(&in, pre, data)
		if an != n || (aerr == nil) != (err == nil) || (err != nil && aerr.Error() != err.Error()) {
			t.Fatalf("UnmarshalAppend = (%d, %v), Unmarshal = (%d, %v)", an, aerr, n, err)
		}
		if len(vals) != 2+len(ap.Fields) || !vals[0].Equal(Str("kept")) || !vals[1].Equal(Int(7)) ||
			!pre[0].Equal(Str("kept")) || !pre[1].Equal(Int(7)) {
			t.Fatalf("UnmarshalAppend disturbed its destination: %v (was %v)", vals, pre)
		}
		if err != nil {
			return
		}
		if ap.Name != tp.Name || !bytes.Equal(Marshal(nil, ap), Marshal(nil, tp)) ||
			!bytes.Equal(Marshal(nil, Tuple{Name: ap.Name, Fields: vals[2:]}), Marshal(nil, tp)) {
			t.Fatalf("UnmarshalAppend decoded %v, Unmarshal %v", ap, tp)
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re := Marshal(nil, tp)
		tp2, n2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// Byte-level canonical equality (Value.Equal would reject NaN
		// floats, which legitimately round-trip).
		if n2 != len(re) || !bytes.Equal(re, Marshal(nil, tp2)) {
			t.Fatalf("re-encode mismatch: %v vs %v", tp, tp2)
		}
	})
}

// FuzzValueCodec: every decodable value round-trips byte-identically
// after one re-encode (canonical form).
func FuzzValueCodec(f *testing.F) {
	for _, v := range []Value{Int(-1), ID(42), Float(3.5), Str("x"), Bool(true),
		List(Int(1), Str("a"))} {
		f.Add(Marshal(nil, New("t", v)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, _, err := Unmarshal(data)
		if err != nil {
			return
		}
		a := Marshal(nil, tp)
		tp2, _, err := Unmarshal(a)
		if err != nil {
			t.Fatal(err)
		}
		b := Marshal(nil, tp2)
		if !bytes.Equal(a, b) {
			t.Fatalf("non-canonical encoding: %x vs %x", a, b)
		}
	})
}

// valueGen reads values off fuzz bytes, each built twice: as a Value and
// as the reference refValue. A byte past the end reads as 0.
type valueGen struct{ data []byte }

func (g *valueGen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *valueGen) word() uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w = w<<8 | uint64(g.next())
	}
	return w
}

// value reads one value. A selector byte picks the kind and whether a
// number takes one byte (so an int, an id and a float often meet at the
// same value) or eight; lists nest up to depth levels.
func (g *valueGen) value(depth int) (Value, refValue) {
	sel := g.next()
	wide := sel/7%2 == 1
	switch Kind(sel % 7) {
	case KindInt:
		n := int64(int8(g.next()))
		if wide {
			n = int64(g.word())
		}
		return Int(n), refInt(n)
	case KindID:
		n := uint64(g.next())
		if wide {
			n = g.word()
		}
		return ID(n), refID(n)
	case KindFloat:
		f := float64(int8(g.next())) / 2
		if wide {
			f = math.Float64frombits(g.word())
		}
		return Float(f), refFloat(f)
	case KindStr:
		n := min(int(g.next()), len(g.data))
		s := string(g.data[:n])
		g.data = g.data[n:]
		return Str(s), refStr(s)
	case KindBool:
		b := g.next()%2 == 1
		return Bool(b), refBool(b)
	case KindList:
		n := 0
		if depth > 0 {
			n = int(g.next() % 4)
		}
		vs, rs := make([]Value, n), make([]refValue, n)
		for i := range vs {
			vs[i], rs[i] = g.value(depth - 1)
		}
		return List(vs...), refList(rs...)
	}
	return Nil, refNil
}

// checkValue fails t unless v reads back exactly as the reference r
// through every accessor, wrong kinds included.
func checkValue(t *testing.T, what string, v Value, r refValue) {
	t.Helper()
	switch {
	case v.Kind() != r.Kind() || v.IsNil() != r.IsNil() || v.Numeric() != r.Numeric() || v.Truth() != r.Truth():
		t.Fatalf("%s %v: kind %s nil %v numeric %v truth %v, reference %s %v %v %v", what, r,
			v.Kind(), v.IsNil(), v.Numeric(), v.Truth(), r.Kind(), r.IsNil(), r.Numeric(), r.Truth())
	case v.AsInt() != r.AsInt() || v.AsID() != r.AsID() || v.AsBool() != r.AsBool() ||
		math.Float64bits(v.AsFloat()) != math.Float64bits(r.AsFloat()) || v.AsStr() != r.AsStr():
		t.Fatalf("%s %v: As* = %d %d %v %v %q, reference %d %d %v %v %q", what, r,
			v.AsInt(), v.AsID(), v.AsBool(), v.AsFloat(), v.AsStr(),
			r.AsInt(), r.AsID(), r.AsBool(), r.AsFloat(), r.AsStr())
	case v.String() != r.String() || v.Hash() != r.Hash() || v.sizeBytes() != r.sizeBytes():
		t.Fatalf("%s %v: String %s Hash %#x sizeBytes %d, reference %s %#x %d", what, r,
			v, v.Hash(), v.sizeBytes(), r, r.Hash(), r.sizeBytes())
	case len(v.AsList()) != len(r.AsList()):
		t.Fatalf("%s %v: AsList has %d elements, reference %d", what, r, len(v.AsList()), len(r.AsList()))
	}
	for i, e := range v.AsList() {
		checkValue(t, what+" element", e, r.AsList()[i])
	}
}

// checkResult compares an operator's result and error with the reference.
// A NaN result only has to be a NaN: which operand's NaN the hardware
// passes on depends on the registers the compiler chose.
func checkResult(t *testing.T, op string, v Value, err error, r refValue, rerr error) {
	t.Helper()
	if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
		t.Fatalf("%s: error %v, reference %v", op, err, rerr)
	}
	if r.Kind() == KindFloat && math.IsNaN(r.AsFloat()) {
		if v.Kind() != KindFloat || !math.IsNaN(v.AsFloat()) {
			t.Fatalf("%s = %v, reference NaN", op, v)
		}
		return
	}
	checkValue(t, op, v, r)
}

// FuzzValueOps: the two-word Value behaves exactly as the 56-byte one it
// replaced (valueref_test.go), on every operation and accessor and on
// the wire, for values of every kind including nested and empty lists,
// empty and long strings, negative ints and NaN floats.
func FuzzValueOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0xfd, 1, 2, 3})                              // Int(-3), ID(3)
	f.Add([]byte{3, 6, 1, 1, 3, 2, 6})                           // Float(3), Int(3); ID(6)
	f.Add([]byte{4, 2, 'n', '1', 1, 4, 2, 'n', '1'})             // two equal strings, apart
	f.Add([]byte{4, 0, 1, 6, 0})                                 // Str(""), List()
	f.Add([]byte{6, 3, 1, 5, 4, 1, 'x', 6, 1, 2, 9, 1, 6, 1, 5}) // nested lists
	f.Add([]byte{8, 0x80, 0, 0, 0, 0, 0, 0, 1, 1, 9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{10, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 1, 12, 1}) // NaN, Bool(true)
	f.Add(append([]byte{4, 100}, bytes.Repeat([]byte{'a'}, 100)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := valueGen{data}
		a, ra := g.value(3)
		b, rb := a, ra // sometimes one value twice: the same data on both sides
		if g.next()%4 != 0 {
			b, rb = g.value(3)
		}
		checkValue(t, "a", a, ra)
		checkValue(t, "b", b, rb)
		pairs := [][2]Value{{a, b}, {b, a}, {a, a}}
		refs := [][2]refValue{{ra, rb}, {rb, ra}, {ra, ra}}
		for i, p := range pairs {
			x, y, rx, ry := p[0], p[1], refs[i][0], refs[i][1]
			if x.Equal(y) != rx.Equal(ry) || x.Compare(y) != rx.Compare(ry) {
				t.Fatalf("%v vs %v: Equal %v Compare %d, reference %v %d", rx, ry,
					x.Equal(y), x.Compare(y), rx.Equal(ry), rx.Compare(ry))
			}
			v, err := Add(x, y)
			r, rerr := refAdd(rx, ry)
			checkResult(t, "Add", v, err, r, rerr)
			v, err = Sub(x, y)
			r, rerr = refSub(rx, ry)
			checkResult(t, "Sub", v, err, r, rerr)
			v, err = Mul(x, y)
			r, rerr = refMul(rx, ry)
			checkResult(t, "Mul", v, err, r, rerr)
			v, err = Div(x, y)
			r, rerr = refDiv(rx, ry)
			checkResult(t, "Div", v, err, r, rerr)
			v, err = Mod(x, y)
			r, rerr = refMod(rx, ry)
			checkResult(t, "Mod", v, err, r, rerr)
			v, err = Shl(x, y)
			r, rerr = refShl(rx, ry)
			checkResult(t, "Shl", v, err, r, rerr)
			for open := 0; open < 4; open++ {
				lo, hi := open&1 == 1, open&2 == 2
				for _, k := range []int{0, 1} {
					kv, rk := x, rx
					if k == 1 {
						kv, rk = y, ry
					}
					if InInterval(kv, x, y, lo, hi) != refInInterval(rk, rx, ry, lo, hi) {
						t.Fatalf("InInterval(%v, %v, %v, %v, %v) disagrees with the reference", rk, rx, ry, lo, hi)
					}
				}
			}
		}
		tp := New("t", a, b)
		if got, want := Marshal(nil, tp), refMarshal(nil, "t", []refValue{ra, rb}); !bytes.Equal(got, want) {
			t.Fatalf("Marshal(%v, %v) = %x, reference %x", ra, rb, got, want)
		}
		if got, want := EncodedSize(tp), refEncodedSize("t", []refValue{ra, rb}); got != want {
			t.Fatalf("EncodedSize(%v, %v) = %d, reference %d", ra, rb, got, want)
		}
	})
}
