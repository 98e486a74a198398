package tuple

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTupleBasics(t *testing.T) {
	tp := New("pred", Str("n1"), ID(10), Str("n2"))
	if tp.Loc() != "n1" {
		t.Errorf("Loc = %q", tp.Loc())
	}
	if tp.Arity() != 3 {
		t.Errorf("Arity = %d", tp.Arity())
	}
	if !tp.Field(1).Equal(ID(10)) {
		t.Errorf("Field(1) = %v", tp.Field(1))
	}
	if got := tp.String(); got != `pred@n1(0xa, "n2")` {
		t.Errorf("String = %q", got)
	}
	w := tp.WithID(7)
	if w.ID != 7 || tp.ID != 0 {
		t.Error("WithID must copy")
	}
}

func TestTupleEqualIgnoresID(t *testing.T) {
	a := New("x", Str("n1"), Int(1)).WithID(5)
	b := New("x", Str("n1"), Int(1)).WithID(9)
	if !a.Equal(b) {
		t.Error("equal content with different IDs must be Equal")
	}
	if a.Hash() != b.Hash() {
		t.Error("hash must ignore ID")
	}
	c := New("y", Str("n1"), Int(1))
	if a.Equal(c) {
		t.Error("different names must differ")
	}
}

func TestKeyHashAndEqual(t *testing.T) {
	a := New("succ", Str("n1"), ID(10), Str("n2"))
	b := New("succ", Str("n1"), ID(10), Str("n3"))
	keys := []int{1, 2}
	if a.KeyHash(keys) != b.KeyHash(keys) {
		t.Error("same key fields must hash equal")
	}
	if !a.KeyEqual(b, keys) {
		t.Error("KeyEqual on matching prefix")
	}
	if a.KeyEqual(b, []int{3}) {
		t.Error("KeyEqual must detect differing field 3")
	}
	// Out-of-range key positions compare as nil on both sides.
	if !a.KeyEqual(b, []int{9}) {
		t.Error("out-of-range keys treated as nil")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	tuples := []Tuple{
		New("empty"),
		New("pred", Str("n1"), ID(10), Str("n2")),
		New("mix", Str("loc"), Int(-5), Float(2.75), Bool(true), Nil,
			List(Int(1), List(Str("nested")), ID(9))),
	}
	var buf []byte
	for _, tp := range tuples {
		buf = Marshal(buf, tp)
	}
	pos := 0
	for _, want := range tuples {
		got, n, err := Unmarshal(buf[pos:])
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		pos += n
		if !got.Equal(want) {
			t.Errorf("round trip: got %v, want %v", got, want)
		}
	}
	if pos != len(buf) {
		t.Errorf("consumed %d of %d bytes", pos, len(buf))
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good := Marshal(nil, New("x", Str("n1"), Int(3)))
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := Unmarshal(good[:cut]); err == nil {
			t.Errorf("truncation at %d must fail", cut)
		}
	}
	if _, _, err := Unmarshal([]byte{1, 'x', 1, 99}); err == nil {
		t.Error("unknown kind must fail")
	}
}

// TestDecodedValuesOwnTheirBytes: a decoded Value holds a raw pointer to
// its string bytes or list elements, so the decoder must never leave one
// pointing into the wire buffer, which the realtime reader reuses for
// the next datagram.
func TestDecodedValuesOwnTheirBytes(t *testing.T) {
	short := "n1"                             // interned
	long := strings.Repeat("payload-", 10)    // past maxInternLen: copied
	list := List(Str("a"), ID(9), Str(short)) // elements built on the heap
	want := New("pred", Str(short), Str(long), list, Str(""))
	buf := Marshal(nil, want)
	got, _, n, err := UnmarshalAppend(make([]Value, 0, 8), buf)
	if err != nil || n != len(buf) {
		t.Fatalf("UnmarshalAppend: %d of %d bytes, %v", n, len(buf), err)
	}
	for i := range buf {
		buf[i] = 0xff
	}
	if !got.Equal(want) {
		t.Fatalf("after overwriting the wire buffer: decoded %v, want %v", got, want)
	}
}

// randomValue builds an arbitrary Value for property-based testing.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(7)
	if depth <= 0 && k == 6 {
		k = r.Intn(6)
	}
	switch k {
	case 0:
		return Nil
	case 1:
		return Int(int64(r.Uint64()))
	case 2:
		return ID(r.Uint64())
	case 3:
		return Float(r.NormFloat64())
	case 4:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return Str(string(b))
	case 5:
		return Bool(r.Intn(2) == 0)
	default:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return List(elems...)
	}
}

type randTuple Tuple

// Generate implements quick.Generator so codec round-trip is checked over
// arbitrary tuples.
func (randTuple) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(6)
	fields := make([]Value, n)
	for i := range fields {
		fields[i] = randomValue(r, 2)
	}
	name := make([]byte, 1+r.Intn(8))
	for i := range name {
		name[i] = byte('a' + r.Intn(26))
	}
	return reflect.ValueOf(randTuple(New(string(name), fields...)))
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(rt randTuple) bool {
		want := Tuple(rt)
		buf := Marshal(nil, want)
		got, n, err := Unmarshal(buf)
		return err == nil && n == len(buf) && got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSizeBytesPositive(t *testing.T) {
	f := func(rt randTuple) bool {
		return Tuple(rt).SizeBytes() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
