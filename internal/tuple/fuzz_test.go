package tuple

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal: arbitrary bytes never panic, whatever decodes
// re-encodes to something that decodes to an equal tuple, and the append
// decoder agrees with Unmarshal on every input.
func FuzzUnmarshal(f *testing.F) {
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
		ap, vals, an, aerr := UnmarshalAppend(pre, data)
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
