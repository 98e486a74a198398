package tuple

import (
	"bytes"
	"strconv"
	"testing"
	"unsafe"
)

// TestInternerOwnersShareNothing: a decode through an interner returns
// its canonical copy of every short string, the same on every decode,
// while another owner's decode, or Unmarshal's, which interns nothing,
// returns copies of its own.
func TestInternerOwnersShareNothing(t *testing.T) {
	raw := Marshal(nil, New("finger", Str("n1"), Int(3), List(Str("n2"))))
	var a, b Interner
	decode := func(in *Interner) []string {
		tp, _, _, err := UnmarshalAppend(in, nil, raw)
		if err != nil {
			t.Fatal(err)
		}
		return []string{tp.Name, tp.Fields[0].AsStr(), tp.Fields[2].AsList()[0].AsStr()}
	}
	plain, _, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	a1, a2, b1 := decode(&a), decode(&a), decode(&b)
	for i, s := range a1 {
		same := func(x string) bool { return unsafe.StringData(x) == unsafe.StringData(s) }
		if !same(a2[i]) {
			t.Errorf("string %d (%q): two decodes through one interner returned two copies", i, s)
		}
		if same(b1[i]) {
			t.Errorf("string %d (%q): two interners share one copy", i, s)
		}
	}
	if unsafe.StringData(plain.Name) == unsafe.StringData(a1[0]) {
		t.Error("Unmarshal returned an interner's copy of the name")
	}
	if len(a.strs) != 3 || len(b.strs) != 3 {
		t.Errorf("interners hold %d and %d strings, want 3 each", len(a.strs), len(b.strs))
	}
}

// TestInternerCaps: a string longer than maxInternLen passes through
// unkept, and once maxInternEntries strings are kept a miss keeps
// nothing more while a kept string still hits.
func TestInternerCaps(t *testing.T) {
	var in Interner
	long := bytes.Repeat([]byte{'x'}, maxInternLen+1)
	if s := in.Bytes(long); s != string(long) || len(in.strs) != 0 {
		t.Fatalf("a %d-byte string: got %d bytes, %d kept", len(long), len(s), len(in.strs))
	}
	in.Bytes(long[:maxInternLen])
	if len(in.strs) != 1 {
		t.Fatalf("a %d-byte string was not kept", maxInternLen)
	}
	first := in.Bytes(long[:maxInternLen])
	var buf []byte
	for i := 0; len(in.strs) < maxInternEntries; i++ {
		in.Bytes(strconv.AppendInt(buf[:0], int64(i), 36))
	}
	miss := []byte("past the cap")
	if s1, s2 := in.Bytes(miss), in.Bytes(miss); s1 != string(miss) || unsafe.StringData(s1) == unsafe.StringData(s2) {
		t.Error("a miss past the cap was kept")
	}
	if len(in.strs) != maxInternEntries {
		t.Errorf("the interner holds %d strings, want the cap %d", len(in.strs), maxInternEntries)
	}
	if s := in.Bytes(long[:maxInternLen]); unsafe.StringData(s) != unsafe.StringData(first) {
		t.Error("a kept string missed past the cap")
	}
}
