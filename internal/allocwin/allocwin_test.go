package allocwin

import (
	"runtime"
	"testing"
)

var sink *[64]byte

// TestExactAllocs: an empty window reads no object and no byte, and a
// window allocating one 64-byte array reads exactly that, every time.
func TestExactAllocs(t *testing.T) {
	for _, c := range []struct {
		name           string
		fn             func()
		objects, bytes uint64
	}{
		{"empty", func() {}, 0, 0},
		{"one object", func() { sink = new([64]byte) }, 1, 64},
	} {
		for i := 0; i < 1000; i++ {
			if w, all := Exact(nil, c.fn); w.Objects != c.objects || w.Bytes != c.bytes {
				for _, w := range all {
					t.Log(w)
				}
				t.Fatalf("%s window %d: %d objects of %d B, want %d of %d", c.name, i, w.Objects, w.Bytes, c.objects, c.bytes)
			}
		}
	}
}

// TestCollectionIsNotQuiet: a window a collection ended in is not Quiet.
func TestCollectionIsNotQuiet(t *testing.T) {
	if w := Measure(runtime.GC); w.GCs == 0 || w.Quiet() {
		t.Errorf("a window calling runtime.GC: %v, quiet %v", w, w.Quiet())
	}
}

// TestLiveBytes: an array kept alive across the reading is counted.
func TestLiveBytes(t *testing.T) {
	before := LiveBytes()
	keep := make([]byte, 1<<20)
	after := LiveBytes()
	runtime.KeepAlive(keep)
	if after < before+1<<20 {
		t.Errorf("live heap %d B before a 1 MB array, %d B with it", before, after)
	}
}
