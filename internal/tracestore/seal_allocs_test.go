//go:build !race

// An allocation count is a statement about the normal build; `make
// check` runs the `Allocs` tests without the race detector.

package tracestore

import (
	"fmt"
	"testing"
)

// TestSealAllocs: a rotation allocates what it leaves behind and no more
// — the Sealed, its exact-size data, the next window's segment and its
// three column arrays — whether the window held two distinct strings or
// four hundred. The dictionary, its map and the encode buffer are the
// store's, warm after the first seal.
func TestSealAllocs(t *testing.T) {
	const want = 6
	for _, distinct := range []int{2, 400} {
		names := make([]string, distinct)
		for i := range names {
			names[i] = fmt.Sprint("name", i)
		}
		// Retention never bites: an eviction moves the sealed list along
		// its array, and the append after it may have to move the array.
		st := New("n1", Config{WindowSeconds: 1, MaxSegments: 1 << 20, MaxBytes: 1 << 40})
		window := 0
		step := func() { // one window's records; its first append seals the last window
			tm := float64(window)
			window++
			for i := 0; i < 400; i++ {
				id := uint64(window*1000 + i)
				st.AppendExec(Exec{Rule: names[i%distinct], InID: id, OutID: id + 1, InT: tm, OutT: tm, IsEvent: i%2 == 0})
				st.AppendHop(Hop{ID: id, Src: names[(i+1)%distinct], SrcID: id, Dst: "n1", T: tm})
				st.AppendEvent(Event{Op: "insert", Name: names[(i+2)%distinct], ID: id, T: tm})
			}
		}
		step() // the first window grows its columns from nothing
		step() // the first seal grows the scratch
		// AllocsPerRun rounds down, which drops the sealed list's few doublings.
		if n := testing.AllocsPerRun(100, step); n != want {
			t.Errorf("%d distinct strings: a window and its rotation allocate %v objects, want %d", distinct, n, want)
		}
		if got := st.Stats().Sealed; got != 102 {
			t.Fatalf("sealed %d segments, want 102", got)
		}
	}
}
