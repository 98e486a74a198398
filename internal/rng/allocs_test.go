//go:build !race

package rng

import (
	"testing"

	"p2go/internal/allocwin"
)

// TestDrawAllocs: a stream allocates nothing over its first 606 draws,
// exactly one vector at its 607th (rngLen words, 4 856 bytes, in the
// 4 864-byte size class), and nothing per draw after. Each window is
// measured on a fresh stream drawn up to its start.
func TestDrawAllocs(t *testing.T) {
	for _, c := range []struct {
		from, to       int // draws, 1-based, both inclusive
		objects, bytes uint64
	}{
		{1, rngLen - 1, 0, 0},
		{rngLen, rngLen, 1, 4864},
		{rngLen + 1, 700, 0, 0},
	} {
		var s Source
		w, all := allocwin.Exact(func() {
			s = Make(7)
			for k := 1; k < c.from; k++ {
				s.Uint64()
			}
		}, func() {
			for k := c.from; k <= c.to; k++ {
				s.Uint64()
			}
		})
		if w.Objects != c.objects || w.Bytes != c.bytes {
			for _, w := range all {
				t.Log(w)
			}
			t.Errorf("draws %d-%d: %d allocs of %d bytes, want %d of %d",
				c.from, c.to, w.Objects, w.Bytes, c.objects, c.bytes)
		}
	}
}
