//go:build !race

package rng

import (
	"runtime"
	"testing"
)

// TestDrawAllocs: a stream costs nothing until it draws, one allocation
// for its first eight draws, and nothing per draw across the switch at
// the 607th.
func TestDrawAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() {
		s := Make(7)
		for k := 0; k < 8; k++ {
			sink += s.Float64()
		}
	}); got > 1 {
		t.Errorf("Make + 8 draws: %v allocs, want <= 1", got)
	}

	s := Make(7)
	for k := 0; k < 600; k++ {
		s.Uint64()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 600; k < 700; k++ {
		s.Uint64()
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Errorf("draws 600-700: %v allocs, want 0", got)
	}
}
