//go:build !race

package rng

import (
	"runtime"
	"runtime/pprof"
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

	// MemStats counts the whole process, so a window in which a
	// collection ran or the runtime started a thread (its workers and
	// their bookkeeping allocate) is measured again, on a fresh stream.
	threads := pprof.Lookup("threadcreate")
	var before, after runtime.MemStats
	for retries := 0; ; retries++ {
		s := Make(7)
		for k := 0; k < 600; k++ {
			s.Uint64()
		}
		started := threads.Count()
		runtime.ReadMemStats(&before)
		for k := 600; k < 700; k++ {
			s.Uint64()
		}
		runtime.ReadMemStats(&after)
		if (after.NumGC != before.NumGC || threads.Count() != started) && retries < 5 {
			continue
		}
		if got := after.Mallocs - before.Mallocs; got != 0 {
			t.Errorf("draws 600-700: %v allocs, want 0", got)
		}
		return
	}
}
