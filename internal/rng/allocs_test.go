//go:build !race

package rng

import (
	"runtime"
	"runtime/pprof"
	"testing"
)

// TestDrawAllocs: a stream allocates nothing over its first 606 draws,
// exactly one vector at its 607th (rngLen words, 4 856 bytes, in the
// 4 864-byte size class), and nothing per draw after.
func TestDrawAllocs(t *testing.T) {
	for _, w := range []struct {
		from, to       int // draws, 1-based, both inclusive
		objects, bytes uint64
	}{
		{1, rngLen - 1, 0, 0},
		{rngLen, rngLen, 1, 4864},
		{rngLen + 1, 700, 0, 0},
	} {
		objects, bytes := drawAllocs(w.from, w.to)
		if objects != w.objects || bytes != w.bytes {
			t.Errorf("draws %d-%d: %d allocs of %d bytes, want %d of %d",
				w.from, w.to, objects, bytes, w.objects, w.bytes)
		}
	}
}

// drawAllocs returns the objects and bytes a fresh stream allocates
// over draws from..to. MemStats counts the whole process, so a window in
// which a collection ran, the runtime started a thread or the background
// scavenger returned memory (their bookkeeping allocates) is measured
// again, on a fresh stream.
func drawAllocs(from, to int) (objects, bytes uint64) {
	threads := pprof.Lookup("threadcreate")
	var before, after runtime.MemStats
	for retries := 0; ; retries++ {
		s := Make(7)
		for k := 1; k < from; k++ {
			s.Uint64()
		}
		started := threads.Count()
		runtime.ReadMemStats(&before)
		for k := from; k <= to; k++ {
			s.Uint64()
		}
		runtime.ReadMemStats(&after)
		runtimeWork := after.NumGC != before.NumGC || threads.Count() != started ||
			after.HeapReleased != before.HeapReleased
		if runtimeWork && retries < 5 {
			continue
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
}
