// Package allocwin counts the objects and bytes a window of code
// allocates. MemStats counts the whole process, so the counts are the
// code's own only if the runtime did no work of its own meanwhile: a
// collection, an OS thread start or the background scavenger returning
// memory (its sleep can grow a P's timer heap by one object) all
// allocate. HeapReleased falling is not the scavenger: it is the heap
// taking back released pages for a span or a growing goroutine stack,
// which a window right after debug.FreeOSMemory often does. This is
// the one place outside benchmark/ that reads MemStats.
package allocwin

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
)

var threads = pprof.Lookup("threadcreate")

// Window is what the process did between two readings: the deltas of
// Mallocs, TotalAlloc, NumGC, the threadcreate count and HeapReleased.
type Window struct {
	Objects, Bytes uint64
	GCs            uint32
	Threads        int
	Released       int64
}

// Quiet reports that the runtime did no work of its own in the window:
// no collection ended, no thread started and no memory was released.
func (w Window) Quiet() bool { return w.GCs == 0 && w.Threads == 0 && w.Released <= 0 }

func (w Window) String() string {
	return fmt.Sprintf("%d objects, %d B; NumGC %+d, threadcreate %+d, HeapReleased %+d B",
		w.Objects, w.Bytes, w.GCs, w.Threads, w.Released)
}

// Measure runs fn once and returns its window; it allocates nothing of
// its own inside it.
func Measure(fn func()) Window {
	var before, after runtime.MemStats
	started := threads.Count()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return Window{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc,
		after.NumGC - before.NumGC, threads.Count() - started,
		int64(after.HeapReleased) - int64(before.HeapReleased)}
}

// Exact returns the first Quiet window of fn in at most six tries (else
// the sixth), and every window it measured, for a failing gate to log.
// Each try returns freed memory to the OS, which leaves the scavenger
// little to do, then runs prepare, unless nil, to set fn's state afresh.
func Exact(prepare, fn func()) (Window, []Window) {
	var all []Window
	for {
		debug.FreeOSMemory()
		if prepare != nil {
			prepare()
		}
		all = append(all, Measure(fn))
		if w := all[len(all)-1]; w.Quiet() || len(all) == 6 {
			return w, all
		}
	}
}

// LiveBytes returns HeapAlloc after two collections; the second empties
// the standard library's sync.Pool victim caches.
func LiveBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
