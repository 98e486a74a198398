//go:build !race

// The race build's sync.Pool drops a quarter of its Puts on purpose, so
// "the recycled state comes back" cannot be asserted there.

package dataflow

import (
	"runtime"
	"runtime/debug"
	"testing"

	"p2go/internal/tuple"
)

// TestAggRescanAllocs: a rescan aggregate folds its bindings into a
// recycled state and builds its heads in the context's storage, so a
// warm activation allocates nothing, however many groups it emits.
func TestAggRescanAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // and a pool is per P: stay on the warm one
	ctx, _, _ := benchSetup(t, false)                // tab: 64 rows, A = 0..7, 8 rows each
	for _, tc := range []struct {
		name   string
		s      *Strand
		trig   tuple.Tuple
		groups int
	}{
		{"grouped", clusterStrand(), tuple.New("probe", tuple.Str("n1")), 8},
		{"zero-capable", countStrand(), row("n1", 0, 0), 1},
	} {
		tc.s.Run(ctx, tc.trig) // warm the state's arrays
		ctx.heads = 0
		if got := testing.AllocsPerRun(100, func() { tc.s.Run(ctx, tc.trig) }); got != 0 {
			t.Errorf("%s: %v allocs per activation, want 0", tc.name, got)
		}
		if want := 101 * tc.groups; ctx.heads != want {
			t.Errorf("%s: %d heads over 101 activations, want %d", tc.name, ctx.heads, want)
		}
	}
}
