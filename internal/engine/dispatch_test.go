package engine_test

import (
	"runtime"
	"testing"

	"p2go/internal/chord"
	"p2go/internal/engine"
	"p2go/internal/tuple"
)

// BenchmarkDispatch drives single tuples into a lone node running Chord
// and reports ns/tuple and allocs/tuple over every tuple the node
// processes, the cascade included. event injects lookups, each firing
// the strands the lookup event triggers; delta flips one succ row
// between two values, so every insert changes the table and fires its
// delta strands.
func BenchmarkDispatch(b *testing.B) {
	lookups := make([]tuple.Tuple, 64)
	for i := range lookups {
		lookups[i] = chord.LookupEvent("a", uint64(i)<<40, "a", uint64(i))
	}
	succs := []tuple.Tuple{
		tuple.New("succ", tuple.Str("a"), tuple.ID(2), tuple.Str("b")),
		tuple.New("succ", tuple.Str("a"), tuple.ID(2), tuple.Str("c")),
	}
	for _, c := range []struct {
		name string
		in   []tuple.Tuple
	}{{"event", lookups}, {"delta", succs}} {
		b.Run(c.name, func(b *testing.B) {
			n := engine.NewNode(engine.Config{Addr: "a", Seed: 1,
				Send: func(string, engine.Envelope, float64) {},
			})
			if err := chord.Install(n, "a"); err != nil {
				b.Fatal(err)
			}
			for _, t := range c.in { // warm the arena, scratch and tables
				n.HandleLocal(t)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tuples := n.Metrics().TuplesProcessed
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.HandleLocal(c.in[i%len(c.in)])
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			m := n.Metrics()
			if m.RuleErrors > 0 {
				b.Fatalf("%d rule errors", m.RuleErrors)
			}
			per := float64(m.TuplesProcessed - tuples)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/tuple")
		})
	}
}
