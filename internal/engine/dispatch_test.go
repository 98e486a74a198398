package engine_test

import (
	"runtime"
	"testing"

	"p2go/internal/chord"
	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// BenchmarkDispatch drives single tuples into a lone node running Chord
// and reports ns/tuple and allocs/tuple over every tuple the node
// processes, the cascade included. event injects lookups, each firing
// the strands the lookup event triggers, on a node with no fingers;
// event-fingers injects them on a node whose finger table has the
// converged shape, 32 rows with the successor in 28, where 60 lookups in
// 64 are for keys short of the successor and 4 for keys past every
// finger, so l2 and l4 keep about 6 % of the rows they read;
// event-fingers-traced is event-fingers on a node with the tracer on;
// event-watched is event with the lookup watched, each one lent to an
// observer that keeps nothing; delta flips one succ row between two
// values, so every insert changes the table and fires its delta strands.
func BenchmarkDispatch(b *testing.B) {
	lookups := make([]tuple.Tuple, 64)
	for i := range lookups {
		lookups[i] = chord.LookupEvent("a", uint64(i)<<40, "a", uint64(i))
	}
	nid := chord.NodeID("a")
	var fingers []tuple.Tuple
	for i := range 32 {
		fid, addr := nid+1<<58, "b" // the successor
		if i >= 28 {
			fid, addr = nid+1<<(32+i)+uint64(i), string(rune('c'+i-28))
		}
		fingers = append(fingers, tuple.New("finger", tuple.Str("a"), tuple.Int(int64(32+i)), tuple.ID(fid), tuple.Str(addr)))
	}
	far := make([]tuple.Tuple, 64)
	for i := range far {
		k := nid + 1 + uint64(i)<<40 // before the successor
		if i%16 == 15 {
			k = nid - 1 - uint64(i) // past every finger
		}
		far[i] = chord.LookupEvent("a", k, "a", uint64(i))
	}
	succs := []tuple.Tuple{
		tuple.New("succ", tuple.Str("a"), tuple.ID(2), tuple.Str("b")),
		tuple.New("succ", tuple.Str("a"), tuple.ID(2), tuple.Str("c")),
	}
	for _, c := range []struct {
		name      string
		in, setup []tuple.Tuple
		traced    bool
		watched   bool
	}{
		{"event", lookups, nil, false, false},
		{"event-fingers", far, fingers, false, false},
		{"event-fingers-traced", far, fingers, true, false},
		{"event-watched", lookups, nil, false, true},
		{"delta", succs, nil, false, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			heard := 0
			cfg := engine.Config{Addr: "a", Seed: 1, Send: func(string, engine.Envelope, float64) {}}
			if c.watched {
				cfg.OnWatch = func(float64, tuple.Tuple) { heard++ }
			}
			n := engine.NewNode(cfg)
			if c.watched {
				if err := n.InstallProgram(overlog.MustParse("watch(lookup).")); err != nil {
					b.Fatal(err)
				}
			}
			if c.traced {
				if err := n.EnableTracing(trace.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
			if err := chord.Install(n, "a"); err != nil {
				b.Fatal(err)
			}
			for _, t := range c.setup {
				n.HandleLocal(t)
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
			if c.watched && heard < b.N {
				b.Fatalf("the observer heard %d of %d lookups", heard, b.N)
			}
			per := float64(m.TuplesProcessed - tuples)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/tuple")
		})
	}
}
