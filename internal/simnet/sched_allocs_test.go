//go:build !race

// The race build's sync.Pool drops a quarter of its Puts on purpose, so
// "the recycled record comes back" cannot be asserted there.

package simnet

import (
	"runtime"
	"runtime/debug"
	"testing"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// pingPongProgram bounces every ping back to where it came from, forever.
const pingPongProgram = `
p1 ping@Other(N, K) :- ping@N(Other, K).
`

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// TestSchedulerAllocs: with heap, queues and the record pool warm, the
// scheduler adds no allocation to an event. A func event is checked
// alone; a message event is checked against what the engine itself
// allocates handling the same message outside the simulator, so the gate
// does not move when the engine's own cost does.
func TestSchedulerAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool

	t.Run("func", func(t *testing.T) {
		s := NewSim()
		noop := func() {}
		for i := 0; i < 512; i++ {
			s.At(float64(i), noop)
		}
		if got := testing.AllocsPerRun(1000, func() {
			s.At(s.Now()+300, noop)
			s.Step()
		}); got != 0 {
			t.Errorf("At+Step of a func event: %v allocs, want 0", got)
		}
	})

	t.Run("message", func(t *testing.T) {
		prog := overlog.MustParse(pingPongProgram)
		ping := tuple.New("ping", tuple.Str("a"), tuple.Str("b"), tuple.Int(1))

		// The engine's own price: the same program handling the same
		// envelope with a Send that goes nowhere.
		lone := engine.NewNode(engine.Config{Addr: "a", Send: func(string, engine.Envelope, float64) {}})
		if err := lone.InstallProgram(prog); err != nil {
			t.Fatal(err)
		}
		env := engine.Envelope{Src: "b", SrcTupleID: 1, Raw: tuple.Marshal(nil, ping)}
		const calls = 2000
		lone.HandleMessage(env)
		before := mallocs()
		for i := 0; i < calls; i++ {
			lone.HandleMessage(env)
		}
		perMsg := float64(mallocs()-before) / calls

		// Eight pings in flight between two hosts: arrivals that find the
		// CPU busy exercise the kick retry as well.
		sim := NewSim()
		net := NewNetwork(sim, Config{Seed: 3, SweepInterval: 1e9})
		for _, a := range []string{"a", "b"} {
			n, err := net.AddNode(a)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.InstallProgram(prog); err != nil {
				t.Fatal(err)
			}
		}
		for k := int64(0); k < 8; k++ {
			if err := net.Inject("a", tuple.New("ping", tuple.Str("a"), tuple.Str("b"), tuple.Int(k))); err != nil {
				t.Fatal(err)
			}
		}
		recv := func() int64 { return net.Node("a").Metrics().MsgsRecv + net.Node("b").Metrics().MsgsRecv }
		net.RunFor(5) // warm: heap, run queues, link state, record pool
		events0, msgs0, before := sim.Executed(), recv(), mallocs()
		net.RunFor(20)
		total := float64(mallocs() - before)
		events, msgs := float64(sim.Executed()-events0), float64(recv()-msgs0)
		if msgs < 5000 || events <= msgs {
			t.Fatalf("weak run: %v messages in %v events (want kick retries among them)", msgs, events)
		}
		perEvent := (total - perMsg*msgs) / events
		t.Logf("%v events, %v messages, %v allocs; engine alone %.2f per message; scheduler %.4f per event",
			events, msgs, total, perMsg, perEvent)
		if perEvent > 0.01 || perEvent < -0.01 {
			t.Errorf("scheduler adds %.3f allocs per event (%v allocs over %v events, engine alone %.2f per message x %v messages)",
				perEvent, total, events, perMsg, msgs)
		}
	})
}
