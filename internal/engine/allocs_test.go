//go:build !race

// The race build's sync.Pool drops a quarter of its Puts on purpose, so
// "the task's arena comes back" cannot be asserted there.

package engine_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// allocNode is a lone node whose Send goes nowhere, with the arena pool
// and every scratch buffer warmed by the caller's first calls.
func allocNode(t *testing.T, program string) *engine.Node {
	t.Helper()
	n := engine.NewNode(engine.Config{Addr: "a", Seed: 1,
		Send:        func(string, engine.Envelope, float64) {},
		OnRuleError: func(_ float64, rule string, err error) { t.Errorf("rule %s: %v", rule, err) },
	})
	if err := n.InstallProgram(overlog.MustParse(program)); err != nil {
		t.Fatal(err)
	}
	return n
}

// pinPool keeps what an allocation gate measures on one warm sync.Pool:
// a collection empties pools, and each P has its own.
func pinPool() func() {
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(procs); debug.SetGCPercent(gc) }
}

// TestSendPathAllocs: a tuple that is sent is never built. The head is
// assembled in the task's arena, marshalled into the node's scratch and
// lent to Send; nothing on the way allocates.
func TestSendPathAllocs(t *testing.T) {
	defer pinPool()()
	n := allocNode(t, `s1 pong@Other(N, K) :- ping@N(Other, K).`)
	ping := tuple.New("ping", tuple.Str("a"), tuple.Str("b"), tuple.Int(1))
	n.HandleLocal(ping)
	if got := testing.AllocsPerRun(200, func() { n.HandleLocal(ping) }); got != 0 {
		t.Errorf("emitting a remote head: %v allocs per task, want 0", got)
	}
	if m := n.Metrics(); m.MsgsSent != 202 {
		t.Errorf("sent %d messages over 202 tasks", m.MsgsSent)
	}
}

// TestReceivePathAllocs: a received tuple is decoded into the task's
// arena, so an event costs nothing, a row that only refreshes an existing
// one costs nothing, and a row that replaces a stored one costs nothing
// either: its copy refills the array of the row it replaced.
func TestReceivePathAllocs(t *testing.T) {
	defer pinPool()()
	n := allocNode(t, `
materialize(row, 100, infinity, keys(1,2)).
r1 seen@Other(N, K) :- ev@N(Other, K).
`)
	env := func(tp tuple.Tuple) engine.Envelope {
		return engine.Envelope{Src: "b", SrcTupleID: 1, Raw: tuple.Marshal(nil, tp)}
	}
	ev := env(tuple.New("ev", tuple.Str("a"), tuple.Str("b"), tuple.Int(1)))
	rowA := env(tuple.New("row", tuple.Str("a"), tuple.Int(1), tuple.Str("x")))
	rowB := env(tuple.New("row", tuple.Str("a"), tuple.Int(1), tuple.Str("y")))
	for i := 0; i < 100; i++ { // warm: arena, scratch, table bucket, FIFO index
		n.HandleMessage(ev)
		n.HandleMessage(rowA)
		n.HandleMessage(rowB)
	}
	if got := testing.AllocsPerRun(200, func() { n.HandleMessage(ev) }); got != 0 {
		t.Errorf("event tuple: %v allocs per message, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { n.HandleMessage(rowB) }); got != 0 {
		t.Errorf("TTL refresh of an identical row: %v allocs per message, want 0", got)
	}
	flip := false
	if got := testing.AllocsPerRun(200, func() {
		if flip = !flip; flip {
			n.HandleMessage(rowA)
		} else {
			n.HandleMessage(rowB)
		}
	}); got != 0 {
		t.Errorf("replacing a row: %v allocs per message, want 0 (the stored copy refills the replaced row's array)", got)
	}
	if c := n.Store().Get("row").Count(); c != 1 {
		t.Errorf("row table holds %d rows, want 1", c)
	}
}

// TestWatchAllocs: only a table keeps a tuple, so only a table copies
// one. A watched tuple is lent to its observer, so delivering it costs
// nothing; a watched row that replaces a stored one costs nothing, its
// stored copy refilling the replaced row's array; and a delete rule's
// pattern delete copies none of the rows it removes.
func TestWatchAllocs(t *testing.T) {
	defer pinPool()()
	heard := 0
	n := engine.NewNode(engine.Config{Addr: "a", Seed: 1,
		Send:        func(string, engine.Envelope, float64) {},
		OnWatch:     func(float64, tuple.Tuple) { heard++ },
		OnRuleError: func(_ float64, rule string, err error) { t.Errorf("rule %s: %v", rule, err) },
	})
	if err := n.InstallProgram(overlog.MustParse(`
materialize(row, infinity, infinity, keys(1,2)).
materialize(pair, infinity, infinity, keys(1,2,3)).
watch(ev).
watch(row).
d1 delete pair@N(K, V) :- drop@N(K), pair@N(K, V).
`)); err != nil {
		t.Fatal(err)
	}
	env := func(tp tuple.Tuple) engine.Envelope {
		return engine.Envelope{Src: "b", SrcTupleID: 1, Raw: tuple.Marshal(nil, tp)}
	}
	ev := env(tuple.New("ev", tuple.Str("a"), tuple.Str("b"), tuple.Int(1)))
	rowA := env(tuple.New("row", tuple.Str("a"), tuple.Int(1), tuple.Str("x")))
	rowB := env(tuple.New("row", tuple.Str("a"), tuple.Int(1), tuple.Str("y")))
	pairs := []tuple.Tuple{
		tuple.New("pair", tuple.Str("a"), tuple.Int(1), tuple.Str("x")),
		tuple.New("pair", tuple.Str("a"), tuple.Int(1), tuple.Str("y")),
		tuple.New("pair", tuple.Str("a"), tuple.Int(2), tuple.Str("z")),
	}
	drop := tuple.New("drop", tuple.Str("a"), tuple.Int(1))
	for i := 0; i < 100; i++ { // warm: arena, scratch, table buckets, the victims buffer
		n.HandleMessage(ev)
		n.HandleMessage(rowA)
		n.HandleMessage(rowB)
		for _, p := range pairs {
			n.HandleLocal(p)
		}
		n.HandleLocal(drop)
	}

	heard = 0
	if got := testing.AllocsPerRun(200, func() { n.HandleMessage(ev) }); got != 0 {
		t.Errorf("watched event: %v allocs per message, want 0 (the observer borrows it)", got)
	}
	if heard != 201 { // AllocsPerRun's warm-up run, then 200
		t.Errorf("the observer heard %d watched events over 201 messages", heard)
	}
	flip := false
	if got := testing.AllocsPerRun(200, func() {
		if flip = !flip; flip {
			n.HandleMessage(rowA)
		} else {
			n.HandleMessage(rowB)
		}
	}); got != 0 {
		t.Errorf("watched row replacing a stored one: %v allocs per message, want 0 (the stored copy refills the replaced row's array)", got)
	}

	// Only the delete is measured: the rows it removes are stored first.
	pairTbl := n.Store().Get("pair")
	var before, after runtime.MemStats
	var mallocs uint64
	const rounds = 100
	for i := 0; i < rounds; i++ {
		for _, p := range pairs[:2] {
			n.HandleLocal(p)
		}
		runtime.ReadMemStats(&before)
		n.HandleLocal(drop)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if c := pairTbl.Count(); c != 1 {
			t.Fatalf("pair table holds %d rows after the delete, want 1", c)
		}
	}
	if mallocs != 0 {
		t.Errorf("a delete removing two rows: %v allocs per task, want 0", float64(mallocs)/rounds)
	}
}
