package engine

import (
	"testing"
	"unsafe"

	"p2go/internal/dataflow"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// TestArenaBounds: no entry point leaves a task's arena on the node, and
// an arena a wide message or a wide cascade stretched does not go back
// to the node's keep with its stretched storage.
func TestArenaBounds(t *testing.T) {
	n := NewNode(Config{Addr: "a"})
	// One fan event queues a fan row per many row, all before the first
	// is processed: more than a kept arena's queue may hold.
	prog, err := overlog.Parse(`w1 fan@N(X) :- go@N(), many@N(X).
materialize(many, infinity, infinity, keys(1,2)).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallProgram(prog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*arenaQueue; i++ {
		n.HandleLocal(tuple.New("many", tuple.Str("a"), tuple.Int(int64(i))))
	}
	wide := tuple.Tuple{Name: "wide", Fields: make([]tuple.Value, 4*arenaVals)}
	wide.Fields[0] = tuple.Str("a")
	for name, task := range map[string]func() float64{
		"wide message": func() float64 { return n.HandleMessage(Envelope{Src: "b", Raw: tuple.Marshal(nil, wide)}) },
		"undecodable":  func() float64 { return n.HandleMessage(Envelope{Src: "b", Raw: []byte{1, 'x', 9, 0}}) },
		"local":        func() float64 { return n.HandleLocal(tuple.New("ev", tuple.Str("a"))) },
		"wide cascade": func() float64 { return n.HandleLocal(tuple.New("go", tuple.Str("a"))) },
		"sweep":        n.Sweep,
		"rejoin":       n.Rejoin,
	} {
		if cost := task(); n.arena != nil || n.inTask {
			t.Errorf("%s (cost %g): arena %v, inTask %v after the task", name, cost, n.arena, n.inTask)
		}
		// What the node's keep holds is block-sized and empty.
		if a := n.cfg.Arenas.idle; a != nil {
			if cap(a.vals) > arenaVals || len(a.vals) != 0 {
				t.Fatalf("after %s the kept arena holds %d of %d values, bound %d", name, len(a.vals), cap(a.vals), arenaVals)
			}
			if cap(a.queue) > arenaQueue || len(a.queue) != 0 || a.qhead != 0 {
				t.Fatalf("after %s the kept arena queues %d (head %d) of %d slots, bound %d", name, len(a.queue), a.qhead, cap(a.queue), arenaQueue)
			}
		}
	}
	if n.Metrics().RuleErrors != 1 {
		t.Errorf("rule errors = %d, want the undecodable message's", n.Metrics().RuleErrors)
	}
}

// TestNodeAtRestHoldsNoTaskState: a task's tuples, the frames its
// activations work in and its cascade queue all live in the task's
// arena, so after every entry point the node holds none of them; and a
// strand is its plan pointer and query record, with no scratch of its own.
func TestNodeAtRestHoldsNoTaskState(t *testing.T) {
	if got, want := unsafe.Sizeof(dataflow.Strand{}), unsafe.Sizeof(uintptr(0))+unsafe.Sizeof(dataflow.Query(nil)); got != want {
		t.Errorf("a Strand is %d bytes, want %d: its plan pointer and query record", got, want)
	}
	var timers []*Periodic
	n := NewNode(Config{Addr: "a", OnNewPeriodic: func(p *Periodic) { timers = append(timers, p) }})
	// Scan and index joins, a maintained aggregate, a cascade and a timer.
	prog, err := overlog.Parse(`
materialize(tab, infinity, infinity, keys(1,2)).
materialize(pair, infinity, infinity, keys(1,2,3)).
r1 tab@N(X) :- ev@N(X).
r2 pair@N(X, Y) :- tab@N(X), tab@N(Y), X < Y.
r3 total@N(count<*>) :- tab@N(X).
r4 more@N(Y) :- ask@N(X), pair@N(X, Y).
p1 ev@N(100) :- periodic@N(E, 1).
`)
	if err != nil {
		t.Fatal(err)
	}
	atRest := func(entry string) {
		t.Helper()
		if n.arena != nil || n.inTask {
			t.Errorf("after %s: arena %v, inTask %v", entry, n.arena, n.inTask)
		}
	}
	if _, err := n.InstallQuery("q", prog); err != nil {
		t.Fatal(err)
	}
	atRest("InstallQuery")
	n.HandleLocal(tuple.New("ev", tuple.Str("a"), tuple.Int(1)))
	atRest("HandleLocal")
	n.HandleMessage(Envelope{Src: "b", Raw: tuple.Marshal(nil, tuple.New("ev", tuple.Str("a"), tuple.Int(2)))})
	atRest("HandleMessage")
	if len(timers) != 1 {
		t.Fatalf("%d timers registered, want 1", len(timers))
	}
	n.HandleTimer(timers[0])
	atRest("HandleTimer")
	n.HandleLocal(tuple.New("ask", tuple.Str("a"), tuple.Int(1)))
	atRest("HandleLocal")
	if got := n.Store().Get("pair").Count(); got != 3 {
		t.Errorf("pair holds %d rows, want 3: the tasks did not run the joins", got)
	}
	n.Sweep()
	atRest("Sweep")
	n.Rejoin()
	atRest("Rejoin")
	if n.Metrics().RuleErrors != 0 {
		t.Errorf("%d rule errors", n.Metrics().RuleErrors)
	}
}
