package engine

import (
	"testing"

	"p2go/internal/tuple"
)

// TestArenaBounds: no entry point leaves a task's arena on the node, and
// an arena a wide message stretched does not go back to the pool.
func TestArenaBounds(t *testing.T) {
	n := NewNode(Config{Addr: "a"})
	wide := tuple.Tuple{Name: "wide", Fields: make([]tuple.Value, 4*arenaVals)}
	wide.Fields[0] = tuple.Str("a")
	for name, task := range map[string]func() float64{
		"wide message": func() float64 { return n.HandleMessage(Envelope{Src: "b", Raw: tuple.Marshal(nil, wide)}) },
		"undecodable":  func() float64 { return n.HandleMessage(Envelope{Src: "b", Raw: []byte{1, 'x', 9, 0}}) },
		"local":        func() float64 { return n.HandleLocal(tuple.New("ev", tuple.Str("a"))) },
		"sweep":        n.Sweep,
		"rejoin":       n.Rejoin,
	} {
		if cost := task(); n.arena != nil || n.inTask {
			t.Errorf("%s (cost %g): arena %v, inTask %v after the task", name, cost, n.arena, n.inTask)
		}
	}
	if n.Metrics().RuleErrors != 1 {
		t.Errorf("rule errors = %d, want the undecodable message's", n.Metrics().RuleErrors)
	}
	for i := 0; i < 16; i++ { // whatever the pool hands out is block-sized
		if a := arenaPool.Get().(*arena); cap(a.vals) > arenaVals || len(a.vals) != 0 {
			t.Fatalf("pooled arena holds %d of %d values, bound %d", len(a.vals), cap(a.vals), arenaVals)
		}
	}
}
