package engine_test

import (
	"strings"
	"testing"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// TestCascadeCap: a non-terminating recursive program is cut off with a
// rule error instead of hanging the node (the engine's runaway guard).
func TestCascadeCap(t *testing.T) {
	h := newHarness(t, `
loop1 ping@N(X + 1) :- pong@N(X).
loop2 pong@N(X + 1) :- ping@N(X).
`, "n1")
	h.inject("n1", tuple.New("ping", tuple.Str("n1"), tuple.Int(0)))
	h.net.RunFor(1)
	if len(h.errs) == 0 || !strings.Contains(h.errs[0], "cascade") {
		t.Fatalf("expected cascade-cap error, got %v", h.errs)
	}
	// The node remains usable afterwards.
	h.errs = nil
	h2 := h // same network
	h2.inject("n1", tuple.New("pong", tuple.Str("n1"), tuple.Int(1<<40)))
	h.net.RunFor(1)
	// (A second cascade error is fine; the point is no hang or panic.)

	// A fan-out loop: each ping queues two pongs, so tens of thousands of
	// tuples are still queued when the cap cuts the cascade. Dropping
	// them must unpin them, and the node keeps no queue past the task.
	prog, err := overlog.Parse(`
f1 ping@N(X + 1) :- pong@N(X).
f2 pong@N(X + 1) :- ping@N(X).
f3 pong@N(X + 2) :- ping@N(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	var n *engine.Node
	var snoop func() (slots, held int)
	n = engine.NewNode(engine.Config{Addr: "n1", OnRuleError: func(_ float64, _ string, err error) {
		if strings.Contains(err.Error(), "cascade") {
			snoop = engine.QueueSnoop(n)
		}
	}})
	if err := n.InstallProgram(prog); err != nil {
		t.Fatal(err)
	}
	n.HandleLocal(tuple.New("ping", tuple.Str("n1"), tuple.Int(0)))
	if snoop == nil {
		t.Fatal("the fan-out loop did not hit the cascade cap")
	}
	if slots, held := snoop(); held != 0 {
		t.Errorf("after the overflow %d of the queue's %d slots still hold a tuple", held, slots)
	}
	if engine.HoldsTaskState(n) {
		t.Error("the node kept task state past the overflowing task")
	}
}

// TestRemoteDeleteRejected: delete-rule heads must be local.
func TestRemoteDeleteRejected(t *testing.T) {
	h := newHarness(t, `
materialize(tab, infinity, infinity, keys(1,2)).
d1 delete tab@Other(K) :- drop@N(K, Other).
`, "n1", "n2")
	h.inject("n1", tuple.New("tab", tuple.Str("n1"), tuple.Int(1)))
	h.inject("n1", tuple.New("drop", tuple.Str("n1"), tuple.Int(1), tuple.Str("n2")))
	h.net.RunFor(1)
	if len(h.errs) == 0 || !strings.Contains(h.errs[0], "must be local") {
		t.Errorf("expected locality error, got %v", h.errs)
	}
}

// TestUnknownEventDropped: tuples with no table, no strands and no watch
// are dropped silently (no error, no crash).
func TestUnknownEventDropped(t *testing.T) {
	h := newHarness(t, `watch(other).`, "n1")
	h.inject("n1", tuple.New("mystery", tuple.Str("n1"), tuple.Int(1)))
	h.net.RunFor(1)
	h.noErrors()
	if got := h.net.Node("n1").Metrics().TuplesProcessed; got == 0 {
		t.Error("tuple should still be counted as processed")
	}
}

// TestMalformedMessageDropped: undecodable network payloads surface as a
// rule error and are dropped, and the failed decode is billed like any
// task: the node total and the system bucket move by the cost returned.
func TestMalformedMessageDropped(t *testing.T) {
	h := newHarness(t, `watch(x).`, "n1")
	n := h.net.Node("n1")
	busy, sys := n.Metrics().BusySeconds, n.QueryMetrics()[engine.SystemQuery].BusySeconds
	cost := n.HandleMessage(engine.Envelope{Src: "zz", SrcTupleID: 1, Raw: []byte{0xff, 0x01, 0x02}})
	if cost <= 0 {
		t.Error("unmarshal cost must be billed")
	}
	if got := n.Metrics().BusySeconds; got != busy+cost {
		t.Errorf("BusySeconds %g -> %g, want it to move by the returned cost %g", busy, got, cost)
	}
	if got := n.QueryMetrics()[engine.SystemQuery].BusySeconds; got != sys+cost {
		t.Errorf("system bucket %g -> %g, want it to move by the returned cost %g", sys, got, cost)
	}
	if n.Metrics().RuleErrors == 0 {
		t.Error("decode failure must be reported")
	}
}
