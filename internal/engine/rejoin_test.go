package engine_test

import (
	"testing"

	"p2go/internal/engine"
	"p2go/internal/tuple"
)

const rejoinProgram = `
materialize(conf, infinity, infinity, keys(1,2)).
materialize(data, infinity, infinity, keys(1,2)).
c1 conf@N(V) :- confEvent@N(V).
d1 data@N(V) :- dataEvent@N(V).
`

// TestSeedLocalPreambleReplaysOnRejoin: tuples fed through SeedLocal
// form the node's preamble (its "configuration file"); Rejoin wipes all
// soft state and replays exactly that preamble, so configuration
// survives a restart-with-amnesia while runtime state does not.
func TestSeedLocalPreambleReplaysOnRejoin(t *testing.T) {
	h := newHarness(t, rejoinProgram, "a", "b")
	n := h.net.Node("a")
	n.SeedLocal(tuple.New("confEvent", tuple.Str("a"), tuple.Str("landmark")))
	h.inject("a", tuple.New("dataEvent", tuple.Str("a"), tuple.Str("hot")))
	h.net.RunFor(1)
	if got := len(h.rows("a", "conf")); got != 1 {
		t.Fatalf("conf rows before crash = %d", got)
	}
	if got := len(h.rows("a", "data")); got != 1 {
		t.Fatalf("data rows before crash = %d", got)
	}
	if got := len(n.Preamble()); got != 1 {
		t.Fatalf("preamble length = %d", got)
	}

	h.net.Crash("a")
	h.net.RunFor(1)
	h.net.Rejoin("a")
	h.net.RunFor(1)
	h.noErrors()
	if got := h.rows("a", "conf"); len(got) != 1 ||
		got[0].Field(1).AsStr() != "landmark" {
		t.Errorf("conf after rejoin = %v, want the replayed preamble row", got)
	}
	if got := h.rows("a", "data"); len(got) != 0 {
		t.Errorf("data after rejoin = %v, want soft state gone", got)
	}

	// The rule base survived (it is the program, not soft state): new
	// traffic is still processed, and ruleTable still reads its rules.
	h.inject("a", tuple.New("dataEvent", tuple.Str("a"), tuple.Str("fresh")))
	h.net.RunFor(1)
	if got := h.rows("a", "data"); len(got) != 1 ||
		got[0].Field(1).AsStr() != "fresh" {
		t.Errorf("data after post-rejoin traffic = %v", got)
	}
	if got := len(h.rows("a", engine.RuleTableName)); got != 2 {
		t.Errorf("ruleTable after rejoin holds %d rows, want 2 (c1, d1)", got)
	}
}

// TestRejoinBillsCPU: the rejoin replay runs as a simulated task — the
// node pays CPU for clearing tables and replaying the preamble.
func TestRejoinBillsCPU(t *testing.T) {
	h := newHarness(t, rejoinProgram, "a")
	n := h.net.Node("a")
	n.SeedLocal(tuple.New("confEvent", tuple.Str("a"), tuple.Str("x")))
	h.net.RunFor(1)
	before := n.Metrics().BusySeconds
	h.net.Crash("a")
	h.net.Rejoin("a")
	h.net.RunFor(1)
	if after := n.Metrics().BusySeconds; after <= before {
		t.Errorf("rejoin billed no CPU: %v -> %v", before, after)
	}
}
