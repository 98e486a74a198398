package engine_test

import (
	"testing"

	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// TestAggStateRewiresDroppedTable: a maintained aggregate whose primary
// table belongs to another query survives that query's uninstall and
// reinstall. The reinstall materializes a new table object; the
// aggregate's next trigger must drop the accumulator subscribed to the
// old one, wire a fresh one to the new one, and count only its rows,
// leaving the table with the listeners it had before.
func TestAggStateRewiresDroppedTable(t *testing.T) {
	const owner = `
materialize(seen, infinity, infinity, keys(1,2)).
o1 seen@N(H, S) :- report@N(H, S).
`
	h := newHarness(t, `watch(nop).`, "n1")
	n := h.net.Node("n1")
	if _, err := n.InstallQuery("own", overlog.MustParse(owner)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InstallQuery("agg", overlog.MustParse(`
materialize(fleet, infinity, 1, keys(1)).
watch(fleet).
a1 fleet@N(count<*>) :- seen@N(H, S).
`)); err != nil {
		t.Fatal(err)
	}
	report := func(host string, seq int64) {
		h.inject("n1", tuple.New("report", tuple.Str("n1"), tuple.Str(host), tuple.Int(seq)))
		h.net.RunFor(1)
		h.noErrors()
	}
	lastCount := func() int64 {
		t.Helper()
		for i := len(h.watched) - 1; i >= 0; i-- {
			if w := h.watched[i]; w.Name == "fleet" {
				return w.Fields[1].AsInt()
			}
		}
		t.Fatal("no fleet count emitted")
		return 0
	}
	for i, host := range []string{"a", "b", "c"} {
		report(host, int64(i))
	}
	if got := lastCount(); got != 3 {
		t.Fatalf("fleet count = %d, want 3", got)
	}
	listeners := n.Store().Get("seen").NumListeners()
	applies := n.Metrics().AggApplies
	if applies == 0 {
		t.Fatal("the aggregate was not maintained")
	}

	if err := n.UninstallQuery("own"); err != nil {
		t.Fatal(err)
	}
	if n.Store().Get("seen") != nil {
		t.Fatal("seen survived its only owner")
	}
	if _, err := n.InstallQuery("own", overlog.MustParse(owner)); err != nil {
		t.Fatal(err)
	}
	rebuilds := n.Metrics().AggRebuilds
	report("d", 10)
	if got := lastCount(); got != 1 {
		t.Fatalf("fleet count after reinstall = %d, want 1 (only the new table's row)", got)
	}
	if got := n.Metrics().AggRebuilds; got != rebuilds+1 {
		t.Errorf("%d rebuilds for the rewire, want 1", got-rebuilds)
	}
	report("e", 11)
	report("d", 12) // replaces d's row
	if got := lastCount(); got != 2 {
		t.Fatalf("fleet count = %d, want 2", got)
	}
	if got := n.Metrics().AggApplies; got <= applies {
		t.Errorf("AggApplies %d after the rewire, was %d: the new accumulator is not maintained", got, applies)
	}
	if got := n.Store().Get("seen").NumListeners(); got != listeners {
		t.Errorf("seen has %d listeners after the rewire, want %d", got, listeners)
	}
	checkQuerySums(t, n)
}
