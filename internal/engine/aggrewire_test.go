package engine_test

import (
	"strings"
	"testing"

	"p2go/internal/engine"
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

// TestAggStateRescansWhileSecondaryMissing: a maintained aggregate whose
// secondary table belongs to another query rescans while that table is
// gone, so every trigger reports the missing table as the rescan path
// does, and is maintained again once the table is back.
func TestAggStateRescansWhileSecondaryMissing(t *testing.T) {
	const owner = `materialize(ref, infinity, infinity, keys(1)).`
	h := newHarness(t, `watch(nop).`, "n1")
	n := h.net.Node("n1")
	if _, err := n.InstallQuery("own", overlog.MustParse(owner)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InstallQuery("agg", overlog.MustParse(`
materialize(seen, infinity, infinity, keys(1,2)).
materialize(fleet, infinity, 1, keys(1)).
a1 fleet@N(count<*>) :- seen@N(H), ref@N(R).
`)); err != nil {
		t.Fatal(err)
	}
	h.inject("n1", tuple.New("ref", tuple.Str("n1"), tuple.Int(1)))
	report := func(host string) {
		h.inject("n1", tuple.New("seen", tuple.Str("n1"), tuple.Str(host)))
		h.net.RunFor(1)
	}
	report("a")
	report("b")
	h.noErrors()
	if err := engine.CheckRelations(n); err != nil {
		t.Fatal(err)
	}
	applies := n.Metrics().AggApplies
	if applies == 0 {
		t.Fatal("the aggregate was not maintained")
	}

	if err := n.UninstallQuery("own"); err != nil {
		t.Fatal(err)
	}
	rebuilds := n.Metrics().AggRebuilds
	for _, host := range []string{"c", "d"} {
		errs := len(h.errs)
		report(host)
		if len(h.errs) == errs {
			t.Fatalf("trigger %s while ref is missing reported nothing", host)
		}
	}
	for _, e := range h.errs {
		if !strings.Contains(e, "unmaterialized table ref") {
			t.Errorf("error %q does not name the missing table", e)
		}
	}
	if got := n.Metrics().AggRebuilds; got != rebuilds {
		t.Errorf("%d accumulators built while ref is missing, want none", got-rebuilds)
	}
	applies = n.Metrics().AggApplies

	h.errs = nil
	if _, err := n.InstallQuery("own", overlog.MustParse(owner)); err != nil {
		t.Fatal(err)
	}
	h.inject("n1", tuple.New("ref", tuple.Str("n1"), tuple.Int(1)))
	report("e")
	report("f")
	h.noErrors()
	if m := n.Metrics(); m.AggRebuilds != rebuilds+1 || m.AggApplies <= applies {
		t.Errorf("after the reinstall: %d rebuilds, %d applies, want %d and more than %d",
			m.AggRebuilds, m.AggApplies, rebuilds+1, applies)
	}
	if err := engine.CheckRelations(n); err != nil {
		t.Fatal(err)
	}
	checkQuerySums(t, n)
}
