package engine_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"p2go/internal/chord"
	"p2go/internal/dataflow"
	"p2go/internal/engine"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
	"p2go/internal/simnet"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// shape is a node's structural dataflow fingerprint: what a query's
// install must add and its uninstall must remove exactly. live counts
// the stored rows outside the tracer's event log, log the rows in it:
// the log keeps what an install logged past its uninstall.
type shape struct {
	strands int
	timers  int
	watches int
	taps    int
	tables  string
	live    int
	log     int
}

func shapeOf(n *engine.Node) shape {
	live, log := n.Store().LiveTuples(), 0
	if tb := n.Store().Get(trace.TupleLogTable); tb != nil {
		log = tb.Count()
	}
	return shape{
		strands: n.NumStrands(),
		timers:  n.NumTimers(),
		watches: n.NumWatches(),
		taps:    n.NumLogTaps(),
		tables:  strings.Join(n.Store().Names(), ","),
		live:    live - log,
		log:     log,
	}
}

// checkQuerySums asserts the per-query accounting invariant: bills and
// counters split by query (including the reserved system bucket) sum to
// the node totals. BusySeconds tolerates float re-association only.
func checkQuerySums(t *testing.T, n *engine.Node) {
	t.Helper()
	m := n.Metrics()
	var busy float64
	var fires, heads, timers int64
	for _, q := range n.QueryMetrics() {
		busy += q.BusySeconds
		fires += q.RuleFires
		heads += q.HeadsEmitted
		timers += q.TimerFires
	}
	if fires != m.RuleFires {
		t.Errorf("%s: per-query RuleFires sum %d != node %d", n.Addr(), fires, m.RuleFires)
	}
	if heads != m.HeadsEmitted {
		t.Errorf("%s: per-query HeadsEmitted sum %d != node %d", n.Addr(), heads, m.HeadsEmitted)
	}
	if timers != m.TimerFires {
		t.Errorf("%s: per-query TimerFires sum %d != node %d", n.Addr(), timers, m.TimerFires)
	}
	if diff := math.Abs(busy - m.BusySeconds); diff > 1e-9*(1+math.Abs(m.BusySeconds)) {
		t.Errorf("%s: per-query BusySeconds sum %g != node %g (diff %g)", n.Addr(), busy, m.BusySeconds, diff)
	}
}

const monitorProgram = `
materialize(seen, infinity, infinity, keys(1,2)).
watch(mtick).
m1 seen@N(E) :- periodic@N(E, 0.5).
m2 mtick@N(E) :- seen@N(E).
`

// TestUninstallRestoresShape: installing a monitoring query and removing
// it returns the node to its exact pre-install dataflow shape — strand,
// timer, watch and table counts, live tuples — and its timers stop
// firing.
func TestUninstallRestoresShape(t *testing.T) {
	h := newHarness(t, `
watch(tick).
b1 tick@N(E) :- periodic@N(E, 1).
`, "n1")
	n := h.net.Node("n1")
	base := shapeOf(n)

	if _, err := n.InstallQuery("mon", overlog.MustParse(monitorProgram)); err != nil {
		t.Fatal(err)
	}
	withMon := shapeOf(n)
	if withMon.strands != base.strands+2 || withMon.timers != base.timers+1 ||
		withMon.watches != base.watches+1 {
		t.Fatalf("monitor added wrong resources: base %+v with %+v", base, withMon)
	}
	if !n.HasQuery("mon") {
		t.Fatal("mon not reported installed")
	}
	h.net.Run(5)
	h.noErrors()
	monTicks := 0
	for _, w := range h.watched {
		if w.Name == "mtick" {
			monTicks++
		}
	}
	if monTicks == 0 {
		t.Fatal("monitor never fired")
	}
	if n.Store().Get("seen") == nil {
		t.Fatal("monitor table missing")
	}

	if err := n.UninstallQuery("mon"); err != nil {
		t.Fatal(err)
	}
	seenAt := len(h.watched)
	h.net.Run(5)
	h.noErrors()
	for _, w := range h.watched[seenAt:] {
		if w.Name == "mtick" {
			t.Error("monitor tick after uninstall: timer chain survived")
		}
	}
	got := shapeOf(n)
	if got != base {
		t.Errorf("shape after uninstall = %+v, want baseline %+v", got, base)
	}
	if n.HasQuery("mon") {
		t.Error("mon still reported installed")
	}
	// The bill survives the query and still sums to node totals.
	if n.QueryMetrics()["mon"].BusySeconds <= 0 {
		t.Error("mon's bill vanished with the query")
	}
	checkQuerySums(t, n)
}

// TestSharedTableRefcount: a table declared by two queries survives the
// first uninstall and is dropped (rows and all) by the second.
func TestSharedTableRefcount(t *testing.T) {
	h := newHarness(t, `watch(nop).`, "n1")
	n := h.net.Node("n1")
	decl := `materialize(shared, infinity, infinity, keys(1,2)).`
	if _, err := n.InstallQuery("a", overlog.MustParse(decl+"\nra shared@N(X) :- eva@N(X).")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InstallQuery("b", overlog.MustParse(decl+"\nrb shared@N(X) :- evb@N(X).")); err != nil {
		t.Fatal(err)
	}
	h.inject("n1", tuple.New("eva", tuple.Str("n1"), tuple.Int(1)))
	h.net.RunFor(1)
	h.noErrors()

	if err := n.UninstallQuery("a"); err != nil {
		t.Fatal(err)
	}
	tb := n.Store().Get("shared")
	if tb == nil {
		t.Fatal("shared table dropped while still referenced by b")
	}
	if tb.Count() != 1 {
		t.Fatalf("shared rows = %d, want 1 (uninstall must not clear a shared table)", tb.Count())
	}
	if err := n.UninstallQuery("b"); err != nil {
		t.Fatal(err)
	}
	if n.Store().Get("shared") != nil {
		t.Error("shared table survived its last owner")
	}
}

// rejectedInstalls are programs that fail validation on a node whose
// one query declares tab: a materialize conflicting with installed
// state, two conflicting declarations within the program, and an
// unplannable rule.
var rejectedInstalls = []struct {
	name, prog, wantErr string
}{
	{"conflicting respec", `
materialize(other, infinity, infinity, keys(1,2)).
materialize(tab, 30, infinity, keys(1,2)).
watch(w1).
r1 out@N(X) :- evx@N(X), other@N(X).
`, "already materialized"},
	{"conflict within program", `
materialize(x, 10, infinity, keys(1)).
materialize(x, 20, infinity, keys(1)).
`, "already materialized"},
	{"unplannable rule", `
materialize(other, infinity, infinity, keys(1,2)).
watch(w2).
r1 other@N(A) :- e1@N(A).
r2 out@N(A, B) :- e1@N(A), e2@N(B).
`, "events cannot be joined"},
}

// TestAtomicInstallRejected: a program that fails validation installs
// NOTHING: no table, watch, strand, or reflection row.
func TestAtomicInstallRejected(t *testing.T) {
	h := newHarness(t, `materialize(tab, infinity, infinity, keys(1,2)).`, "n1")
	n := h.net.Node("n1")
	base := shapeOf(n)
	baseRules := len(h.rows("n1", engine.RuleTableName))

	for _, tc := range rejectedInstalls {
		_, err := n.InstallQuery("bad", overlog.MustParse(tc.prog))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
		if n.HasQuery("bad") {
			t.Fatalf("%s: failed install left the query registered", tc.name)
		}
		if n.Store().Get("other") != nil || n.Store().Get("x") != nil {
			t.Fatalf("%s: failed install left a table behind", tc.name)
		}
		if got := shapeOf(n); got != base {
			t.Fatalf("%s: failed install mutated the node: %+v != %+v", tc.name, got, base)
		}
		if got := len(h.rows("n1", engine.RuleTableName)); got != baseRules {
			t.Fatalf("%s: failed install left ruleTable rows (%d != %d)", tc.name, got, baseRules)
		}
	}
	// An identical re-declaration plus new rules must still install.
	if _, err := n.InstallQuery("ok", overlog.MustParse(`
materialize(tab, infinity, infinity, keys(1,2)).
r1 tab@N(X) :- evt@N(X).
`)); err != nil {
		t.Fatalf("compatible re-declaration rejected: %v", err)
	}
	// Reserved and duplicate IDs are rejected before any state changes.
	if _, err := n.InstallQuery("system", overlog.MustParse(`watch(w).`)); err == nil {
		t.Error("reserved query ID accepted")
	}
	if _, err := n.InstallQuery("ok", overlog.MustParse(`watch(w).`)); err == nil {
		t.Error("duplicate query ID accepted")
	}
}

// TestReflectionRefreshMidRun: ruleTable/queryTable reflect higher-order
// installs and uninstalls while the node runs, and are queryable from
// OverLog mid-run (the satellite fix: reflection must not go stale).
func TestReflectionRefreshMidRun(t *testing.T) {
	h := newHarness(t, `
watch(rcount).
c1 rcount@N(count<*>) :- probe@N(E), ruleTable@N(Q, R, Trig, Src), Q == "temp".
`, "n1")
	count := func() int64 {
		h.t.Helper()
		h.watched = nil
		h.inject("n1", tuple.New("probe", tuple.Str("n1"), tuple.ID(1)))
		h.net.RunFor(1)
		for _, w := range h.watched {
			if w.Name == "rcount" {
				return w.Field(1).AsInt()
			}
		}
		t.Fatal("rcount never observed")
		return -1
	}

	if got := count(); got != 0 {
		t.Fatalf("pre-install rcount = %d, want 0", got)
	}
	// Higher-order install under an explicit query ID.
	h.inject("n1", tuple.New(engine.InstallEventName, tuple.Str("n1"),
		tuple.Str("t1 out@N(X) :- in@N(X)."), tuple.Str("temp")))
	h.net.RunFor(1)
	h.noErrors()
	if got := count(); got != 1 {
		t.Fatalf("post-install rcount = %d, want 1", got)
	}
	foundQ := false
	for _, row := range h.rows("n1", engine.QueryTableName) {
		if row.Field(1).AsStr() == "temp" {
			foundQ = true
			if row.Field(2).AsInt() != 1 {
				t.Errorf("queryTable strand count = %v", row)
			}
		}
	}
	if !foundQ {
		t.Fatal("temp missing from queryTable")
	}
	// Higher-order uninstall.
	h.inject("n1", tuple.New(engine.UninstallEventName, tuple.Str("n1"), tuple.Str("temp")))
	h.net.RunFor(1)
	h.noErrors()
	if got := count(); got != 0 {
		t.Fatalf("post-uninstall rcount = %d, want 0", got)
	}
	for _, row := range h.rows("n1", engine.QueryTableName) {
		if row.Field(1).AsStr() == "temp" {
			t.Error("temp still in queryTable after uninstall")
		}
	}
}

// TestUninstallEventErrors: malformed or unsatisfiable uninstalls surface
// as rule errors, not crashes, and remove nothing.
func TestUninstallEventErrors(t *testing.T) {
	h := newHarness(t, `watch(ok).`, "n1")
	n := h.net.Node("n1")
	h.inject("n1", tuple.New(engine.UninstallEventName, tuple.Str("n1"), tuple.Str("nosuch")))
	h.inject("n1", tuple.New(engine.UninstallEventName, tuple.Str("n1"), tuple.Int(3)))
	h.inject("n1", tuple.New(engine.UninstallEventName, tuple.Str("n1"), tuple.Str("system")))
	h.net.RunFor(1)
	if len(h.errs) != 3 {
		t.Errorf("errors = %v, want 3", h.errs)
	}
	if err := n.UninstallQuery(engine.SystemQuery); err == nil {
		t.Error("uninstalling the system query must fail")
	}
	if len(n.Queries()) != 1 {
		t.Errorf("queries = %v, want the harness program only", n.Queries())
	}
}

// TestPerQueryAccounting: CPU, rule fires, heads and timer fires split
// cleanly per query and sum to the node totals, with network pre- and
// postamble under the reserved system query.
func TestPerQueryAccounting(t *testing.T) {
	h := newHarness(t, pathProgram, "n1", "n2")
	n1, n2 := h.net.Node("n1"), h.net.Node("n2")
	if _, err := n1.InstallQuery("mon", overlog.MustParse(monitorProgram)); err != nil {
		t.Fatal(err)
	}
	h.inject("n1", tuple.New("link", tuple.Str("n1"), tuple.Str("n2"), tuple.Int(1)))
	h.net.Run(10)
	h.noErrors()

	checkQuerySums(t, n1)
	checkQuerySums(t, n2)
	qm1 := n1.QueryMetrics()
	if qm1["q1"].RuleFires == 0 || qm1["q1"].BusySeconds <= 0 {
		t.Errorf("path program unbilled: %+v", qm1["q1"])
	}
	if qm1["mon"].TimerFires == 0 {
		t.Errorf("monitor timer fires unbilled: %+v", qm1["mon"])
	}
	// n1 sent messages to n2, so its system bucket holds marshal costs.
	if qm1[engine.SystemQuery].BusySeconds <= 0 {
		t.Errorf("system bucket empty: %+v", qm1[engine.SystemQuery])
	}
	// Accounting must stay consistent across an uninstall.
	if err := n1.UninstallQuery("mon"); err != nil {
		t.Fatal(err)
	}
	h.net.Run(2)
	checkQuerySums(t, n1)
}

// TestTracerTapLifecycle: with execution logging on, a query's tables
// get tracer taps on install and lose them on uninstall.
func TestTracerTapLifecycle(t *testing.T) {
	sim := simnet.NewSim()
	var errs []string
	net := simnet.NewNetwork(sim, simnet.Config{
		Seed:    1,
		Tracing: &trace.Config{RuleExecTTL: 60, RuleExecMax: 1000, TupleLogMax: 100},
		OnRuleError: func(now float64, node, ruleID string, err error) {
			errs = append(errs, err.Error())
		},
	})
	n, err := net.AddNode("n1")
	if err != nil {
		t.Fatal(err)
	}
	baseTaps := n.NumLogTaps()

	if _, err := n.InstallQuery("mon", overlog.MustParse(`
materialize(foo, infinity, infinity, keys(1,2)).
f1 foo@N(X) :- fev@N(X).
`)); err != nil {
		t.Fatal(err)
	}
	if got := n.NumLogTaps(); got != baseTaps+1 {
		t.Fatalf("taps after install = %d, want %d", got, baseTaps+1)
	}
	if err := net.Inject("n1", tuple.New("fev", tuple.Str("n1"), tuple.Int(7))); err != nil {
		t.Fatal(err)
	}
	net.RunFor(1)
	if len(errs) > 0 {
		t.Fatalf("rule errors: %v", errs)
	}
	if n.Tracer().MemoSize() == 0 {
		t.Fatal("the strand left no trace; test is vacuous")
	}
	if err := n.UninstallQuery("mon"); err != nil {
		t.Fatal(err)
	}
	if got := n.NumLogTaps(); got != baseTaps {
		t.Errorf("taps after uninstall = %d, want %d", got, baseTaps)
	}
}

// FuzzInstallUninstall: on a node that already runs Chord, traced or
// not, a program that parses either fails to install and leaves the
// node's shape and query list as they were, or installs and is
// uninstalled back to the shape the node had before. After the
// uninstall, a tuple of every predicate its rules triggered on moves
// none of its bill, and the relation records match the node throughout.
// On a traced node the event log keeps the one watchTable mark the
// install logged per table it added, up to the log's bound.
func FuzzInstallUninstall(f *testing.F) {
	const logMax = 100
	srcs := []string{chord.Program().Source, chord.TreeProgram(chord.TreeConfig{}).Source}
	for _, d := range monitor.Detectors(5, 10) {
		srcs = append(srcs, d.Program.Source)
	}
	srcs = append(srcs, aggDiffProgram)
	for _, tc := range rejectedInstalls {
		srcs = append(srcs, tc.prog)
	}
	for _, traced := range []bool{false, true} {
		for _, src := range srcs {
			f.Add(src, traced)
		}
	}
	f.Fuzz(func(t *testing.T, src string, traced bool) {
		prog, err := overlog.Parse(src)
		if err != nil {
			return
		}
		cfg := simnet.Config{Seed: 1}
		if traced {
			cfg.Tracing = &trace.Config{RuleExecTTL: 60, RuleExecMax: 100, TupleLogMax: logMax}
		}
		n, err := simnet.NewNetwork(simnet.NewSim(), cfg).AddNode("n1")
		if err != nil {
			t.Fatal(err)
		}
		if err := chord.Install(n, "n1"); err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			if err := engine.CheckRelations(n); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
		check("after chord")
		base, baseQueries, basePlans := shapeOf(n), n.Queries(), len(n.Plans())
		baseTables := len(n.Store().Names())
		if _, err := n.InstallQuery("fuzz", prog); err != nil {
			if got := shapeOf(n); got != base {
				t.Fatalf("rejected install (%v) changed the shape: %+v, was %+v", err, got, base)
			}
			if got := n.Queries(); !slices.Equal(got, baseQueries) {
				t.Fatalf("rejected install (%v) changed the queries: %v, was %v", err, got, baseQueries)
			}
			check("after a rejected install")
			return
		}
		check("after install")
		want := base
		if traced {
			want.log = min(base.log+len(n.Store().Names())-baseTables, logMax)
		}
		var triggers []dataflow.Trigger
		for _, p := range n.Plans()[basePlans:] {
			if p.Trigger.Kind != dataflow.TriggerPeriodic {
				triggers = append(triggers, p.Trigger)
			}
		}
		if err := n.UninstallQuery("fuzz"); err != nil {
			t.Fatal(err)
		}
		if got := shapeOf(n); got != want {
			t.Fatalf("shape after uninstall = %+v, want %+v", got, want)
		}
		check("after uninstall")
		bill := n.QueryMetrics()["fuzz"]
		for _, tr := range triggers {
			fields := []tuple.Value{tuple.Str("n1")}
			for i := 1; i < len(tr.FieldSlots); i++ {
				fields = append(fields, tuple.Int(int64(i)))
			}
			n.HandleLocal(tuple.New(tr.Name, fields...))
		}
		if got := n.QueryMetrics()["fuzz"]; got.RuleFires != bill.RuleFires || got.BusySeconds != bill.BusySeconds {
			t.Fatalf("the uninstalled query still runs: %d fires, %g s billed, was %d, %g",
				got.RuleFires, got.BusySeconds, bill.RuleFires, bill.BusySeconds)
		}
		check("after injecting its triggers")
	})
}
