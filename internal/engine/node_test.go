package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"p2go/internal/allocwin"
	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/simnet"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

// harness bundles a simulated network whose nodes all run the same
// program, with watched-tuple capture.
type harness struct {
	t       *testing.T
	sim     *simnet.Sim
	net     *simnet.Network
	watched []tuple.Tuple
	errs    []string
}

func newHarness(t *testing.T, program string, addrs ...string) *harness {
	t.Helper()
	h := &harness{t: t, sim: simnet.NewSim()}
	h.net = simnet.NewNetwork(h.sim, simnet.Config{
		Seed: 1,
		OnWatch: func(now float64, node string, tp tuple.Tuple) {
			h.watched = append(h.watched, tp.Clone())
		},
		OnRuleError: func(now float64, node, ruleID string, err error) {
			h.errs = append(h.errs, node+"/"+ruleID+": "+err.Error())
		},
	})
	prog, err := overlog.Parse(program)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, a := range addrs {
		n, err := h.net.AddNode(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InstallProgram(prog); err != nil {
			t.Fatalf("install on %s: %v", a, err)
		}
	}
	return h
}

func (h *harness) inject(addr string, tp tuple.Tuple) {
	h.t.Helper()
	if err := h.net.Inject(addr, tp); err != nil {
		h.t.Fatal(err)
	}
}

// rows collects a table's tuples on one node.
func (h *harness) rows(addr, tableName string) []tuple.Tuple {
	h.t.Helper()
	tb := h.net.Node(addr).Store().Get(tableName)
	if tb == nil {
		h.t.Fatalf("node %s has no table %s", addr, tableName)
	}
	var out []tuple.Tuple
	tb.Scan(h.sim.Now(), func(tp tuple.Tuple) { out = append(out, tp) })
	return out
}

func (h *harness) noErrors() {
	h.t.Helper()
	if len(h.errs) > 0 {
		h.t.Fatalf("rule errors: %v", h.errs)
	}
}

const pathProgram = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).

p0 path@A(B, [A, B], W) :- link@A(B, W).
p1 path@B(C, [B, A] + P, W1 + W2) :- link@A(B, W1), path@A(C, P, W2).
`

// TestPathVector runs the paper's introductory routing example across
// three nodes: delta-rewrite strands, cross-node delivery, list values.
func TestPathVector(t *testing.T) {
	h := newHarness(t, pathProgram, "n1", "n2", "n3")
	h.inject("n1", tuple.New("link", tuple.Str("n1"), tuple.Str("n2"), tuple.Int(1)))
	h.inject("n2", tuple.New("link", tuple.Str("n2"), tuple.Str("n3"), tuple.Int(2)))
	h.net.Run(10)
	h.noErrors()

	paths := h.rows("n3", "path")
	if len(paths) != 2 {
		t.Fatalf("n3 has %d paths, want 2: %v", len(paths), paths)
	}
	byDst := map[string]tuple.Tuple{}
	for _, p := range paths {
		byDst[p.Field(1).AsStr()] = p
	}
	// n3->n2: link(n2,n3)=2 plus path n2->n2 (=1+1 over the n1 link).
	if p, ok := byDst["n2"]; !ok || p.Field(3).AsInt() != 4 {
		t.Errorf("path n3->n2 = %v, want weight 4", byDst["n2"])
	}
	if p, ok := byDst["n3"]; !ok || p.Field(3).AsInt() != 4 {
		t.Errorf("path n3->n3 = %v, want weight 4", byDst["n3"])
	}
	// n1 only has its own link-derived path.
	if got := len(h.rows("n1", "path")); got != 1 {
		t.Errorf("n1 has %d paths, want 1", got)
	}
}

// TestPeriodicRule checks timer-driven strands: steady firing, watched
// event delivery, and bounded (count-limited) periodics.
func TestPeriodicRule(t *testing.T) {
	h := newHarness(t, `
watch(tick).
watch(once).
t1 tick@N(E) :- periodic@N(E, 1).
t2 once@N(E) :- periodic@N(E, 1, 1).
`, "n1")
	h.net.Run(10.5)
	h.noErrors()
	var ticks, onces int
	for _, w := range h.watched {
		switch w.Name {
		case "tick":
			ticks++
		case "once":
			onces++
		}
	}
	if ticks < 9 || ticks > 11 {
		t.Errorf("ticks = %d, want ~10", ticks)
	}
	if onces != 1 {
		t.Errorf("once fired %d times, want 1", onces)
	}
}

// TestAggregateRecomputation checks that a delta-triggered aggregate
// rescans its whole group rather than counting only the new row (cs6
// semantics).
func TestAggregateRecomputation(t *testing.T) {
	h := newHarness(t, `
materialize(resp, infinity, infinity, keys(1,2,3)).
materialize(cluster, infinity, infinity, keys(1,2)).
c1 cluster@N(Addr, count<*>) :- resp@N(Req, Addr).
`, "n1")
	for i, addr := range []string{"a", "a", "b", "a"} {
		h.inject("n1", tuple.New("resp",
			tuple.Str("n1"), tuple.Int(int64(i)), tuple.Str(addr)))
	}
	h.net.Run(1)
	h.noErrors()
	counts := map[string]int64{}
	for _, r := range h.rows("n1", "cluster") {
		counts[r.Field(1).AsStr()] = r.Field(2).AsInt()
	}
	if counts["a"] != 3 || counts["b"] != 1 {
		t.Errorf("cluster counts = %v, want a:3 b:1", counts)
	}
}

// TestAggregateMinMax checks min/max over an event-triggered scan.
func TestAggregateMinMax(t *testing.T) {
	h := newHarness(t, `
materialize(dist, infinity, infinity, keys(1,2)).
watch(best).
watch(worst).
m1 best@N(min<D>) :- probe@N(E), dist@N(Key, D).
m2 worst@N(max<D>) :- probe@N(E), dist@N(Key, D).
`, "n1")
	for i, d := range []int64{7, 3, 9} {
		h.inject("n1", tuple.New("dist", tuple.Str("n1"), tuple.Int(int64(i)), tuple.Int(d)))
	}
	h.net.RunFor(0.1)
	h.inject("n1", tuple.New("probe", tuple.Str("n1"), tuple.ID(1)))
	h.net.RunFor(1)
	h.noErrors()
	var best, worst int64 = -1, -1
	for _, w := range h.watched {
		switch w.Name {
		case "best":
			best = w.Field(1).AsInt()
		case "worst":
			worst = w.Field(1).AsInt()
		}
	}
	if best != 3 || worst != 9 {
		t.Errorf("best=%d worst=%d, want 3/9", best, worst)
	}
}

// TestAggregateCountZero checks the count-0 emission that snapshot rule
// sr9 depends on: an event-bound group with no matches emits count 0.
func TestAggregateCountZero(t *testing.T) {
	h := newHarness(t, `
materialize(snapState, infinity, infinity, keys(1,2)).
watch(haveSnap).
s1 haveSnap@N(Src, I, count<*>) :- snapState@N(I, State), marker@N(Src, I).
`, "n1")
	h.inject("n1", tuple.New("marker", tuple.Str("n1"), tuple.Str("n2"), tuple.Int(5)))
	h.net.RunFor(0.1)
	h.inject("n1", tuple.New("snapState", tuple.Str("n1"), tuple.Int(5), tuple.Str("Snapping")))
	h.net.RunFor(0.1)
	h.inject("n1", tuple.New("marker", tuple.Str("n1"), tuple.Str("n3"), tuple.Int(5)))
	h.net.RunFor(1)
	h.noErrors()
	var counts []int64
	for _, w := range h.watched {
		if w.Name == "haveSnap" {
			counts = append(counts, w.Field(3).AsInt())
		}
	}
	if len(counts) != 2 || counts[0] != 0 || counts[1] != 1 {
		t.Errorf("haveSnap counts = %v, want [0 1]", counts)
	}
}

// TestDeleteRule checks delete rules, including wildcard (unbound) head
// fields as in cs10.
func TestDeleteRule(t *testing.T) {
	h := newHarness(t, `
materialize(entry, infinity, infinity, keys(1,2,3)).
d1 delete entry@N(Key, Val) :- drop@N(Key).
`, "n1")
	for i := int64(0); i < 3; i++ {
		h.inject("n1", tuple.New("entry", tuple.Str("n1"), tuple.Int(i%2), tuple.Int(10+i)))
	}
	h.net.RunFor(0.1)
	// Key 0 matches entries (0,10) and (0,12); Val is a wildcard.
	h.inject("n1", tuple.New("drop", tuple.Str("n1"), tuple.Int(0)))
	h.net.RunFor(1)
	h.noErrors()
	rows := h.rows("n1", "entry")
	if len(rows) != 1 || rows[0].Field(1).AsInt() != 1 {
		t.Errorf("surviving rows = %v, want only key 1", rows)
	}
}

// TestConditionsAndBuiltins exercises selections, assignments and f_now.
func TestConditionsAndBuiltins(t *testing.T) {
	h := newHarness(t, `
materialize(seen, infinity, infinity, keys(1,2)).
c1 seen@N(X, T) :- ev@N(X), X != 3, T := f_now().
`, "n1")
	for _, x := range []int64{1, 3, 5} {
		h.inject("n1", tuple.New("ev", tuple.Str("n1"), tuple.Int(x)))
	}
	h.net.RunFor(2)
	h.noErrors()
	rows := h.rows("n1", "seen")
	if len(rows) != 2 {
		t.Fatalf("seen rows = %v, want 2", rows)
	}
	for _, r := range rows {
		if r.Field(2).Kind() != tuple.KindFloat {
			t.Errorf("timestamp not a float: %v", r)
		}
	}
}

// TestRemoteEventTrigger checks that a head routed to another node
// triggers that node's event strands.
func TestRemoteEventTrigger(t *testing.T) {
	h := newHarness(t, `
materialize(log, infinity, infinity, keys(1,2)).
r1 pingResp@Src(N) :- pingReq@N(Src).
r2 log@N(From) :- pingResp@N(From).
`, "n1", "n2")
	h.inject("n2", tuple.New("pingReq", tuple.Str("n2"), tuple.Str("n1")))
	h.net.Run(2)
	h.noErrors()
	rows := h.rows("n1", "log")
	if len(rows) != 1 || rows[0].Field(1).AsStr() != "n2" {
		t.Errorf("log rows = %v, want pingResp from n2", rows)
	}
}

// TestRuleErrorReporting: a type error inside a rule is reported, not
// fatal.
func TestRuleErrorReporting(t *testing.T) {
	h := newHarness(t, `
watch(out).
b1 out@N(V) :- ev@N(X), V := X + true.
`, "n1")
	h.inject("n1", tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
	h.net.RunFor(1)
	if len(h.errs) == 0 || !strings.Contains(h.errs[0], "add") {
		t.Errorf("expected add type error, got %v", h.errs)
	}
	if len(h.watched) != 0 {
		t.Errorf("no tuple should be produced, got %v", h.watched)
	}
}

// TestTTLRefreshThroughRules: reinsertion of identical derived state
// refreshes TTL without retriggering downstream rules.
func TestTTLRefreshThroughRules(t *testing.T) {
	h := newHarness(t, `
materialize(alive, 3, infinity, keys(1,2)).
watch(derived).
a1 alive@N(X) :- beat@N(X).
a2 derived@N(X) :- alive@N(X).
`, "n1")
	h.inject("n1", tuple.New("beat", tuple.Str("n1"), tuple.Int(7)))
	h.net.RunFor(2)
	h.inject("n1", tuple.New("beat", tuple.Str("n1"), tuple.Int(7))) // refresh at t≈2
	h.net.RunFor(2)                                                  // t≈4: original TTL passed, refreshed row alive
	h.noErrors()
	if got := len(h.rows("n1", "alive")); got != 1 {
		t.Errorf("alive rows = %d, want 1 (refreshed)", got)
	}
	if len(h.watched) != 1 {
		t.Errorf("derived fired %d times, want 1 (no retrigger on refresh)", len(h.watched))
	}
	h.net.RunFor(4) // t≈8: refreshed TTL also passed
	if got := len(h.rows("n1", "alive")); got != 0 {
		t.Errorf("alive rows after expiry = %d, want 0", got)
	}
}

// TestReflectionTables: installed rules and tables are queryable.
func TestReflectionTables(t *testing.T) {
	h := newHarness(t, pathProgram, "n1")
	rules := h.rows("n1", engine.RuleTableName)
	// p0 has 1 strand (delta on link); p1 has 2 (delta on link, path).
	if len(rules) != 3 {
		t.Errorf("ruleTable rows = %d, want 3", len(rules))
	}
	tabs := h.rows("n1", engine.TableTableName)
	if len(tabs) != 2 {
		t.Errorf("tableTable rows = %d, want 2 (link, path)", len(tabs))
	}
}

// TestMetricsAccounting: messages and rule fires are counted.
func TestMetricsAccounting(t *testing.T) {
	h := newHarness(t, pathProgram, "n1", "n2")
	h.inject("n1", tuple.New("link", tuple.Str("n1"), tuple.Str("n2"), tuple.Int(1)))
	h.net.Run(5)
	m1 := h.net.Node("n1").Metrics()
	m2 := h.net.Node("n2").Metrics()
	if m1.MsgsSent == 0 || m2.MsgsRecv == 0 {
		t.Errorf("expected cross-node traffic, got sent=%d recv=%d", m1.MsgsSent, m2.MsgsRecv)
	}
	if m1.BusySeconds <= 0 {
		t.Error("busy time must accumulate")
	}
	if m1.RuleFires == 0 {
		t.Error("rule fires must be counted")
	}
}

// TestTableKeyedReplacementViaRules: a keyed table updated by a rule
// keeps one row per key (bestSucc-style state).
func TestTableKeyedReplacementViaRules(t *testing.T) {
	h := newHarness(t, `
materialize(best, infinity, infinity, keys(1)).
b1 best@N(X) :- obs@N(X).
`, "n1")
	for _, x := range []int64{5, 9, 2} {
		h.inject("n1", tuple.New("obs", tuple.Str("n1"), tuple.Int(x)))
	}
	h.net.RunFor(1)
	h.noErrors()
	rows := h.rows("n1", "best")
	if len(rows) != 1 || rows[0].Field(1).AsInt() != 2 {
		t.Errorf("best = %v, want single row with last value 2", rows)
	}
}

var _ = table.Infinity // keep import for doc cross-reference

// TestHigherOrderInstall exercises §1.3's autonomic usage model: a rule
// reacts to an alarm by installing a new, more detailed monitor on-line
// (the installProgram event).
func TestHigherOrderInstall(t *testing.T) {
	h := newHarness(t, `
watch(detail).
a1 installProgram@N(P) :- alarm@N(X), P := "watch(detail). d1 detail@N(Y, T) :- obs@N(Y), T := f_now().".
`, "n1")
	// Before the alarm, obs events are ignored (no detail rule).
	h.inject("n1", tuple.New("obs", tuple.Str("n1"), tuple.Int(1)))
	h.net.RunFor(1)
	if len(h.watched) != 0 {
		t.Fatalf("premature detail: %v", h.watched)
	}
	// The alarm triggers self-installation of the detail monitor.
	h.inject("n1", tuple.New("alarm", tuple.Str("n1"), tuple.Int(9)))
	h.net.RunFor(1)
	h.inject("n1", tuple.New("obs", tuple.Str("n1"), tuple.Int(2)))
	h.net.RunFor(1)
	h.noErrors()
	found := false
	for _, w := range h.watched {
		if w.Name == "detail" && w.Field(1).AsInt() == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("detail monitor not installed on alarm: %v", h.watched)
	}
}

// TestInstallEventErrors: malformed higher-order installs surface as
// rule errors, not crashes.
func TestInstallEventErrors(t *testing.T) {
	h := newHarness(t, `watch(ok).`, "n1")
	h.inject("n1", tuple.New("installProgram", tuple.Str("n1"), tuple.Str("this is not overlog")))
	h.inject("n1", tuple.New("installProgram", tuple.Str("n1"), tuple.Int(3)))
	h.net.RunFor(1)
	if len(h.errs) != 2 {
		t.Errorf("errors = %v, want 2", h.errs)
	}
}

// TestDrainQueueAllocs is the regression test for the drain queue leak:
// the old `n.queue = n.queue[1:]` pop shrank the slice's capacity on
// every step, so a deep steady-state cascade reallocated the whole
// backing array roughly once per emission — O(depth) fresh bytes per
// pop. The ring-buffer drain recycles slots, so a long cascade's
// allocations are dominated by the tuples themselves.
func TestDrainQueueAllocs(t *testing.T) {
	const seedRows, hops = 128, 200
	prog, err := overlog.Parse(`
materialize(seedt, infinity, infinity, keys(2)).
r0 hop@N(A, B) :- kick@N(X), seedt@N(A), B := ` + fmt.Sprint(hops) + `.
r1 hop@N(A, J) :- hop@N(A, K), K > 0, J := K - 1.
`)
	if err != nil {
		t.Fatal(err)
	}
	n := engine.NewNode(engine.Config{Addr: "n1", Seed: 1})
	if err := n.InstallProgram(prog); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < seedRows; j++ {
		n.HandleLocal(tuple.New("seedt", tuple.Str("n1"), tuple.Int(int64(j))))
	}
	// One kick floods the queue with seedRows hop chains that count
	// down in lockstep: the queue holds ~seedRows entries for
	// seedRows*hops pops — the exact shape that made the old pop
	// quadratic in total bytes allocated.
	kick := tuple.New("kick", tuple.Str("n1"), tuple.Int(0))
	w := allocwin.Measure(func() { n.HandleLocal(kick) })

	pops := n.Metrics().TuplesProcessed
	if pops < seedRows*hops {
		t.Fatalf("cascade too short: processed %d tuples, want >= %d", pops, seedRows*hops)
	}
	perPop := float64(w.Bytes) / float64(pops)
	// The emitted hop tuple itself costs ~175 B/pop; the ring-buffer
	// drain adds nothing on top (measured ~178 B/pop). The old reslice
	// pop leaked the queue's backing array — capacity shrank by one per
	// pop, so steady-state churn reallocated the array every ~depth
	// pops, measured at ~335 B/pop on this workload. 250 B/pop sits
	// between the two with ~40% margin each way.
	if perPop > 250 {
		t.Errorf("drain allocated %.0f B/pop over a %d-pop cascade, want <= 250 (queue pop is leaking its backing array again)", perPop, pops)
	}
}
