package engine_test

import (
	"maps"
	"strings"
	"testing"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// TestEnableTracingIdempotentAndLive: tracing can be enabled mid-life,
// twice, and strands installed before it are traced afterwards.
func TestEnableTracingIdempotentAndLive(t *testing.T) {
	h := newHarness(t, `
materialize(tab, infinity, infinity, keys(1,2)).
r1 tab@N(X) :- ev@N(X).
`, "n1")
	n := h.net.Node("n1")
	h.inject("n1", tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
	h.net.RunFor(1)
	if n.Store().Get(trace.RuleExecTable) != nil {
		t.Fatal("ruleExec must not exist before tracing")
	}
	if err := n.EnableTracing(trace.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := n.EnableTracing(trace.DefaultConfig()); err != nil {
		t.Fatal(err) // idempotent
	}
	h.inject("n1", tuple.New("ev", tuple.Str("n1"), tuple.Int(2)))
	h.net.RunFor(1)
	if n.Store().Get(trace.RuleExecTable).Count() == 0 {
		t.Error("pre-installed strand not traced after EnableTracing")
	}
	if n.Tracer() == nil {
		t.Error("Tracer() must be non-nil")
	}
}

// TestPeriodicsAccessorAndCountedTuple: periodic registration is
// reflected, and bounded periodics generate the 4-field tuple their rule
// declares.
func TestPeriodicsAccessorAndCountedTuple(t *testing.T) {
	h := newHarness(t, `
watch(tick).
t1 tick@N(E, C) :- periodic@N(E, 1, 2), C := 1.
`, "n1")
	n := h.net.Node("n1")
	ps := n.Periodics()
	if len(ps) != 1 || ps[0].Period() != 1 {
		t.Fatalf("periodics = %v", ps)
	}
	h.net.RunFor(5)
	if got := len(h.watched); got != 2 {
		t.Errorf("bounded periodic fired %d times, want 2", got)
	}
	if !ps[0].Done() {
		t.Error("periodic must report Done after its count")
	}
}

// TestConflictingMaterializeRejected: installing a program whose table
// spec conflicts with an existing one fails cleanly.
func TestConflictingMaterializeRejected(t *testing.T) {
	h := newHarness(t, `materialize(tab, 10, 5, keys(1)).`, "n1")
	n := h.net.Node("n1")
	err := n.InstallProgram(mustProg(t, `materialize(tab, 99, 5, keys(1)).`))
	if err == nil || !strings.Contains(err.Error(), "already materialized") {
		t.Errorf("err = %v", err)
	}
	// Identical re-materialization is fine.
	if err := n.InstallProgram(mustProg(t, `materialize(tab, 10, 5, keys(1)).`)); err != nil {
		t.Errorf("idempotent materialize failed: %v", err)
	}
}

// TestPlannerErrorSurfacesOnInstall: a rule joining two events fails at
// install time with a planner diagnostic.
func TestPlannerErrorSurfacesOnInstall(t *testing.T) {
	h := newHarness(t, `watch(x).`, "n1")
	err := h.net.Node("n1").InstallProgram(mustProg(t, `bad@N(A) :- e1@N(A), e2@N(A).`))
	if err == nil || !strings.Contains(err.Error(), "event predicates") {
		t.Errorf("err = %v", err)
	}
}

// TestSweepExpiresState: the driver-visible sweep entry point expires
// soft state and bills cost.
func TestSweepExpiresState(t *testing.T) {
	h := newHarness(t, `
materialize(tab, 2, infinity, keys(1,2)).
`, "n1")
	n := h.net.Node("n1")
	h.inject("n1", tuple.New("tab", tuple.Str("n1"), tuple.Int(1)))
	h.net.RunFor(5) // network sweeps run every second
	if got := n.Store().Get("tab").Count(); got != 0 {
		t.Errorf("rows after TTL = %d", got)
	}
	if cost := n.Sweep(); cost <= 0 {
		t.Error("sweep must bill cost")
	}
}

func mustProg(t *testing.T, src string) *overlog.Program {
	t.Helper()
	p, err := overlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var _ = engine.RuleTableName

// TestIntrospectionQuery: §1.3's first scenario — querying system state
// in place. An OverLog rule joins the node's own ruleTable reflection
// table, counting the rules installed on the node (including itself).
func TestIntrospectionQuery(t *testing.T) {
	h := newHarness(t, `
materialize(tab, infinity, infinity, keys(1,2)).
watch(ruleCount).
r1 tab@N(X) :- ev@N(X).
q1 ruleCount@N(count<*>) :- qev@N(E), ruleTable@N(Q, R, Trig, Src).
`, "n1")
	h.inject("n1", tuple.New("qev", tuple.Str("n1"), tuple.ID(1)))
	h.net.RunFor(1)
	h.noErrors()
	if len(h.watched) != 1 {
		t.Fatalf("watched = %v", h.watched)
	}
	// r1 (one strand) + q1 (one strand) = 2 reflected rules.
	if got := h.watched[0].Field(1).AsInt(); got != 2 {
		t.Errorf("ruleCount = %d, want 2", got)
	}
	// tableTable reflects the declared table.
	found := false
	for _, row := range h.rows("n1", engine.TableTableName) {
		if row.Field(1).AsStr() == "tab" {
			found = true
			if row.Field(3).AsInt() != -1 {
				t.Errorf("tableTable row = %v", row)
			}
		}
	}
	if !found {
		t.Error("tab not reflected in tableTable")
	}
}

// TestSelfJoinThroughIndexes: a rule joining the same table twice — the
// inner probe can hit the very index bucket the outer probe is
// iterating; regression test for reentrant bucket compaction.
func TestSelfJoinThroughIndexes(t *testing.T) {
	h := newHarness(t, `
materialize(edge, 5, infinity, keys(1,2,3)).
watch(two).
j1 two@N(A, C) :- go@N(A), edge@N(A, B), edge@N(B, C).
`, "n1")
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		h.inject("n1", tuple.New("edge", tuple.Str("n1"), tuple.Int(e[0]), tuple.Int(e[1])))
	}
	h.net.RunFor(0.1)
	h.inject("n1", tuple.New("go", tuple.Str("n1"), tuple.Int(1)))
	h.net.RunFor(1)
	h.noErrors()
	// Paths of length 2 from node 1: 1-2-3, 1-2-4.
	got := map[int64]bool{}
	for _, w := range h.watched {
		if w.Name == "two" {
			got[w.Field(2).AsInt()] = true
		}
	}
	if !got[3] || !got[4] || len(got) != 2 {
		t.Errorf("two-hop targets = %v, want {3,4}", got)
	}
}

// TestTupleLogRecordsSystemEvents: with tracing on, tuple arrivals and
// table insertions/removals are buffered as queryable tupleLog rows
// (§2.1's event logging), and an OverLog rule can aggregate over them.
func TestTupleLogRecordsSystemEvents(t *testing.T) {
	h := newHarness(t, `
materialize(tab, 2, infinity, keys(1,2)).
r1 tab@N(X) :- ev@N(X).
`, "n1")
	n := h.net.Node("n1")
	if err := n.EnableTracing(trace.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// The log query is installed AFTER tracing exists (tupleLog is only
	// materialized then) — the on-line deployment order of §1.3.
	err := n.InstallProgram(mustProg(t, `
watch(evCount).
q1 evCount@N(Op, count<*>) :- query@N(E), tupleLog@N(S, Op, Name, ID, T).
`))
	if err != nil {
		t.Fatal(err)
	}
	h.inject("n1", tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
	h.inject("n1", tuple.New("ev", tuple.Str("n1"), tuple.Int(2)))
	h.net.RunFor(4) // TTL 2: both rows expire -> delete events
	h.inject("n1", tuple.New("query", tuple.Str("n1"), tuple.ID(1)))
	h.net.RunFor(1)
	h.noErrors()
	counts := map[string]int64{}
	for _, w := range h.watched {
		if w.Name == "evCount" {
			counts[w.Field(1).AsStr()] = w.Field(2).AsInt()
		}
	}
	if counts["insert"] < 2 {
		t.Errorf("insert events = %d, want >= 2 (%v)", counts["insert"], counts)
	}
	if counts["delete"] < 2 {
		t.Errorf("delete (expiry) events = %d, want >= 2 (%v)", counts["delete"], counts)
	}
	if counts["arrive"] < 3 {
		t.Errorf("arrival events = %d, want >= 3 (%v)", counts["arrive"], counts)
	}
}

// TestHeadWithoutSendIsDropped: a node with no transport drops remote
// heads (counted as sent) without crashing.
func TestHeadWithoutSendIsDropped(t *testing.T) {
	n := engine.NewNode(engine.Config{Addr: "solo", Seed: 1})
	err := n.InstallProgram(mustProg(t, `r1 out@Other(X) :- ev@N(X), Other := "elsewhere".`))
	if err != nil {
		t.Fatal(err)
	}
	n.HandleLocal(tuple.New("ev", tuple.Str("solo"), tuple.Int(1)))
	if n.Metrics().MsgsSent != 1 {
		t.Errorf("sent = %d, want 1 (dropped on the floor)", n.Metrics().MsgsSent)
	}
}

// TestDefaultClockIsZero: a node without a driver clock reads time 0.
func TestDefaultClockIsZero(t *testing.T) {
	n := engine.NewNode(engine.Config{Addr: "solo", Seed: 1})
	if n.Now() != 0 {
		t.Errorf("Now = %v", n.Now())
	}
	if n.LocalAddr() != "solo" || n.Addr() != "solo" {
		t.Error("identity accessors wrong")
	}
	if n.Rand64() == n.Rand64() {
		t.Error("rng must advance")
	}
}

// TestAbandonedActivationKeepsNoRecord: an aggregate activation whose
// count-0 group fails to evaluate (a division by zero) is abandoned, and
// the strand's next activation is traced from its own trigger, not from
// the abandoned one's. A count output records its input alone.
func TestAbandonedActivationKeepsNoRecord(t *testing.T) {
	var errs []string
	n := engine.NewNode(engine.Config{Addr: "n1", OnRuleError: func(_ float64, _ string, err error) {
		errs = append(errs, err.Error())
	}})
	if err := n.EnableTracing(trace.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := n.InstallProgram(mustProg(t, `
materialize(tbl, infinity, infinity, keys(1,2)).
r1 out@N(A / B, count<*>) :- trig@N(A, B), tbl@N(C).
`)); err != nil {
		t.Fatal(err)
	}
	n.HandleLocal(tuple.New("tbl", tuple.Str("n1"), tuple.Int(5)))                // ID 1
	n.HandleLocal(tuple.New("trig", tuple.Str("n1"), tuple.Int(1), tuple.Int(0))) // ID 2: abandoned
	n.HandleLocal(tuple.New("trig", tuple.Str("n1"), tuple.Int(4), tuple.Int(2))) // ID 3, derives out #4
	if len(errs) != 1 {
		t.Fatalf("rule errors = %v, want the one division by zero", errs)
	}
	type edge struct {
		in      uint64
		isEvent bool
	}
	got := map[edge]bool{}
	n.Table(trace.RuleExecTable).Scan(0, func(r tuple.Tuple) {
		if r.Field(1).AsStr() == "r1" && r.Field(3).AsID() == 4 {
			got[edge{r.Field(2).AsID(), r.Field(6).AsBool()}] = true
		}
	})
	want := map[edge]bool{{3, true}: true}
	if !maps.Equal(got, want) {
		t.Errorf("causes of out #4 = %v, want trig #3 (event) alone: %v", got, want)
	}
}
