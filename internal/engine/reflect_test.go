package engine_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"p2go/internal/dataflow"
	"p2go/internal/engine"
	"p2go/internal/metrics"
	"p2go/internal/overlog"
	"p2go/internal/planner"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// counterMap flattens a node's nodeStats rows into name→value. Rows are
// nodeStats(NAddr, Epoch, Counter, Value).
func counterMap(h *harness, addr string) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range h.rows(addr, engine.NodeStatsTableName) {
		if r.ID != 0 {
			h.t.Errorf("nodeStats row %v carries tuple ID %d, want none", r, r.ID)
		}
		v := r.Field(3)
		if v.Kind() == tuple.KindFloat {
			out[r.Field(2).AsStr()] = v.AsFloat()
		} else {
			out[r.Field(2).AsStr()] = float64(v.AsInt())
		}
	}
	return out
}

// statsRowCount is the number of nodeStats rows a node has.
func statsRowCount(n *engine.Node) int {
	return len(metrics.Node{}.Counters()) + len(n.ObsCounters())
}

// TestStatsOnRead: reading nodeStats and queryStats from Go fills them
// with the counters as they stand, with no publication enabled, and the
// read bills nothing: per-query bills still sum to the node total.
func TestStatsOnRead(t *testing.T) {
	h := newHarness(t, pathProgram, "n1", "n2")
	n := h.net.Node("n1")
	h.inject("n1", tuple.New("link", tuple.Str("n1"), tuple.Str("n2"), tuple.Int(1)))
	h.net.Run(10)
	h.noErrors()

	live := n.Metrics()
	if got := n.Store().Get(engine.NodeStatsTableName).Count(); got != 0 {
		t.Fatalf("nodeStats holds %d rows before any read, want 0", got)
	}
	pub := counterMap(h, "n1")
	for _, c := range live.Counters() {
		v, ok := pub[c.Name]
		if !ok {
			t.Fatalf("nodeStats missing counter %s (have %v)", c.Name, pub)
		}
		if v != c.Float() {
			t.Errorf("nodeStats %s = %v, live counter %v", c.Name, v, c.Float())
		}
	}
	if len(pub) != statsRowCount(n) {
		t.Errorf("nodeStats has %d counters, want %d", len(pub), statsRowCount(n))
	}
	if after := n.Metrics(); after != live {
		t.Errorf("a Go-side read moved the counters:\n  before %+v\n  after  %+v", live, after)
	}

	// Rows are queryStats(NAddr, Epoch, QueryID, Counter, Value).
	queries := make(map[string]bool)
	for _, r := range h.rows("n1", engine.QueryStatsTableName) {
		queries[r.Field(2).AsStr()] = true
	}
	if !queries[engine.SystemQuery] || len(queries) != 2 {
		t.Errorf("queryStats covers %v, want system plus the installed query", queries)
	}

	var sum float64
	for _, q := range n.QueryMetrics() {
		sum += q.BusySeconds
	}
	if diff := math.Abs(sum - live.BusySeconds); diff > 1e-9*(1+live.BusySeconds) {
		t.Errorf("per-query bills sum to %v, node total %v", sum, live.BusySeconds)
	}
}

// TestStatsCountFirstTick: a periodic count<*> over nodeStats reports
// every counter from its first tick, with no publication to wait for.
func TestStatsCountFirstTick(t *testing.T) {
	h := newHarness(t, `
c1 counters@N(count<*>) :- periodic@N(E, 1), nodeStats@N(Ep, C, V).
watch(counters).
`, "n1")
	h.net.Run(3.5)
	h.noErrors()
	if len(h.watched) == 0 {
		t.Fatal("the count rule never fired")
	}
	want := int64(statsRowCount(h.net.Node("n1")))
	for i, w := range h.watched {
		if got := w.Field(1).AsInt(); got != want {
			t.Errorf("tick %d counted %d counters, want %d", i+1, got, want)
		}
	}
}

// TestStatsReadInsideRule: a periodic rule reading nodeStats sees the
// counters as they stand when it runs, so a growing counter reads
// higher on every tick, and a Go read after the last tick refills.
func TestStatsReadInsideRule(t *testing.T) {
	h := newHarness(t, pathProgram+`
sp1 sawStats@NAddr(Counter, Value) :- periodic@NAddr(E, 1), nodeStats@NAddr(Ep, Counter, Value), Counter == "TuplesProcessed".
watch(sawStats).
`, "n1")
	h.net.Run(5.5)
	h.noErrors()
	var seen []int64
	for _, w := range h.watched {
		if w.Name == "sawStats" {
			seen = append(seen, w.Field(2).AsInt())
		}
	}
	if len(seen) < 4 {
		t.Fatalf("sawStats fired %d times over 5.5 s at a 1 s period, want >= 4", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Errorf("TuplesProcessed read %v: not growing tick over tick", seen)
		}
	}
	live := float64(h.net.Node("n1").Metrics().TuplesProcessed)
	if got := counterMap(h, "n1")["TuplesProcessed"]; got != live {
		t.Errorf("a Go read after the run gives TuplesProcessed %v, live %v", got, live)
	}
}

// tableArity is a table filled on read and its arity, location
// included.
type tableArity struct {
	name  string
	arity int
}

// reflectionTables are the engine's reflection tables.
var reflectionTables = []tableArity{
	{engine.NodeStatsTableName, 4}, {engine.QueryStatsTableName, 5},
	{engine.RuleTableName, 5}, {engine.TableTableName, 4}, {engine.QueryTableName, 5},
}

// atom renders name@N(<prefix>1, ..., <prefix>k) with k = arity-1
// variables, the second of which is shared between atoms as C.
func atom(name string, arity int, prefix string) string {
	vars := make([]string, arity-1)
	for i := range vars {
		vars[i] = fmt.Sprintf("%s%d", prefix, i+1)
	}
	vars[1] = "C"
	return name + "@N(" + strings.Join(vars, ", ") + ")"
}

// TestStatsFillBillsReader: the first read of a reflection table in a
// task bills one table op per row to the reading query, and a second
// read in the same task bills nothing more. The bill is the difference
// between a self-join over the table and the same self-join over an
// ordinary table holding the same rows.
func TestStatsFillBillsReader(t *testing.T) {
	for _, rt := range reflectionTables {
		name, arity := rt.name, rt.arity
		t.Run(name, func(t *testing.T) {
			fire := func(table, decl string, seed func(*engine.Node)) (n *engine.Node, task, query float64) {
				n = engine.NewNode(engine.Config{Addr: "n1"})
				if _, err := n.InstallQuery("base", overlog.MustParse(pathProgram)); err != nil {
					t.Fatal(err)
				}
				src := decl + "r1 out@N(C) :- periodic@N(E, 1), " + atom(table, arity, "A") + ", " + atom(table, arity, "B") + "."
				if _, err := n.InstallQuery("reader", overlog.MustParse(src)); err != nil {
					t.Fatal(err)
				}
				if seed != nil {
					seed(n)
				}
				task = n.HandleTimer(n.Periodics()[0])
				return n, task, n.QueryMetrics()["reader"].BusySeconds
			}
			n, read, readQ := fire(name, "", nil)
			tb := n.Store().Get(name)
			var rows []tuple.Tuple
			tb.Scan(0, func(r tuple.Tuple) { rows = append(rows, r) })
			if len(rows) == 0 {
				t.Fatalf("%s is empty after the task", name)
			}
			keys := strings.Trim(strings.ReplaceAll(fmt.Sprint(tb.Spec().Keys), " ", ","), "[]")
			_, plain, plainQ := fire("fake", "materialize(fake, infinity, infinity, keys("+keys+")).\n", func(n *engine.Node) {
				for _, r := range rows {
					if _, err := n.Store().Get("fake").Insert(tuple.New("fake", r.Fields...), 0); err != nil {
						t.Fatal(err)
					}
				}
			})
			want := float64(len(rows)) * dataflow.CostTableOp
			if d := read - plain; math.Abs(d-want) > 1e-12 {
				t.Errorf("reading %s cost %v more than an ordinary table, want %v (one table op per row, once per task)", name, d, want)
			}
			if d := readQ - plainQ; math.Abs(d-want) > 1e-12 {
				t.Errorf("the reading query was billed %v more, want %v", d, want)
			}
		})
	}
}

// TestStatsDeltaRuleRefused: nothing inserts into a table filled on
// read, so a rule such a table alone would trigger is refused by name,
// and a rule that joins one with an ordinary table triggers on that
// table only. On a traced node this covers the tracer's tables too.
func TestStatsDeltaRuleRefused(t *testing.T) {
	tables := append([]tableArity{{trace.RuleExecTable, 7}, {trace.TupleTable, 5}, {trace.TupleLogTable, 6}}, reflectionTables...)
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			n := newNode(t, &trace.Config{RuleExecTTL: 60, RuleExecMax: 100, TupleLogMax: 100})
			_, err := n.InstallQuery("q", overlog.MustParse("sp1 saw@N(C) :- "+atom(tc.name, tc.arity, "A")+"."))
			if err == nil || !strings.Contains(err.Error(), "sp1") {
				t.Fatalf("a rule triggered only by %s installed (err %v), want an error naming sp1", tc.name, err)
			}
			if n.HasQuery("q") || n.NumStrands() != 0 {
				t.Fatalf("the refused program left state: %d strands", n.NumStrands())
			}
			if _, err := n.InstallQuery("q", overlog.MustParse(`
materialize(probe, infinity, infinity, keys(1)).
j1 seen@N(C) :- probe@N(C), `+atom(tc.name, tc.arity, "A")+`.
`)); err != nil {
				t.Fatal(err)
			}
			if got := n.NumStrands(); got != 1 {
				t.Errorf("joining %s with a table planned %d strands, want 1 (the table's delta)", tc.name, got)
			}
		})
	}
}

// TestInstallFromDriverIsFree: an install and an uninstall from driver
// context run no task: they bill nothing, process no tuple and take no
// tuple ID, and a ruleTable read afterwards shows none of the query's
// rules.
func TestInstallFromDriverIsFree(t *testing.T) {
	base := func() *engine.Node {
		n := engine.NewNode(engine.Config{Addr: "n1"})
		if _, err := n.InstallQuery("base", overlog.MustParse(pathProgram)); err != nil {
			t.Fatal(err)
		}
		return n
	}
	rules := func(n *engine.Node, id string) int {
		c := 0
		n.Store().Get(engine.RuleTableName).Scan(0, func(r tuple.Tuple) {
			if r.ID != 0 {
				t.Errorf("ruleTable row %v carries tuple ID %d, want none", r, r.ID)
			}
			if r.Field(1).AsStr() == id {
				c++
			}
		})
		return c
	}
	n, ref := base(), base()
	before := n.Metrics()
	if _, err := n.InstallQuery("temp", overlog.MustParse(`
materialize(seen, infinity, infinity, keys(1)).
t1 seen@N(X) :- ev@N(X).
t2 ev@N(X) :- periodic@N(X, 5).
`)); err != nil {
		t.Fatal(err)
	}
	if got := rules(n, "temp"); got != 2 {
		t.Fatalf("ruleTable lists %d of the installed query's rules, want 2", got)
	}
	if err := n.UninstallQuery("temp"); err != nil {
		t.Fatal(err)
	}
	if after := n.Metrics(); after != before {
		t.Errorf("install and uninstall moved the counters:\n  before %+v\n  after  %+v", before, after)
	}
	if got := rules(n, "temp"); got != 0 {
		t.Errorf("ruleTable lists %d rules of the uninstalled query", got)
	}
	if got, want := rules(n, "base"), rules(ref, "base"); got != want {
		t.Errorf("ruleTable lists %d of base's rules, want %d", got, want)
	}
	// The next tuple takes the ID it takes on a node that never saw the
	// install.
	nextID := func(n *engine.Node) uint64 {
		n.HandleLocal(tuple.New("link", tuple.Str("n1"), tuple.Str("n2"), tuple.Int(1)))
		var id uint64
		n.Store().Get("link").Scan(0, func(r tuple.Tuple) { id = r.ID })
		return id
	}
	if got, want := nextID(n), nextID(ref); got != want {
		t.Errorf("the next tuple took ID %d, want %d", got, want)
	}
}

// TestRemoteStatsPublishIsUnknown: a message named statsPublish from a
// peer is an unknown event like any other: it bills the same and stores
// nothing.
func TestRemoteStatsPublishIsUnknown(t *testing.T) {
	deliver := func(name string) (cost float64, live int) {
		n := engine.NewNode(engine.Config{Addr: "n1"})
		raw := tuple.Marshal(nil, tuple.New(name, tuple.Str("n1")))
		cost = n.HandleMessage(engine.Envelope{Src: "n2", SrcTupleID: 7, Raw: raw})
		return cost, n.Store().LiveTuples()
	}
	pubCost, pubLive := deliver("statsPublish")
	otherCost, otherLive := deliver("somethingElse")
	if pubCost != otherCost || pubLive != otherLive {
		t.Errorf("statsPublish billed %v and left %d rows; an unknown event billed %v and left %d",
			pubCost, pubLive, otherCost, otherLive)
	}
}

// TestSystemTables: one predicate names the tables filled on read, the
// engine's and the tracer's; the system tables are those plus nodeEpoch.
func TestSystemTables(t *testing.T) {
	for _, rt := range append([]tableArity{{trace.RuleExecTable, 7}, {trace.TupleTable, 5}, {trace.TupleLogTable, 6}}, reflectionTables...) {
		if !planner.FilledOnRead(rt.name) || !engine.IsSystemTable(rt.name) {
			t.Errorf("%s: FilledOnRead %v, IsSystemTable %v, want both", rt.name,
				planner.FilledOnRead(rt.name), engine.IsSystemTable(rt.name))
		}
	}
	if planner.FilledOnRead(engine.NodeEpochTableName) || !engine.IsSystemTable(engine.NodeEpochTableName) {
		t.Errorf("%s must be a system table that is not filled on read", engine.NodeEpochTableName)
	}
	if engine.IsSystemTable("succ") {
		t.Error("an application table counts as a system table")
	}
}
