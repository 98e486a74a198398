package engine_test

import (
	"math"
	"strings"
	"testing"

	"p2go/internal/dataflow"
	"p2go/internal/engine"
	"p2go/internal/metrics"
	"p2go/internal/overlog"
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

// TestStatsFillBillsReader: the first read of nodeStats in a task bills
// one table op per row to the reading query, and a second read in the
// same task bills nothing more. The bill is the difference between a
// self-join over nodeStats and the same self-join over an ordinary
// table holding as many rows.
func TestStatsFillBillsReader(t *testing.T) {
	const rule = `r1 out@N(C) :- periodic@N(E, 1), %s@N(Ep, C, V), %s@N(Ep2, C, V2), V2 < 0.`
	fire := func(table string, seed func(*engine.Node)) (task, query float64) {
		n := engine.NewNode(engine.Config{Addr: "n1"})
		src := strings.ReplaceAll(rule, "%s", table)
		if table != engine.NodeStatsTableName {
			src = "materialize(" + table + ", infinity, infinity, keys(3)).\n" + src
		}
		id, err := n.InstallQuery("reader", overlog.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if seed != nil {
			seed(n)
		}
		task = n.HandleTimer(n.Periodics()[0])
		return task, n.QueryMetrics()[id].BusySeconds
	}
	stats, statsQ := fire(engine.NodeStatsTableName, nil)
	plain, plainQ := fire("fakeStats", func(n *engine.Node) {
		tb := n.Store().Get("fakeStats")
		for i := 0; i < statsRowCount(n); i++ {
			row := tuple.New("fakeStats", tuple.Str("n1"), tuple.Int(0), tuple.Int(int64(i)), tuple.Int(0))
			if _, err := tb.Insert(row, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	want := float64(statsRowCount(engine.NewNode(engine.Config{Addr: "n1"}))) * dataflow.CostTableOp
	if d := stats - plain; math.Abs(d-want) > 1e-12 {
		t.Errorf("reading nodeStats cost %v more than an ordinary table, want %v (one table op per row, once per task)", d, want)
	}
	if d := statsQ - plainQ; math.Abs(d-want) > 1e-12 {
		t.Errorf("the reading query was billed %v more, want %v", d, want)
	}
}

// TestStatsDeltaRuleRefused: nothing inserts into the stats tables, so
// a rule they alone would trigger is refused by name, and a rule that
// joins one with an ordinary table triggers on that table only.
func TestStatsDeltaRuleRefused(t *testing.T) {
	n := engine.NewNode(engine.Config{Addr: "n1"})
	_, err := n.InstallQuery("q", overlog.MustParse(
		`sp1 sawStats@NAddr(Counter, Value) :- nodeStats@NAddr(Ep, Counter, Value), Counter == "TuplesProcessed".`))
	if err == nil || !strings.Contains(err.Error(), "sp1") {
		t.Fatalf("a rule triggered only by nodeStats installed (err %v), want an error naming sp1", err)
	}
	if n.HasQuery("q") || n.NumStrands() != 0 {
		t.Fatalf("the refused program left state: %d strands", n.NumStrands())
	}
	if _, err := n.InstallQuery("q", overlog.MustParse(`
materialize(probe, infinity, infinity, keys(1)).
j1 seen@N(Q, C) :- probe@N(Q), queryStats@N(Ep, Q, C, V).
`)); err != nil {
		t.Fatal(err)
	}
	if got := n.NumStrands(); got != 1 {
		t.Errorf("joining queryStats with a table planned %d strands, want 1 (the table's delta)", got)
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
