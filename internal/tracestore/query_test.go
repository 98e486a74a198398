package tracestore

import (
	"strings"
	"testing"
)

// twoNodeFixture builds a two-node causal chain that crosses a
// sealed/active segment seam on n1 and a network hop to n2:
//
//	n1: ev(1) --rA--> 2        (window 0, sealed)
//	n1: 2 --rB--> 3            (window 1, active on n1)
//	hop: n1#3 --> n2#10
//	n2: 10 --rC--> 11          (n2 active)
func twoNodeFixture() map[string]*Store {
	n1 := New("n1", Config{WindowSeconds: 10})
	n2 := New("n2", Config{WindowSeconds: 10})
	n1.AppendExec(exec("rA", 1, 2, 1.0, 1.5, true))
	n1.AppendExec(exec("rB", 2, 3, 11.0, 11.5, false)) // seals window 0
	n2.AppendHop(Hop{ID: 10, Src: "n1", SrcID: 3, Dst: "n2", T: 12.0})
	n2.AppendExec(exec("rC", 10, 11, 12.0, 12.5, false))
	return map[string]*Store{"n1": n1, "n2": n2}
}

// TestAncestorsAcrossSeamAndNodes: the backward walk from n2's final
// tuple crosses the hop back to n1 and the sealed/active seam there.
func TestAncestorsAcrossSeamAndNodes(t *testing.T) {
	v := NewView(twoNodeFixture(), 0)
	l, err := v.Ancestors("n2", 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Edges) != 3 {
		t.Fatalf("edges = %+v, want rC, rB, rA", l.Edges)
	}
	wantRules := []string{"rC", "rB", "rA"} // sorted by depth 1,2,3
	for i, e := range l.Edges {
		if e.Rule != wantRules[i] {
			t.Fatalf("edge[%d].Rule = %q, want %q (edges %+v)", i, e.Rule, wantRules[i], l.Edges)
		}
	}
	if l.Edges[2].Node != "n1" || l.Edges[2].OutID != 2 {
		t.Fatalf("deepest edge = %+v, want rA on n1 producing 2", l.Edges[2])
	}
	if len(l.Hops) != 1 || l.Hops[0].From != "n1" || l.Hops[0].FromID != 3 || l.Hops[0].To != "n2" || l.Hops[0].ToID != 10 {
		t.Fatalf("hops = %+v, want n1#3 -> n2#10", l.Hops)
	}
}

// TestDescendantsAcrossNodes: the forward walk from the origin event
// reaches n2 through the hop.
func TestDescendantsAcrossNodes(t *testing.T) {
	v := NewView(twoNodeFixture(), 0)
	l, err := v.Descendants("n1", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Edges) != 3 {
		t.Fatalf("edges = %+v, want rA, rB, rC", l.Edges)
	}
	last := l.Edges[2]
	if last.Node != "n2" || last.Rule != "rC" || last.OutID != 11 {
		t.Fatalf("final edge = %+v, want rC on n2 producing 11", last)
	}
	if len(l.Hops) != 1 || l.Hops[0].To != "n2" {
		t.Fatalf("hops = %+v, want one hop into n2", l.Hops)
	}
}

// TestAncestorsDepthBound: depth 1 from the end returns only the
// closest exec edge.
func TestAncestorsDepthBound(t *testing.T) {
	v := NewView(twoNodeFixture(), 0)
	l, err := v.Ancestors("n2", 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Edges) != 1 || l.Edges[0].Rule != "rC" {
		t.Fatalf("edges = %+v, want just rC", l.Edges)
	}
}

// TestWalkSkipsUnknownNodes: a hop from a node with no store in the
// view is reported, but the walk continues without error.
func TestWalkSkipsUnknownNodes(t *testing.T) {
	n2 := New("n2", Config{WindowSeconds: 10})
	n2.AppendHop(Hop{ID: 10, Src: "ghost", SrcID: 3, Dst: "n2", T: 12.0})
	n2.AppendExec(exec("rC", 10, 11, 12.0, 12.5, false))
	v := NewView(map[string]*Store{"n2": n2}, 0)
	l, err := v.Ancestors("n2", 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Edges) != 1 || len(l.Hops) != 1 || l.Hops[0].From != "ghost" {
		t.Fatalf("lineage = %+v, want rC edge + ghost hop", l)
	}
}

// TestFlowChain: the flow of the mid-chain tuple includes the hop once.
func TestFlowChain(t *testing.T) {
	v := NewView(twoNodeFixture(), 0)
	hops, err := v.FlowChain("n1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0].From != "n1" || hops[0].To != "n2" {
		t.Fatalf("flow = %+v, want single n1 -> n2 hop", hops)
	}
}

// TestUnknownIDEmptyLineage: querying an ID the store never saw is an
// empty answer, not an error (it may have aged out).
func TestUnknownIDEmptyLineage(t *testing.T) {
	v := NewView(twoNodeFixture(), 0)
	l, err := v.Ancestors("n1", 999999, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Edges) != 0 || len(l.Hops) != 0 {
		t.Fatalf("lineage for unknown ID = %+v, want empty", l)
	}
}

// TestInvestigateSurface: the textual query language end to end.
func TestInvestigateSurface(t *testing.T) {
	v := NewView(twoNodeFixture(), 0)
	res, err := Investigate("ancestors of 11 at n2", v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 3 || len(res.Hops) != 1 {
		t.Fatalf("result = %+v, want 3 edges 1 hop", res)
	}
	rep := res.String()
	for _, want := range []string{"ancestors of tuple 11 at n2", "rA(1 -> 2)", "hop n1#3 -> n2#10"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}

	res, err = Investigate("execs at n1 rule rB", v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 1 || res.Edges[0].Rule != "rB" {
		t.Fatalf("execs rule filter = %+v", res.Edges)
	}

	res, err = Investigate("execs at n1 since 10 until 20 limit 5", v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 1 || res.Edges[0].Rule != "rB" {
		t.Fatalf("execs time filter = %+v", res.Edges)
	}

	// `until` bounds lineage walks too: edges emitted and hops
	// registered after it are neither reported nor followed. Fixture
	// times: rA 1.5, rB 11.5, hop 12.0, rC 12.5.
	for _, tc := range []struct {
		query       string
		edges, hops int
	}{
		{"ancestors of 11 at n2 until 12.5", 3, 1}, // inclusive
		{"ancestors of 11 at n2 until 12.2", 0, 0}, // rC itself is later
		{"ancestors of 10 at n2 until 12.0", 2, 1},
		{"ancestors of 10 at n2 until 11.9", 0, 0}, // the arrival is later: not followed
		{"ancestors of 3 at n1 since 5 until 11.9", 1, 0},
		{"descendants of 1 at n1 until 11.9", 2, 0}, // stops before the hop
		{"descendants of 1 at n1 until 12.2", 2, 1}, // crosses it, rC is later
		{"descendants of 2 at n1 since 5 until 12.2", 1, 1},
		{"descendants of 1 at n1 since 5 until 12.2", 0, 0}, // rA is before since
		{"flow of 3 at n1 until 11.9", 0, 0},
		{"flow of 3 at n1 until 12", 0, 1},
	} {
		res, err := Investigate(tc.query, v)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if len(res.Edges) != tc.edges || len(res.Hops) != tc.hops {
			t.Errorf("%s: %d edges, %d hops; want %d, %d\n%s", tc.query, len(res.Edges), len(res.Hops), tc.edges, tc.hops, res)
		}
	}

	if _, err := Investigate("ancestors of x at n2", v); err == nil {
		t.Fatal("bad tuple ID parsed without error")
	}
	if _, err := Investigate("frobnicate of 1 at n2", v); err == nil {
		t.Fatal("unknown verb parsed without error")
	}
	// A clause its verb does not read is an error naming both, not a
	// filter that matches everything.
	for _, tc := range []struct{ query, clause string }{
		{"execs at n1 name nosuch", "name"},
		{"execs at n1 op nosuch", "op"},
		{"execs at n1 depth 1", "depth"},
		{"ancestors of 11 at n2 rule nosuch", "rule"},
		{"ancestors of 11 at n2 limit 1", "limit"},
		{"descendants of 1 at n1 op arrive", "op"},
		{"flow of 3 at n1 depth 2", "depth"},
		{"flow of 3 at n1 limit 2", "limit"},
		{"events at n1 rule rA", "rule"},
		{"events at n1 depth 1", "depth"},
		{"execs at n1 bogus 3", "bogus"},
	} {
		verb := strings.Fields(tc.query)[0]
		_, err := Investigate(tc.query, v)
		if err == nil || !strings.Contains(err.Error(), verb) || !strings.Contains(err.Error(), `"`+tc.clause+`"`) {
			t.Errorf("%s: error %v, want one naming %s and %q", tc.query, err, verb, tc.clause)
		}
	}
	for _, q := range []string{
		"execs at n1 since NaN", "execs at n1 until nan", "ancestors of 11 at n2 since -NaN",
	} {
		if _, err := Investigate(q, v); err == nil || !strings.Contains(err.Error(), "bad since") && !strings.Contains(err.Error(), "bad until") {
			t.Errorf("%s: error %v, want a bad since or bad until", q, err)
		}
	}
}

// TestEventsQuery: event scans filter by op and name.
func TestEventsQuery(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 10})
	st.AppendEvent(Event{Op: "arrive", Name: "ping", ID: 1, T: 1})
	st.AppendEvent(Event{Op: "insert", Name: "succ", ID: 2, T: 2})
	st.AppendEvent(Event{Op: "arrive", Name: "pong", ID: 3, T: 3})
	v := NewView(map[string]*Store{"n1": st}, 0)
	res, err := Investigate("events at n1 op arrive", v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 2 {
		t.Fatalf("op filter = %+v, want 2 arrive events", res.Events)
	}
	res, err = Investigate("events at n1 name succ", v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 || res.Events[0].Name != "succ" {
		t.Fatalf("name filter = %+v", res.Events)
	}
}
