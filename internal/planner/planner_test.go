package planner

import (
	"strings"
	"testing"

	"p2go/internal/dataflow"
	"p2go/internal/overlog"
)

// env marks the named predicates as materialized.
func env(names ...string) Env {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return EnvFunc(func(name string) bool { return set[name] })
}

var labelN int

func genLabel() string {
	labelN++
	return "gen" + strings.Repeat("x", labelN%3)
}

func plan(t *testing.T, src string, e Env) []*dataflow.Strand {
	t.Helper()
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plans, err := CompileRule(prog.Rules()[0], e, genLabel)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	strands := make([]*dataflow.Strand, len(plans))
	for i, p := range plans {
		strands[i] = p.Instantiate("q")
	}
	return strands
}

func planErr(t *testing.T, src string, e Env) error {
	t.Helper()
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = CompileRule(prog.Rules()[0], e, genLabel)
	if err == nil {
		t.Fatalf("plan of %q must fail", src)
	}
	return err
}

func TestEventTriggerSingleStrand(t *testing.T) {
	strands := plan(t, `r1 out@N(A, B) :- ev@N(A), tab@N(A, B).`, env("tab"))
	if len(strands) != 1 {
		t.Fatalf("strands = %d, want 1", len(strands))
	}
	s := strands[0]
	if s.Trigger.Kind != dataflow.TriggerEvent || s.Trigger.Name != "ev" {
		t.Errorf("trigger = %+v", s.Trigger)
	}
	if s.Stages != 1 {
		t.Errorf("stages = %d, want 1", s.Stages)
	}
	if len(s.Ops) != 1 {
		t.Fatalf("ops = %d, want 1 join", len(s.Ops))
	}
	if j, ok := s.Ops[0].(*dataflow.JoinOp); !ok || j.Table != "tab" || j.Stage != 1 {
		t.Errorf("op = %+v", s.Ops[0])
	}
}

func TestDeltaRewriteOneStrandPerPredicate(t *testing.T) {
	strands := plan(t, `p1 path@B(C) :- link@A(B), path@A(C).`, env("link", "path"))
	if len(strands) != 2 {
		t.Fatalf("strands = %d, want 2 (delta rewrite)", len(strands))
	}
	names := []string{strands[0].Trigger.Name, strands[1].Trigger.Name}
	if names[0] != "link" || names[1] != "path" {
		t.Errorf("trigger names = %v", names)
	}
	for _, s := range strands {
		if s.Trigger.Kind != dataflow.TriggerDelta {
			t.Errorf("trigger kind = %v, want delta", s.Trigger.Kind)
		}
		if s.Stages != 1 {
			t.Errorf("stages = %d, want 1 (other predicate joined)", s.Stages)
		}
	}
}

func TestTwoEventsRejected(t *testing.T) {
	err := planErr(t, `bad@N(A) :- ev1@N(A), ev2@N(A).`, env())
	if !strings.Contains(err.Error(), "two event predicates") {
		t.Errorf("error = %v", err)
	}
}

func TestPeriodicTrigger(t *testing.T) {
	s := plan(t, `t1 tick@N(E) :- periodic@N(E, 2.5).`, env())[0]
	if s.Trigger.Kind != dataflow.TriggerPeriodic || s.Trigger.Period != 2.5 {
		t.Errorf("trigger = %+v", s.Trigger)
	}
	s = plan(t, `t2 once@N(E) :- periodic@N(E, 1, 3).`, env())[0]
	if s.Trigger.Count != 3 {
		t.Errorf("count = %d", s.Trigger.Count)
	}
	planErr(t, `t3 x@N(E) :- periodic@N(E, T).`, env())
	planErr(t, `t4 x@N(E) :- periodic@N(E, 0).`, env())
	planErr(t, `t5 x@N(E) :- ev@N(E), periodic@N(E2, 5).`, env())
}

func TestConditionPlacementSourceOrder(t *testing.T) {
	// The f_rand assignment is written after the join, so it must run
	// per join row (cs2 semantics), not be hoisted to the front.
	s := plan(t, `cs2 out@N(A, R) :- ev@N(E), tab@N(A), R := f_rand().`, env("tab"))[0]
	if len(s.Ops) != 2 {
		t.Fatalf("ops = %d", len(s.Ops))
	}
	if _, ok := s.Ops[0].(*dataflow.JoinOp); !ok {
		t.Errorf("op0 = %T, want join first", s.Ops[0])
	}
	if _, ok := s.Ops[1].(*dataflow.AssignOp); !ok {
		t.Errorf("op1 = %T, want assignment after join", s.Ops[1])
	}
}

func TestConditionDeferredUntilBound(t *testing.T) {
	// Condition written before the predicate that binds B: deferred.
	s := plan(t, `r out@N(A) :- ev@N(A), B > 3, tab@N(A, B).`, env("tab"))[0]
	if len(s.Ops) != 2 {
		t.Fatalf("ops = %d", len(s.Ops))
	}
	if _, ok := s.Ops[0].(*dataflow.JoinOp); !ok {
		t.Errorf("op0 = %T", s.Ops[0])
	}
	if _, ok := s.Ops[1].(*dataflow.CondOp); !ok {
		t.Errorf("op1 = %T", s.Ops[1])
	}
}

func TestUnboundVariableErrors(t *testing.T) {
	planErr(t, `r out@N(A) :- ev@N(A), B > 3.`, env())
	planErr(t, `r out@N(A, B) :- ev@N(A).`, env())
	planErr(t, `r out@N(min<D>) :- ev@N(A).`, env())
}

func TestDeleteHeadAllowsWildcards(t *testing.T) {
	s := plan(t, `d delete tab@N(K, V) :- drop@N(K).`, env("tab"))[0]
	if !s.IsDelete {
		t.Error("IsDelete not set")
	}
	// V is unbound but allowed as a wildcard in a delete head.
}

func TestAggregateSpec(t *testing.T) {
	s := plan(t, `a out@N(K, min<D>) :- ev@N(K), tab@N(K, D).`, env("tab"))[0]
	if s.Agg == nil || s.Agg.Op != "min" || s.Agg.ArgIndex != 2 {
		t.Fatalf("agg = %+v", s.Agg)
	}
	if s.Agg.Slot < 0 {
		t.Error("min aggregate needs a bound slot")
	}
}

func TestCountZeroEligibility(t *testing.T) {
	// Group vars fully bound by the event trigger: EmitZero.
	s := plan(t, `a out@N(K, count<*>) :- ev@N(K), tab@N(K, D).`, env("tab"))[0]
	if s.Agg == nil || !s.Agg.EmitZero {
		t.Errorf("EmitZero = %+v, want true", s.Agg)
	}
	// Group var bound only by the scanned table: no zero emission.
	s = plan(t, `b out@N(G, count<*>) :- periodic@N(E, 5), tab@N(G, D).`, env("tab"))[0]
	if s.Agg.EmitZero {
		t.Error("EmitZero must be false when group vars come from the scan")
	}
}

func TestAggregateDeltaRescansOwnTable(t *testing.T) {
	// cs6 shape: delta-triggered aggregate over its own table must
	// rescan the table (one join op) with only group vars bound by the
	// trigger.
	s := plan(t, `cs6 cluster@N(P, S, count<*>) :- resp@N(P, Q, S).`, env("resp"))[0]
	if s.Trigger.Kind != dataflow.TriggerDelta {
		t.Fatalf("trigger = %+v", s.Trigger)
	}
	if len(s.Ops) != 1 {
		t.Fatalf("ops = %d, want self-rescan join", len(s.Ops))
	}
	j := s.Ops[0].(*dataflow.JoinOp)
	if j.Table != "resp" {
		t.Errorf("join table = %s", j.Table)
	}
	// The trigger must not bind Q (the non-group variable).
	qSlot := -1
	for i, n := range s.VarNames {
		if n == "Q" {
			qSlot = i
		}
	}
	if qSlot < 0 {
		t.Fatal("Q not in var table")
	}
	for _, slot := range s.Trigger.FieldSlots {
		if slot == qSlot {
			t.Error("trigger binds non-group variable Q")
		}
	}
}

func TestTriggerConstants(t *testing.T) {
	s := plan(t, `sr13 out@N(E) :- snapState@N(E, "Snapping"), done@N(E).`, env("snapState", "done"))
	// Two delta strands; the snapState strand carries the constant.
	var snap *dataflow.Strand
	for _, st := range s {
		if st.Trigger.Name == "snapState" {
			snap = st
		}
	}
	if snap == nil {
		t.Fatal("no snapState strand")
	}
	if snap.Trigger.FieldConsts[2].IsNil() {
		t.Error("trigger constant missing")
	}
}

func TestNoBodyPredicatesRejected(t *testing.T) {
	planErr(t, `r out@N(1) :- 1 < 2.`, env())
}

func TestGeneratedLabels(t *testing.T) {
	s := plan(t, `out@N(A) :- ev@N(A).`, env())[0]
	if s.RuleID == "" {
		t.Error("unlabeled rule must receive a generated label")
	}
}

func TestReassignmentRejected(t *testing.T) {
	err := planErr(t, `r out@N(A) :- ev@N(A), A := 5.`, env())
	if !strings.Contains(err.Error(), "already bound") {
		t.Errorf("err = %v", err)
	}
	// Assigning distinct fresh variables remains fine.
	plan(t, `r out@N(A, B, C) :- ev@N(A), B := A + 1, C := B + 1.`, env())
}
