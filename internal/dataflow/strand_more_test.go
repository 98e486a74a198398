package dataflow

import (
	"testing"

	"p2go/internal/overlog"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

func TestStrandString(t *testing.T) {
	s := joinStrand()
	if got := s.String(); got != "strand(r1<-ev)" {
		t.Errorf("String = %q", got)
	}
}

// TestIndexedJoinMatchesScanFallback: with IndexPositions set, the
// indexed path must produce the same matches as the same plan with
// IndexPositions nil, which scans, both for a join indexed on a
// trigger-bound variable and for one whose fresh variable repeats in
// the row, which the index does not check.
func TestIndexedJoinMatchesScanFallback(t *testing.T) {
	for _, repeat := range []bool{false, true} {
		testIndexedJoinMatchesScan(t, repeat)
	}
}

func testIndexedJoinMatchesScan(t *testing.T, repeat bool) {
	run := func(indexed bool) []tuple.Tuple {
		ctx := newFakeCtx(t)
		tab := ctx.store.Get("tab")
		for i := int64(0); i < 10; i++ {
			tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(i%3), tuple.Int(i)), 0) //nolint:errcheck
		}
		s := joinStrand()
		s.Ops = s.Ops[:1] // drop the condition; join only
		op := s.Ops[0].(*JoinOp)
		op.IndexPositions = []int{0, 1}
		if repeat { // out@N(A, A, A) :- ev@N(_), tab@N(A, A).
			s.Trigger.FieldSlots = []int{0, -1}
			op.FieldSlots = []int{0, 1, 1}
			op.IndexPositions = []int{0}
			s.HeadArgs = []overlog.Expr{ref("N"), ref("A"), ref("A")}
		}
		if !indexed {
			op.IndexPositions = nil
		}
		s.Compile()
		s.Run(ctx, tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
		return ctx.heads
	}
	indexed, scanned := run(true), run(false)
	if len(indexed) != len(scanned) || len(indexed) != 3 {
		t.Fatalf("repeat=%v: indexed=%d scanned=%d, want 3 each", repeat, len(indexed), len(scanned))
	}
	// Join order is unspecified; compare as multisets.
	asSet := func(ts []tuple.Tuple) map[uint64]int {
		m := map[uint64]int{}
		for _, x := range ts {
			m[x.Hash()]++
		}
		return m
	}
	si, ss := asSet(indexed), asSet(scanned)
	for k, v := range si {
		if ss[k] != v {
			t.Errorf("multiset mismatch: %v vs %v", indexed, scanned)
			break
		}
	}
}

// TestMinMaxEmptyEmitsNothing: min/max over zero matches emit no head.
func TestMinMaxEmptyEmitsNothing(t *testing.T) {
	ctx := newFakeCtx(t)
	s := strandOf(&Plan{
		RuleID:  "m",
		Trigger: Trigger{Kind: TriggerEvent, Name: "probe", FieldSlots: []int{0}, FieldConsts: make([]tuple.Value, 1)},
		NumVars: 3, VarNames: []string{"N", "K", "V"},
		Ops: []Op{
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 2}, FieldConsts: make([]tuple.Value, 3)},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Agg{Op: "min", Var: "V"}},
		Agg:      &AggSpec{Op: "min", Slot: 2, ArgIndex: 1},
		Stages:   1,
	})
	s.Run(ctx, tuple.New("probe", tuple.Str("n1")))
	if len(ctx.heads) != 0 {
		t.Errorf("min over empty emitted %v", ctx.heads)
	}
}

// TestCountZeroEmission at the dataflow level (EmitZero set).
func TestCountZeroEmission(t *testing.T) {
	ctx := newFakeCtx(t)
	s := strandOf(&Plan{
		RuleID:  "c",
		Trigger: Trigger{Kind: TriggerEvent, Name: "probe", FieldSlots: []int{0, 1}, FieldConsts: make([]tuple.Value, 2)},
		NumVars: 3, VarNames: []string{"N", "G", "V"},
		Ops: []Op{
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 2}, FieldConsts: make([]tuple.Value, 3)},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Var{Name: "G"}, &overlog.Agg{Op: "count"}},
		Agg:      &AggSpec{Op: "count", Slot: -1, ArgIndex: 2, EmitZero: true},
		Stages:   1,
	})
	s.Run(ctx, tuple.New("probe", tuple.Str("n1"), tuple.Int(42)))
	if len(ctx.heads) != 1 {
		t.Fatalf("heads = %v", ctx.heads)
	}
	h := ctx.heads[0]
	if h.Field(1).AsInt() != 42 || h.Field(2).AsInt() != 0 {
		t.Errorf("zero-count head = %v", h)
	}
}

// Expression shorthands for the error-text tests.
func lit(v tuple.Value) overlog.Expr                { return &overlog.Lit{Val: v} }
func ref(name string) overlog.Expr                  { return &overlog.Var{Name: name} }
func bin(op string, l, r overlog.Expr) overlog.Expr { return &overlog.Binary{Op: op, L: l, R: r} }

// TestCondAndAssignErrorsReported: an evaluation failure surfaces as a
// rule error with the evaluator's exact text and drops the binding
// without aborting the activation. Where both operands of an expression
// fail, the text also pins which one is evaluated first; Nope has no
// slot in the layout.
func TestCondAndAssignErrorsReported(t *testing.T) {
	typeErr := bin("+", lit(tuple.Bool(true)), lit(tuple.Int(1)))
	divZero := bin("/", ref("B"), lit(tuple.Int(0)))
	for _, tc := range []struct {
		name  string
		op    Op
		want  string // "" = no error
		heads int
	}{
		{"cond type error", &CondOp{Expr: typeErr}, "cannot add bool and int", 0},
		{"assign type error", &AssignOp{Slot: 2, Expr: typeErr}, "cannot add bool and int", 0},
		{"left operand first", &CondOp{Expr: bin("<", divZero, ref("Nope"))}, "integer division by zero", 0},
		{"left operand first, swapped", &AssignOp{Slot: 2, Expr: bin("-", ref("Nope"), divZero)}, "unbound variable Nope", 0},
		{"range bound order", &CondOp{Expr: &overlog.RangeExpr{X: ref("B"), Lo: ref("Nope"), Hi: divZero}}, "unbound variable Nope", 0},
		{"arguments before arity", &CondOp{Expr: &overlog.Call{Name: "f_now", Args: []overlog.Expr{divZero}}}, "integer division by zero", 0},
		{"arity", &CondOp{Expr: &overlog.Call{Name: "f_now", Args: []overlog.Expr{ref("B")}}}, "f_now expects 0 argument(s), got 1", 0},
		{"unknown builtin", &AssignOp{Slot: 2, Expr: &overlog.Call{Name: "f_nope"}}, "unknown builtin f_nope", 0},
		{"&& short-circuits", &CondOp{Expr: bin("&&", bin("==", ref("B"), lit(tuple.Int(0))), divZero)}, "", 0},
		{"|| short-circuits", &CondOp{Expr: bin("||", bin("==", ref("B"), lit(tuple.Int(2))), divZero)}, "", 1},
	} {
		ctx := newFakeCtx(t)
		ctx.store.Get("tab").Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(1), tuple.Int(2)), 0) //nolint:errcheck
		s := joinStrand()
		s.Ops = []Op{s.Ops[0], tc.op}
		s.Compile()
		s.Run(ctx, tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
		checkErrs(t, tc.name, ctx.errs, tc.want)
		if len(ctx.heads) != tc.heads {
			t.Errorf("%s: heads = %v, want %d", tc.name, ctx.heads, tc.heads)
		}
	}
}

// checkErrs wants exactly one rule error reading want, or none for "".
func checkErrs(t *testing.T, name string, errs []error, want string) {
	t.Helper()
	switch {
	case want == "" && len(errs) != 0:
		t.Errorf("%s: errors %v, want none", name, errs)
	case want != "" && (len(errs) != 1 || errs[0].Error() != want):
		t.Errorf("%s: errors %v, want exactly %q", name, errs, want)
	}
}

// TestHeadEvalErrorReported: a head argument that cannot evaluate is a
// rule error with the evaluator's text, not a panic, and arguments are
// evaluated left to right — on the emit path and on a rescan
// aggregate's group-by values.
func TestHeadEvalErrorReported(t *testing.T) {
	divZero := bin("/", lit(tuple.Int(1)), lit(tuple.Int(0)))
	for _, tc := range []struct {
		name string
		args []overlog.Expr
		want string
	}{
		{"division", []overlog.Expr{ref("N"), divZero}, "integer division by zero"},
		{"left to right", []overlog.Expr{ref("N"), ref("Nope"), divZero}, "unbound variable Nope"},
	} {
		ctx := newFakeCtx(t)
		s := strandOf(&Plan{
			RuleID:   "h",
			Trigger:  Trigger{Kind: TriggerEvent, Name: "ev", FieldSlots: []int{0}, FieldConsts: make([]tuple.Value, 1)},
			NumVars:  1,
			VarNames: []string{"N"},
			HeadName: "out",
			HeadArgs: tc.args,
		})
		s.Run(ctx, tuple.New("ev", tuple.Str("n1")))
		checkErrs(t, tc.name, ctx.errs, tc.want)
		if len(ctx.heads) != 0 {
			t.Errorf("%s: heads = %v", tc.name, ctx.heads)
		}
	}

	// Group-by values: one error per folded binding, no group, no head.
	ctx := newFakeCtx(t)
	ctx.store.Get("tab").Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(1), tuple.Int(2)), 0) //nolint:errcheck
	s := clusterStrand()
	s.HeadArgs = []overlog.Expr{ref("N"), bin("%", ref("A"), lit(tuple.Int(0))), &overlog.Agg{Op: "count"}}
	s.Compile()
	s.Run(ctx, tuple.New("probe", tuple.Str("n1")))
	checkErrs(t, "group-by value", ctx.errs, "modulo by zero")
	if len(ctx.heads) != 0 {
		t.Errorf("group-by value: heads = %v", ctx.heads)
	}
}

// TestRebuildUnboundSlotReported: an accumulator rebuild runs the
// pipeline without the trigger's binding, so a slot the plan binds from
// the trigger is nil there (the case the indexed join falls back to a
// scan for). Reading it is the "unbound variable" error, exactly as the
// by-name lookup reported it, not a silent nil.
func TestRebuildUnboundSlotReported(t *testing.T) {
	s := countStrand()
	s.NumVars, s.VarNames = 4, []string{"N", "A", "B", "T"}
	s.Trigger.FieldSlots = []int{0, 3, -1} // T from the trigger only
	s.Ops = []Op{s.Ops[0], &CondOp{Expr: bin(">", ref("T"), lit(tuple.Int(0)))}}
	s.Compile()
	ctx, tb := newAggCtx(t, s, table.Infinity)
	tb.Insert(row("n1", 1, 10), 0) //nolint:errcheck

	s.Run(ctx, row("n1", 5, 0)) // rescan: T is bound
	checkErrs(t, "rescan", ctx.errs, "")
	ctx.incremental = true
	s.Run(ctx, row("n1", 5, 0)) // rebuild: T is not
	checkErrs(t, "rebuild", ctx.errs, "unbound variable T")
}

var _ = table.Infinity

// TestJoinNested: an activation re-entered from inside the second of
// two index probes works in frames of its own, so the outer activation
// resumes with its binding and probe keys intact and emits exactly the
// heads of a flat run, in the same order.
func TestJoinNested(t *testing.T) {
	// out@N(A, B, C) :- ev@N(A), t1@N(A, B), t2@N(B, C).
	s := strandOf(&Plan{
		RuleID:  "j2",
		Trigger: Trigger{Kind: TriggerEvent, Name: "ev", FieldSlots: []int{0, 1}, FieldConsts: make([]tuple.Value, 2)},
		NumVars: 4, VarNames: []string{"N", "A", "B", "C"},
		Ops: []Op{
			&JoinOp{Table: "t1", Stage: 1, FieldSlots: []int{0, 1, 2}, FieldConsts: make([]tuple.Value, 3), IndexPositions: []int{0, 1}},
			&JoinOp{Table: "t2", Stage: 2, FieldSlots: []int{0, 2, 3}, FieldConsts: make([]tuple.Value, 3), IndexPositions: []int{0, 1}},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{ref("N"), ref("A"), ref("B"), ref("C")},
		Stages:   2,
	})
	store := table.NewStore()
	for _, name := range []string{"t1", "t2"} {
		tb, err := store.Materialize(table.Spec{Name: name, Lifetime: table.Infinity, MaxSize: table.Infinity, Keys: []int{1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		tb.EnsureIndex([]int{0, 1})
	}
	// A = 1 reaches B = 10..12 and A = 2 reaches B = 13; each B reaches
	// three C.
	for b := int64(10); b < 14; b++ {
		store.Get("t1").Insert(tuple.New("t1", tuple.Str("n1"), tuple.Int(1+b/13), tuple.Int(b)), 0) //nolint:errcheck
		for c := int64(0); c < 3; c++ {
			store.Get("t2").Insert(tuple.New("t2", tuple.Str("n1"), tuple.Int(b), tuple.Int(c)), 0) //nolint:errcheck
		}
	}
	outer, inner := tuple.New("ev", tuple.Str("n1"), tuple.Int(1)), tuple.New("ev", tuple.Str("n1"), tuple.Int(2))
	flat := func(trig tuple.Tuple) []tuple.Tuple {
		c := &nestingCtx{nullCtx: nullCtx{store: store}, nested: true}
		s.Run(c, trig)
		return c.heads
	}
	flatOuter, flatInner := flat(outer), flat(inner)
	if len(flatOuter) != 9 || len(flatInner) != 3 {
		t.Fatalf("flat runs emitted %d and %d heads, want 9 and 3", len(flatOuter), len(flatInner))
	}
	nest := &nestingCtx{nullCtx: nullCtx{store: store}, trig: inner}
	s.Run(nest, outer)
	// Outer head 0, the whole inner activation, then the outer's rest.
	want := append(append([]tuple.Tuple{flatOuter[0]}, flatInner...), flatOuter[1:]...)
	if len(nest.heads) != len(want) {
		t.Fatalf("nested run emitted %d heads, want %d: %v", len(nest.heads), len(want), nest.heads)
	}
	for i := range want {
		if !nest.heads[i].Equal(want[i]) {
			t.Errorf("nested run, head %d = %v, want %v", i, nest.heads[i], want[i])
		}
	}
}
