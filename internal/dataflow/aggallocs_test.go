package dataflow

import (
	"math"
	"testing"

	"p2go/internal/overlog"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

// TestAggL2ActivationAllocs is TestStrandActivationAllocs for Chord's l2:
// a rescan aggregate whose range and distance are evaluated by slot on
// each of 160 rows and fold into a recycled state, so a warm activation
// allocates nothing beyond the head it emits.
func TestAggL2ActivationAllocs(t *testing.T) {
	ctx, s, trig := l2Setup(t)
	s.Run(ctx, trig) // warm up the state and the frame buffer
	ctx.heads = 0
	if allocs := testing.AllocsPerRun(100, func() { s.Run(ctx, trig); ctx.reset() }); allocs != 0 {
		t.Errorf("%v allocs per activation, want 0", allocs)
	}
	if ctx.heads != 101 {
		t.Errorf("%d heads over 101 activations, want 101", ctx.heads)
	}
}

// l2Setup hand-builds the plan the planner makes of Chord's l2,
//
//	l2 bestLookupDist@N(K, ReqAddr, E, min<D>) :- node@N(NID),
//	    lookup@N(K, ReqAddr, E), finger@N(I, FID, FAddr),
//	    D := K - FID - 1, FID in (NID, K).
//
// over one node row and 160 finger rows, half of them in range of the
// lookup it returns.
func l2Setup(tb testing.TB) (*nullCtx, *Strand, tuple.Tuple) {
	tb.Helper()
	store := table.NewStore()
	node, err := store.Materialize(table.Spec{Name: "node", Lifetime: table.Infinity, MaxSize: 1, Keys: []int{1}})
	if err != nil {
		tb.Fatal(err)
	}
	finger, err := store.Materialize(table.Spec{Name: "finger", Lifetime: table.Infinity, MaxSize: table.Infinity, Keys: []int{2}})
	if err != nil {
		tb.Fatal(err)
	}
	node.Insert(tuple.New("node", tuple.Str("n1"), tuple.ID(0x1000)), 0) //nolint:errcheck
	for i := uint64(0); i < 160; i++ {
		finger.Insert(tuple.New("finger", tuple.Str("n1"), tuple.Int(int64(i)), tuple.ID(i*(math.MaxUint64/160)+0x2000), tuple.Str("f")), 0) //nolint:errcheck
	}
	v := func(name string) overlog.Expr { return &overlog.Var{Name: name} }
	s := strandOf(store, &Plan{
		RuleID:   "l2",
		Trigger:  Trigger{Kind: TriggerEvent, Name: "lookup", FieldSlots: []int{0, 1, 2, 3}, FieldConsts: make([]tuple.Value, 4)},
		NumVars:  9,
		VarNames: []string{"N", "K", "ReqAddr", "E", "NID", "I", "FID", "FAddr", "D"},
		Ops: []Op{
			&JoinOp{Table: "node", Stage: 1, FieldSlots: []int{0, 4}, FieldConsts: make([]tuple.Value, 2), IndexPositions: []int{0}},
			&JoinOp{Table: "finger", Stage: 2, FieldSlots: []int{0, 5, 6, 7}, FieldConsts: make([]tuple.Value, 4), IndexPositions: []int{0}},
			&AssignOp{Slot: 8, Expr: &overlog.Binary{Op: "-", L: &overlog.Binary{Op: "-", L: v("K"), R: v("FID")}, R: &overlog.Lit{Val: tuple.Int(1)}}},
			&CondOp{Expr: &overlog.RangeExpr{X: v("FID"), Lo: v("NID"), Hi: v("K"), LoOpen: true, HiOpen: true}},
		},
		HeadName: "bestLookupDist",
		HeadArgs: []overlog.Expr{v("N"), v("K"), v("ReqAddr"), v("E"), &overlog.Agg{Op: "min", Var: "D"}},
		Agg:      &AggSpec{Op: "min", Slot: 8, ArgIndex: 4},
		Stages:   2,
	})
	return &nullCtx{store: store}, s, tuple.New("lookup", tuple.Str("n1"), tuple.ID(1<<63), tuple.Str("n7"), tuple.ID(42))
}

// TestAggRescanAllocs: a rescan aggregate folds its bindings into a
// recycled state and builds its heads in the context's storage, so a
// warm activation allocates nothing, however many groups it emits.
func TestAggRescanAllocs(t *testing.T) {
	ctx, _, _ := benchSetup(t, false) // tab: 64 rows, A = 0..7, 8 rows each
	for _, tc := range []struct {
		name   string
		s      *Strand
		trig   tuple.Tuple
		groups int
	}{
		{"grouped", clusterStrand(ctx.store), tuple.New("probe", tuple.Str("n1")), 8},
		{"zero-capable", countStrand(ctx.store), row("n1", 0, 0), 1},
	} {
		tc.s.Run(ctx, tc.trig) // warm the state's arrays
		ctx.heads = 0
		if got := testing.AllocsPerRun(100, func() { tc.s.Run(ctx, tc.trig); ctx.reset() }); got != 0 {
			t.Errorf("%s: %v allocs per activation, want 0", tc.name, got)
		}
		if want := 101 * tc.groups; ctx.heads != want {
			t.Errorf("%s: %d heads over 101 activations, want %d", tc.name, ctx.heads, want)
		}
	}
}

// TestAggMaintAllocs: with a warm accumulator over a 1 000-row table, a
// replacement retracts one row and records another, and the trigger
// emits from the accumulator, allocating nothing: the table's copy of the
// new row refills the replaced row's array, and maintCtx builds the head
// in reused storage.
func TestAggMaintAllocs(t *testing.T) {
	for _, op := range []string{"count", "max"} {
		ctx, s, tab, next, buf := replaceSetup(t, op)
		ctx.heads = 0
		got := testing.AllocsPerRun(100, func() {
			row := replaceRow(buf, next)
			next++
			tab.Insert(row, 0) //nolint:errcheck
			s.Run(ctx, row)
			ctx.reset()
		})
		if got != 0 {
			t.Errorf("%s: %v allocs per replace-and-trigger, want 0", op, got)
		}
		if ctx.heads != 101 {
			t.Errorf("%s: %d heads over 101 triggers, want 101", op, ctx.heads)
		}
		if !ctx.am.Valid() {
			t.Errorf("%s: the accumulator was not maintained", op)
		}
	}
}
