package dataflow

import (
	"fmt"
	"strings"
	"testing"

	"p2go/internal/overlog"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

// headScratch is the fakes' head storage: one buffer every head is built
// in, overwritten by the next — a shorter loan than the engine's
// task-long one, so a strand that kept a head past EmitHead would show.
type headScratch []tuple.Value

func (h *headScratch) HeadFields(n int) []tuple.Value {
	if cap(*h) < n {
		*h = make([]tuple.Value, n)
	}
	*h = (*h)[:n]
	clear(*h)
	return *h
}

// frames is the fakes' frame storage, the engine's task arena in
// miniature: each frame is carved fresh from one buffer, so no frame
// aliases another or a head, and reset ends every loan at once, as the
// end of a task does. A full buffer is left to the frames carved from it
// and one twice its size takes over, so a test that resets between
// activations is warm after a couple of them. Aggregation states come
// from a keep beside the buffer, as the arena holds one.
type frames struct {
	buf  []tuple.Value
	aggs AggScratch
}

func (f *frames) AggScratch() *AggScratch { return &f.aggs }

func (f *frames) Frame(n int) []tuple.Value {
	if cap(f.buf)-len(f.buf) < n {
		f.buf = make([]tuple.Value, 0, max(2*cap(f.buf), n, 64))
	}
	i := len(f.buf)
	f.buf = f.buf[:i+n]
	return f.buf[i : i+n : i+n]
}

// reset hands every frame back; the next ones are zeroed again.
func (f *frames) reset() {
	clear(f.buf)
	f.buf = f.buf[:0]
}

// kept is what an EmitHead that keeps its tuple stores.
func kept(t tuple.Tuple) tuple.Tuple {
	t.Fields = append([]tuple.Value(nil), t.Fields...)
	return t
}

// fakeCtx is a minimal Context for exercising strands directly.
type fakeCtx struct {
	headScratch
	frames
	store  *table.Store
	heads  []tuple.Tuple
	dels   []tuple.Tuple
	errs   []error
	inputs []tuple.Tuple
	pres   []tuple.Tuple
	now    float64
}

func (c *fakeCtx) Now() float64               { return c.now }
func (c *fakeCtx) Env() overlog.Context       { return c }
func (c *fakeCtx) Rand64() uint64             { return 4 }
func (c *fakeCtx) LocalAddr() string          { return "n1" }
func (c *fakeCtx) Bill(float64)               {}
func (c *fakeCtx) AggState(*Strand) *AggMaint { return nil }
func (c *fakeCtx) EmitHead(s *Strand, t tuple.Tuple, isDelete bool) {
	if isDelete {
		c.dels = append(c.dels, kept(t))
	} else {
		c.heads = append(c.heads, kept(t))
	}
}
func (c *fakeCtx) TraceInput(s *Strand, t tuple.Tuple)              { c.inputs = append(c.inputs, t) }
func (c *fakeCtx) Passed(int, int)                                  {}
func (c *fakeCtx) TraceWitness(*Strand, int)                        {}
func (c *fakeCtx) TracePrecond(s *Strand, stage int, t tuple.Tuple) { c.pres = append(c.pres, t) }
func (c *fakeCtx) RuleError(ruleID string, err error)               { c.errs = append(c.errs, err) }

// strandOf finishes a hand-built plan the way the planner and the engine
// do, numbering its relations, and instantiates it on store; a nil store
// is bound later (bindStore).
func strandOf(store *table.Store, p *Plan) *Strand {
	p.Compile()
	return p.Instantiate(&StoreQuery{store, Number([]*Plan{p})})
}

// bindStore makes store the one s's joins read.
func bindStore(s *Strand, store *table.Store) { s.Query.(*StoreQuery).Store = store }

// joinStrand is a single-strand rule with a hand-rolled pipeline.
func joinStrand(store *table.Store) *Strand {
	// out@N(A, B) :- ev@N(A), tab@N(A, B), B != 0.
	return strandOf(store, &Plan{
		RuleID:  "r1",
		Trigger: Trigger{Kind: TriggerEvent, Name: "ev", FieldSlots: []int{0, 1}, FieldConsts: make([]tuple.Value, 2)},
		NumVars: 3, VarNames: []string{"N", "A", "B"},
		Ops: []Op{
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 2}, FieldConsts: make([]tuple.Value, 3)},
			&CondOp{Expr: &overlog.Binary{Op: "!=", L: &overlog.Var{Name: "B"}, R: &overlog.Lit{Val: tuple.Int(0)}}},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Var{Name: "A"}, &overlog.Var{Name: "B"}},
		Stages:   1,
	})
}

func newFakeCtx(t *testing.T) *fakeCtx {
	t.Helper()
	store := table.NewStore()
	_, err := store.Materialize(table.Spec{Name: "tab", Lifetime: table.Infinity,
		MaxSize: table.Infinity, Keys: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return &fakeCtx{store: store}
}

// TestRunUncompiledPlanPanics: a plan that skipped Plan.Compile has no
// evaluators, and running it is a bug that names the rule.
func TestRunUncompiledPlanPanics(t *testing.T) {
	s := (&Plan{RuleID: "raw", NumVars: 1, VarNames: []string{"N"}}).Instantiate(nil)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "rule raw") {
			t.Errorf("recovered %v, want a panic naming rule raw", r)
		}
	}()
	s.Run(newFakeCtx(t), tuple.New("ev", tuple.Str("n1")))
}

func TestStrandJoinAndSelect(t *testing.T) {
	ctx := newFakeCtx(t)
	tab := ctx.store.Get("tab")
	tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(1), tuple.Int(10)), 0) //nolint:errcheck
	tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(1), tuple.Int(0)), 0)  //nolint:errcheck
	tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(2), tuple.Int(99)), 0) //nolint:errcheck

	s := joinStrand(ctx.store)
	s.Run(ctx, tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
	// A=1 matches rows (1,10) and (1,0); the selection drops B==0.
	if len(ctx.heads) != 1 {
		t.Fatalf("heads = %v", ctx.heads)
	}
	if !ctx.heads[0].Equal(tuple.New("out", tuple.Str("n1"), tuple.Int(1), tuple.Int(10))) {
		t.Errorf("head = %v", ctx.heads[0])
	}
	// Taps: one input, two preconditions (both A=1 rows probed).
	if len(ctx.inputs) != 1 || len(ctx.pres) != 2 {
		t.Errorf("taps: inputs=%d pres=%d", len(ctx.inputs), len(ctx.pres))
	}
	if len(ctx.errs) != 0 {
		t.Errorf("errors: %v", ctx.errs)
	}
}

func TestStrandTriggerConstMismatch(t *testing.T) {
	ctx := newFakeCtx(t)
	s := joinStrand(ctx.store)
	s.Trigger.FieldConsts[1] = tuple.Int(7)
	s.Run(ctx, tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
	if len(ctx.heads) != 0 || len(ctx.inputs) != 0 {
		t.Error("mismatched trigger constant must not activate the strand")
	}
}

func TestStrandSelfUnification(t *testing.T) {
	// Repeated variable within one predicate: tab@N(A, A).
	ctx := newFakeCtx(t)
	tab := ctx.store.Get("tab")
	tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(5), tuple.Int(5)), 0) //nolint:errcheck
	tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(5), tuple.Int(6)), 0) //nolint:errcheck
	s := strandOf(ctx.store, &Plan{
		RuleID:  "r2",
		Trigger: Trigger{Kind: TriggerEvent, Name: "ev", FieldSlots: []int{0}, FieldConsts: make([]tuple.Value, 1)},
		NumVars: 2, VarNames: []string{"N", "A"},
		Ops: []Op{
			// Both non-loc fields map to slot A: row must self-unify.
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 1}, FieldConsts: make([]tuple.Value, 3)},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Var{Name: "A"}},
		Stages:   1,
	})
	s.Run(ctx, tuple.New("ev", tuple.Str("n1")))
	if len(ctx.heads) != 1 || !ctx.heads[0].Field(1).Equal(tuple.Int(5)) {
		t.Errorf("heads = %v, want single (5) match", ctx.heads)
	}
}

func TestStrandBacktrackUnbinds(t *testing.T) {
	// Two rows bind B differently; both must flow through (binding
	// undone between rows).
	ctx := newFakeCtx(t)
	tab := ctx.store.Get("tab")
	tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(1), tuple.Int(10)), 0) //nolint:errcheck
	tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(1), tuple.Int(20)), 0) //nolint:errcheck
	s := joinStrand(ctx.store)
	s.Run(ctx, tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
	if len(ctx.heads) != 2 {
		t.Fatalf("heads = %v, want both rows", ctx.heads)
	}
}

func TestStrandMissingTableReportsError(t *testing.T) {
	ctx := newFakeCtx(t)
	s := joinStrand(ctx.store)
	ctx.store.Drop("tab")
	s.Run(ctx, tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
	if len(ctx.errs) != 1 {
		t.Errorf("errors = %v", ctx.errs)
	}
}

func TestStrandArityMismatchIgnored(t *testing.T) {
	ctx := newFakeCtx(t)
	s := joinStrand(ctx.store)
	// Trigger with wrong arity must not bind or crash.
	s.Run(ctx, tuple.New("ev", tuple.Str("n1")))
	if len(ctx.heads) != 0 {
		t.Errorf("heads = %v", ctx.heads)
	}
}

func TestDeleteHeadWildcard(t *testing.T) {
	ctx := newFakeCtx(t)
	s := strandOf(ctx.store, &Plan{
		RuleID:   "d1",
		Trigger:  Trigger{Kind: TriggerEvent, Name: "drop", FieldSlots: []int{0, 1}, FieldConsts: make([]tuple.Value, 2)},
		NumVars:  3,
		VarNames: []string{"N", "K", "V"},
		HeadName: "tab",
		HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Var{Name: "K"}, &overlog.Var{Name: "V"}},
		IsDelete: true,
	})
	s.Run(ctx, tuple.New("drop", tuple.Str("n1"), tuple.Int(3)))
	if len(ctx.dels) != 1 {
		t.Fatalf("dels = %v", ctx.dels)
	}
	if !ctx.dels[0].Field(2).IsNil() {
		t.Errorf("unbound V must become a wildcard, got %v", ctx.dels[0])
	}
}

func TestAggregateGrouping(t *testing.T) {
	// cluster@N(A, count<*>) :- probe@N(), tab@N(A, B).
	ctx := newFakeCtx(t)
	tab := ctx.store.Get("tab")
	for i, a := range []int64{1, 1, 2} {
		tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(a), tuple.Int(int64(i))), 0) //nolint:errcheck
	}
	s := strandOf(ctx.store, &Plan{
		RuleID:  "a1",
		Trigger: Trigger{Kind: TriggerEvent, Name: "probe", FieldSlots: []int{0}, FieldConsts: make([]tuple.Value, 1)},
		NumVars: 3, VarNames: []string{"N", "A", "B"},
		Ops: []Op{
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 2}, FieldConsts: make([]tuple.Value, 3)},
		},
		HeadName: "cluster",
		HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Var{Name: "A"}, &overlog.Agg{Op: "count"}},
		Agg:      &AggSpec{Op: "count", Slot: -1, ArgIndex: 2},
		Stages:   1,
	})
	s.Run(ctx, tuple.New("probe", tuple.Str("n1")))
	counts := map[int64]int64{}
	for _, h := range ctx.heads {
		counts[h.Field(1).AsInt()] = h.Field(2).AsInt()
	}
	if counts[1] != 2 || counts[2] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestAggregateSumAvg(t *testing.T) {
	ctx := newFakeCtx(t)
	tab := ctx.store.Get("tab")
	for i, v := range []int64{2, 4, 6} {
		tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(int64(i)), tuple.Int(v)), 0) //nolint:errcheck
	}
	mk := func(op string) *Strand {
		return strandOf(ctx.store, &Plan{
			RuleID:  op,
			Trigger: Trigger{Kind: TriggerEvent, Name: "probe", FieldSlots: []int{0}, FieldConsts: make([]tuple.Value, 1)},
			NumVars: 3, VarNames: []string{"N", "K", "V"},
			Ops: []Op{
				&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 2}, FieldConsts: make([]tuple.Value, 3)},
			},
			HeadName: "out",
			HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Agg{Op: op, Var: "V"}},
			Agg:      &AggSpec{Op: op, Slot: 2, ArgIndex: 1},
			Stages:   1,
		})
	}
	for op, want := range map[string]float64{"sum": 12, "avg": 4} {
		ctx.heads = nil
		mk(op).Run(ctx, tuple.New("probe", tuple.Str("n1")))
		if len(ctx.heads) != 1 || ctx.heads[0].Field(1).AsFloat() != want {
			t.Errorf("%s heads = %v, want %v", op, ctx.heads, want)
		}
	}
}

// TestAggScratchKeepsOneClearedState: the keep holds one idle state, with
// nothing left in it of the activation that used it (its strings would
// stay pinned for as long as the keep's owner lives), and a state that
// finds the slot taken is left to the collector.
func TestAggScratchKeepsOneClearedState(t *testing.T) {
	var l AggScratch
	a, b := l.take(), l.take()
	if a == b {
		t.Fatal("two takes from an empty keep returned one state")
	}
	s := tuple.Str("pinned")
	a.index = map[uint64]int{1: 0}
	a.groups = append(a.groups, aggGroup{count: 1, minV: s, maxV: s})
	a.vals = append(a.vals, s, s)
	a.evalBuf = append(a.evalBuf, s)
	a.zeroGroup = append(a.zeroGroup, s)
	l.put(a)
	l.put(b)
	if l.idle != a {
		t.Fatalf("the keep holds %p, want the first state put back (%p)", l.idle, a)
	}
	if len(a.index) != 0 || len(a.groups) != 0 || len(a.vals) != 0 || len(a.evalBuf) != 0 || len(a.zeroGroup) != 0 {
		t.Errorf("a kept state is not empty: %d keys, %d groups, %d values, %d eval, %d zero",
			len(a.index), len(a.groups), len(a.vals), len(a.evalBuf), len(a.zeroGroup))
	}
	for _, g := range a.groups[:cap(a.groups)] {
		if g.count != 0 || g.sum != 0 || !g.minV.IsNil() || !g.maxV.IsNil() {
			t.Errorf("a kept state's group array still holds %+v", g)
		}
	}
	for name, vs := range map[string][]tuple.Value{"vals": a.vals, "evalBuf": a.evalBuf, "zeroGroup": a.zeroGroup} {
		for _, v := range vs[:cap(vs)] {
			if !v.IsNil() {
				t.Errorf("a kept state's %s still holds %v", name, v)
			}
		}
	}
	if l.take() != a || l.idle != nil {
		t.Error("take did not hand out the kept state and empty the slot")
	}
}
