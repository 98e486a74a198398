package dataflow

import (
	"testing"

	"p2go/internal/overlog"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

// aggCtx is a fakeCtx that can hand out a persistent accumulator, the
// way the engine does for maintainable strands.
type aggCtx struct {
	fakeCtx
	am          *AggMaint
	incremental bool
}

func (c *aggCtx) AggState(*Strand) *AggMaint {
	if c.incremental {
		return c.am
	}
	return nil
}

// countStrand hand-rolls the compiled form of
//
//	out@N(count<*>) :- tab@N(A, B).
//
// as a delta strand: the trigger binds only the group var N; Ops[0] is
// the rescan join of tab itself.
func countStrand(store *table.Store) *Strand {
	s := strandOf(store, &Plan{
		RuleID:  "agg1",
		Trigger: Trigger{Kind: TriggerDelta, Name: "tab", FieldSlots: []int{0, -1, -1}, FieldConsts: make([]tuple.Value, 3)},
		NumVars: 3, VarNames: []string{"N", "A", "B"},
		Ops: []Op{
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 2}, FieldConsts: make([]tuple.Value, 3)},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Agg{Op: "count"}},
		Agg:      &AggSpec{Op: "count", Slot: -1, ArgIndex: 1, EmitZero: true},
		AggPlan:  &AggPlan{Primary: "tab", Filter: []AggFilterPos{{GroupIdx: 0, Slot: 0}}},
		Stages:   1,
	})
	return s
}

// minStrand: out@N(min<B>) :- tab@N(A, B).
func minStrand() *Strand {
	s := countStrand(nil)
	s.HeadArgs = []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Agg{Op: "min", Var: "B"}}
	s.Agg = &AggSpec{Op: "min", Slot: 2, ArgIndex: 1}
	s.Compile()
	return s
}

func row(n string, a, b int64) tuple.Tuple {
	return tuple.New("tab", tuple.Str(n), tuple.Int(a), tuple.Int(b))
}

// runBoth triggers the strand in rescan then incremental mode and
// demands byte-identical emissions, returning them: each field must
// agree in kind and rendering, not merely compare equal, so an int where
// the rescan emits the float equal to it, or a float off in its last
// bit, is caught.
func runBoth(t *testing.T, ctx *aggCtx, s *Strand, trig tuple.Tuple) []tuple.Tuple {
	t.Helper()
	ctx.heads = nil
	ctx.incremental = false
	s.Run(ctx, trig)
	want := ctx.heads
	ctx.heads = nil
	ctx.incremental = true
	s.Run(ctx, trig)
	got := ctx.heads
	if len(got) != len(want) {
		t.Fatalf("incremental emitted %v, rescan %v", got, want)
	}
	for i := range got {
		if !sameHead(got[i], want[i]) {
			t.Fatalf("emission %d: incremental %v %v, rescan %v %v", i, got[i], kinds(got[i]), want[i], kinds(want[i]))
		}
	}
	return got
}

func kinds(t tuple.Tuple) []tuple.Kind {
	ks := make([]tuple.Kind, len(t.Fields))
	for i, f := range t.Fields {
		ks[i] = f.Kind()
	}
	return ks
}

func sameHead(a, b tuple.Tuple) bool {
	if !a.Equal(b) {
		return false
	}
	for i, f := range a.Fields {
		if f.Kind() != b.Fields[i].Kind() || f.String() != b.Fields[i].String() {
			return false
		}
	}
	return true
}

func newAggCtx(t testing.TB, s *Strand, lifetime float64) (*aggCtx, *table.Table) {
	t.Helper()
	store := table.NewStore()
	tb, err := store.Materialize(table.Spec{Name: "tab", Lifetime: lifetime,
		MaxSize: table.Infinity, Keys: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	bindStore(s, store)
	ctx := &aggCtx{fakeCtx: fakeCtx{store: store}, am: NewAggMaint(s)}
	// The engine's listener wiring, minus billing.
	tb.Subscribe(func(op table.Op, tu tuple.Tuple) { ctx.am.Apply(ctx, op, tu) })
	return ctx, tb
}

func TestAggMaintCountInsertDelete(t *testing.T) {
	s := countStrand(nil)
	ctx, tb := newAggCtx(t, s, table.Infinity)
	trig := row("n1", 0, 0)

	// Empty table: EmitZero path.
	got := runBoth(t, ctx, s, trig)
	if len(got) != 1 || !got[0].Equal(tuple.New("out", tuple.Str("n1"), tuple.Int(0))) {
		t.Fatalf("empty-table emission = %v", got)
	}

	tb.Insert(row("n1", 1, 10), 0) //nolint:errcheck
	tb.Insert(row("n1", 2, 20), 0) //nolint:errcheck
	tb.Insert(row("n2", 3, 30), 0) //nolint:errcheck
	got = runBoth(t, ctx, s, trig)
	// The trigger binds N=n1: only n1's group passes the filter.
	if len(got) != 1 || !got[0].Equal(tuple.New("out", tuple.Str("n1"), tuple.Int(2))) {
		t.Fatalf("count = %v", got)
	}

	// Incremental updates after the rebuild: insert and key-delete.
	tb.Insert(row("n1", 4, 40), 0) //nolint:errcheck
	tb.Delete(row("n1", 1, 10), 0) //nolint:errcheck
	got = runBoth(t, ctx, s, trig)
	if len(got) != 1 || !got[0].Equal(tuple.New("out", tuple.Str("n1"), tuple.Int(2))) {
		t.Fatalf("count after churn = %v", got)
	}

	// Other group via its own trigger binding.
	got = runBoth(t, ctx, s, row("n2", 0, 0))
	if len(got) != 1 || !got[0].Equal(tuple.New("out", tuple.Str("n2"), tuple.Int(1))) {
		t.Fatalf("n2 count = %v", got)
	}
}

func TestAggMaintMinDeletionExact(t *testing.T) {
	s := minStrand()
	ctx, tb := newAggCtx(t, s, table.Infinity)
	trig := row("n1", 0, 0)

	tb.Insert(row("n1", 1, 30), 0) //nolint:errcheck
	tb.Insert(row("n1", 2, 10), 0) //nolint:errcheck
	tb.Insert(row("n1", 3, 20), 0) //nolint:errcheck
	got := runBoth(t, ctx, s, trig)
	if len(got) != 1 || !got[0].Equal(tuple.New("out", tuple.Str("n1"), tuple.Int(10))) {
		t.Fatalf("min = %v", got)
	}

	// Deleting the current minimum must resurface the next one — the
	// case an add-subtract accumulator cannot handle.
	tb.Delete(row("n1", 2, 10), 0) //nolint:errcheck
	got = runBoth(t, ctx, s, trig)
	if len(got) != 1 || !got[0].Equal(tuple.New("out", tuple.Str("n1"), tuple.Int(20))) {
		t.Fatalf("min after extremum deletion = %v", got)
	}

	// Empty group: min emits nothing in either mode.
	tb.Delete(row("n1", 1, 30), 0) //nolint:errcheck
	tb.Delete(row("n1", 3, 20), 0) //nolint:errcheck
	got = runBoth(t, ctx, s, trig)
	if len(got) != 0 {
		t.Fatalf("empty min emission = %v", got)
	}
}

func TestAggMaintTTLExpiry(t *testing.T) {
	s := countStrand(nil)
	ctx, tb := newAggCtx(t, s, 10) // 10s lifetime
	trig := row("n1", 0, 0)

	tb.Insert(row("n1", 1, 10), 0) //nolint:errcheck
	tb.Insert(row("n1", 2, 20), 5) //nolint:errcheck
	got := runBoth(t, ctx, s, trig)
	if len(got) != 1 || !got[0].Equal(tuple.New("out", tuple.Str("n1"), tuple.Int(2))) {
		t.Fatalf("count = %v", got)
	}

	// At t=12 the first row has expired; runTrigger's Expire call must
	// stream the expiry through the listener into the accumulator.
	ctx.now = 12
	got = runBoth(t, ctx, s, trig)
	if len(got) != 1 || !got[0].Equal(tuple.New("out", tuple.Str("n1"), tuple.Int(1))) {
		t.Fatalf("count after expiry = %v", got)
	}

	// All rows gone: count 0 via EmitZero.
	ctx.now = 20
	got = runBoth(t, ctx, s, trig)
	if len(got) != 1 || !got[0].Equal(tuple.New("out", tuple.Str("n1"), tuple.Int(0))) {
		t.Fatalf("count after full expiry = %v", got)
	}
}

func TestAggMaintClearInvalidates(t *testing.T) {
	s := countStrand(nil)
	ctx, tb := newAggCtx(t, s, table.Infinity)
	trig := row("n1", 0, 0)

	tb.Insert(row("n1", 1, 10), 0) //nolint:errcheck
	runBoth(t, ctx, s, trig)
	if !ctx.am.Valid() {
		t.Fatal("accumulator must be valid after a trigger")
	}
	tb.Clear()
	if ctx.am.Valid() {
		t.Fatal("bulk clear must invalidate the accumulator")
	}
	tb.Insert(row("n1", 5, 50), 0) //nolint:errcheck
	got := runBoth(t, ctx, s, trig)
	if len(got) != 1 || !got[0].Equal(tuple.New("out", tuple.Str("n1"), tuple.Int(1))) {
		t.Fatalf("count after clear+rebuild = %v", got)
	}
}

// nullCtx is an allocation-free Context for the activation benchmarks.
type nullCtx struct {
	headScratch
	frames
	store *table.Store
	heads int
}

func (c *nullCtx) Now() float64                        { return 0 }
func (c *nullCtx) Env() overlog.Context                { return c }
func (c *nullCtx) Rand64() uint64                      { return 4 }
func (c *nullCtx) LocalAddr() string                   { return "n1" }
func (c *nullCtx) Bill(float64)                        {}
func (c *nullCtx) AggState(*Strand) *AggMaint          { return nil }
func (c *nullCtx) EmitHead(*Strand, tuple.Tuple, bool) { c.heads++ }
func (c *nullCtx) TraceInput(*Strand, tuple.Tuple)     {}
func (c *nullCtx) Passed(int, int)                     {}
func (c *nullCtx) TraceWitness(*Strand, int)           {}
func (c *nullCtx) TracePrecond(*Strand, int, tuple.Tuple) {
}
func (c *nullCtx) RuleError(ruleID string, err error) {
	panic(err)
}

func benchSetup(b testing.TB, indexed bool) (*nullCtx, *Strand, tuple.Tuple) {
	b.Helper()
	store := table.NewStore()
	tb, err := store.Materialize(table.Spec{Name: "tab", Lifetime: table.Infinity,
		MaxSize: table.Infinity, Keys: []int{1, 2, 3}})
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		tb.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(i%8), tuple.Int(i)), 0) //nolint:errcheck
	}
	s := joinStrand(store)
	s.Ops[1] = &CondOp{Expr: &overlog.Binary{Op: "<", L: &overlog.Var{Name: "B"}, R: &overlog.Lit{Val: tuple.Int(0)}}}
	op := s.Ops[0].(*JoinOp)
	if indexed {
		op.IndexPositions = []int{0, 1}
		tb.EnsureIndex(op.IndexPositions)
	}
	s.Compile()
	return &nullCtx{store: store}, s, tuple.New("ev", tuple.Str("n1"), tuple.Int(3))
}

// The activation path itself must not allocate: the binding frame, the
// index-probe key and the scan's saved slots are frames the context
// lends (nullCtx carves them from a buffer reset between activations).
func TestStrandActivationAllocs(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		ctx, s, trig := benchSetup(t, indexed)
		s.Run(ctx, trig) // warm up the frame buffer
		allocs := testing.AllocsPerRun(100, func() { s.Run(ctx, trig); ctx.reset() })
		if allocs != 0 {
			t.Errorf("indexed=%v: %v allocs per activation, want 0", indexed, allocs)
		}
	}
}

func BenchmarkStrandActivationScan(b *testing.B) {
	ctx, s, trig := benchSetup(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(ctx, trig)
		ctx.reset()
	}
}

func BenchmarkStrandActivationIndexed(b *testing.B) {
	ctx, s, trig := benchSetup(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(ctx, trig)
		ctx.reset()
	}
}

// clusterStrand: cluster@N(A, count<*>) :- probe@N(), tab@N(A, B), a
// rescan aggregate (no AggPlan) with one group per distinct A.
func clusterStrand(store *table.Store) *Strand {
	return strandOf(store, &Plan{
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
}

// nestingCtx re-activates the strand from inside its first head
// emission, the way a table-listener cascade re-enters a strand.
type nestingCtx struct {
	nullCtx
	trig   tuple.Tuple
	nested bool
	heads  []tuple.Tuple
}

func (c *nestingCtx) EmitHead(s *Strand, t tuple.Tuple, _ bool) {
	c.heads = append(c.heads, kept(t))
	if !c.nested {
		c.nested = true
		s.Run(c, c.trig)
	}
}

// TestAggRescanNested: an activation nested inside another of the same
// strand takes an aggregation state of its own, so both group correctly
// and the outer one resumes undisturbed.
func TestAggRescanNested(t *testing.T) {
	ctx, _, _ := benchSetup(t, false) // tab: 64 rows, A = 0..7, 8 rows each
	trig := tuple.New("probe", tuple.Str("n1"))
	s := clusterStrand(ctx.store)
	flat := &nestingCtx{nullCtx: nullCtx{store: ctx.store}, nested: true}
	s.Run(flat, trig)
	if len(flat.heads) != 8 || !flat.heads[3].Equal(tuple.New("cluster", tuple.Str("n1"), tuple.Int(3), tuple.Int(8))) {
		t.Fatalf("flat activation emitted %v", flat.heads)
	}
	nest := &nestingCtx{nullCtx: nullCtx{store: ctx.store}, trig: trig}
	s.Run(nest, trig)
	// Outer group 0, the whole inner activation, then the outer's rest.
	want := append(append([]tuple.Tuple{flat.heads[0]}, flat.heads...), flat.heads[1:]...)
	if len(nest.heads) != len(want) {
		t.Fatalf("nested run emitted %d heads, want %d: %v", len(nest.heads), len(want), nest.heads)
	}
	for i := range want {
		if !nest.heads[i].Equal(want[i]) {
			t.Errorf("nested run, head %d = %v, want %v", i, nest.heads[i], want[i])
		}
	}
}

// groupedStrand hand-rolls the planner's compiled form of
//
//	out@N(G, op<V>) :- tab@N(K, G, V).
//
// as a delta strand: the trigger binds the group variables N and G, and
// Ops[0] is the rescan join of tab itself, probing an index on them.
func groupedStrand(store *table.Store, op string) *Strand {
	slot := 3
	if op == "count" {
		slot = -1
	}
	return strandOf(store, &Plan{
		RuleID:  "g1",
		Trigger: Trigger{Kind: TriggerDelta, Name: "tab", FieldSlots: []int{0, -1, 1, -1}, FieldConsts: make([]tuple.Value, 4)},
		NumVars: 4, VarNames: []string{"N", "G", "K", "V"},
		Ops: []Op{
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 2, 1, 3}, FieldConsts: make([]tuple.Value, 4), IndexPositions: []int{0, 2}},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{ref("N"), ref("G"), &overlog.Agg{Op: op, Var: "V"}},
		Agg:      &AggSpec{Op: op, Slot: slot, ArgIndex: 2, EmitZero: op == "count"},
		AggPlan:  &AggPlan{Primary: "tab", Filter: []AggFilterPos{{GroupIdx: 0, Slot: 0}, {GroupIdx: 1, Slot: 1}}},
		Stages:   1,
	})
}

// aggMaintRows is the primary table's size: four groups of 100 rows.
const aggMaintRows = 400

// aggMaintRow is the i-th primary insert: key i mod 400 replaces that
// key's row, so the table stays at 400 rows and every insert after the
// first 400 also retracts one.
func aggMaintRow(i int) tuple.Tuple {
	k := int64(i % aggMaintRows)
	return tuple.New("tab", tuple.Str("n1"), tuple.Int(k), tuple.Int(k%4), tuple.Int(int64(i*7919%1000)))
}

// BenchmarkAggMaint is one primary insert plus one trigger of a grouped
// aggregate over a 400-row table, for each maintainable op: through
// aggCtx, which maintains the accumulator from the table's listener and
// emits from it, and through nullCtx, which rescans the trigger's group.
// For count and max, replace1000 is the same through maintCtx, ungrouped,
// with every insert replacing one of 1 000 rows.
func BenchmarkAggMaint(b *testing.B) {
	for _, op := range []string{"count", "sum", "min", "max"} {
		b.Run(op+"/incremental", func(b *testing.B) {
			s := groupedStrand(nil, op)
			ctx, tb := newAggCtx(b, s, table.Infinity)
			ctx.incremental = true
			benchAggMaint(b, s, ctx, tb, func() { ctx.heads = ctx.heads[:0]; ctx.reset() })
			if !ctx.am.Valid() {
				b.Fatal("the accumulator was not maintained")
			}
		})
		if op == "count" || op == "max" {
			b.Run(op+"/replace1000", func(b *testing.B) {
				ctx, s, tab, next, buf := replaceSetup(b, op)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					row := replaceRow(buf, next+i)
					tab.Insert(row, 0) //nolint:errcheck
					s.Run(ctx, row)
					ctx.reset()
				}
			})
		}
		b.Run(op+"/rescan", func(b *testing.B) {
			store := table.NewStore()
			tb, err := store.Materialize(table.Spec{Name: "tab", Lifetime: table.Infinity,
				MaxSize: table.Infinity, Keys: []int{1, 2}})
			if err != nil {
				b.Fatal(err)
			}
			s := groupedStrand(store, op)
			ctx := &nullCtx{store: store}
			benchAggMaint(b, s, ctx, tb, ctx.reset)
		})
	}
}

// replaceRows is the replace1000 table's size, and replaceRow(buf, i)
// its i-th insert, built in buf: key i mod 1000 with value i, so every
// insert after the first 1 000 replaces a row and the maximum is always
// the newest — the shape of a collector's latest-report-per-host table.
// The table copies what it keeps, so one buffer serves every insert.
const replaceRows = 1000

func replaceRow(buf []tuple.Value, i int) tuple.Tuple {
	buf[0], buf[1], buf[2] = tuple.Str("n1"), tuple.Int(int64(i%replaceRows)), tuple.Int(int64(i))
	return tuple.Tuple{Name: "tab", Fields: buf}
}

// replaceStrand: out@N(op<S>) :- tab@N(H, S), one group per node.
func replaceStrand(store *table.Store, op string) *Strand {
	slot := 2
	if op == "count" {
		slot = -1
	}
	return strandOf(store, &Plan{
		RuleID:   "r1",
		Trigger:  Trigger{Kind: TriggerDelta, Name: "tab", FieldSlots: []int{0, -1, -1}, FieldConsts: make([]tuple.Value, 3)},
		NumVars:  3,
		VarNames: []string{"N", "H", "S"},
		Ops: []Op{
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 2}, FieldConsts: make([]tuple.Value, 3)},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{ref("N"), &overlog.Agg{Op: op, Var: "S"}},
		Agg:      &AggSpec{Op: op, Slot: slot, ArgIndex: 1, EmitZero: op == "count"},
		AggPlan:  &AggPlan{Primary: "tab", Filter: []AggFilterPos{{GroupIdx: 0, Slot: 0}}},
		Stages:   1,
	})
}

// maintCtx is nullCtx with an accumulator: allocation-free, so what a
// replace-and-trigger allocates is the table's and the accumulator's.
type maintCtx struct {
	nullCtx
	am *AggMaint
}

func (c *maintCtx) AggState(*Strand) *AggMaint { return c.am }

// replaceSetup fills the replace1000 table and wires a maintained strand
// to it, warm: the first trigger has rebuilt the accumulator and one
// round of replacements has grown its arrays.
func replaceSetup(tb testing.TB, op string) (ctx *maintCtx, s *Strand, tab *table.Table, next int, buf []tuple.Value) {
	tb.Helper()
	store := table.NewStore()
	tab, err := store.Materialize(table.Spec{Name: "tab", Lifetime: table.Infinity, MaxSize: table.Infinity, Keys: []int{1, 2}})
	if err != nil {
		tb.Fatal(err)
	}
	s = replaceStrand(store, op)
	ctx = &maintCtx{nullCtx: nullCtx{store: store}, am: NewAggMaint(s)}
	tab.Subscribe(func(op table.Op, tu tuple.Tuple) { ctx.am.Apply(ctx, op, tu) })
	buf = make([]tuple.Value, 3)
	for ; next < replaceRows; next++ {
		tab.Insert(replaceRow(buf, next), 0) //nolint:errcheck
	}
	s.Run(ctx, replaceRow(buf, 0))
	for ; next < 2*replaceRows; next++ {
		row := replaceRow(buf, next)
		tab.Insert(row, 0) //nolint:errcheck
		s.Run(ctx, row)
		ctx.reset()
	}
	if !ctx.am.Valid() {
		tb.Fatal("the accumulator was not maintained")
	}
	return ctx, s, tab, next, buf
}

func benchAggMaint(b *testing.B, s *Strand, ctx Context, tb *table.Table, reset func()) {
	tb.EnsureIndex([]int{0, 2})
	for i := 0; i < aggMaintRows; i++ {
		tb.Insert(aggMaintRow(i), 0) //nolint:errcheck
	}
	s.Run(ctx, aggMaintRow(0)) // an accumulator's first trigger rebuilds it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := aggMaintRow(aggMaintRows + i)
		tb.Insert(row, 0) //nolint:errcheck
		s.Run(ctx, row)
		reset()
	}
}
