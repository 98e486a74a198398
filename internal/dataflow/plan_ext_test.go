package dataflow_test

// These tests and BenchmarkStrandAggRescan build their strand with the
// planner and drive it only through the Plan/Strand API, so the
// benchmark runs unchanged on commits from before compiled expressions.

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"p2go/internal/dataflow"
	"p2go/internal/overlog"
	"p2go/internal/planner"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

// l2Rule is Chord's l2: an event-triggered min over a join with the
// finger table, whose range condition and distance assignment run once
// per finger row of every lookup.
const l2Rule = `l2 bestLookupDist@N(K, ReqAddr, E, min<D>) :- node@N(NID), lookup@N(K, ReqAddr, E), finger@N(I, FID, FAddr), D := K - FID - 1, FID in (NID, K).`

// l2Fingers is the finger table's size: half the rows are in range.
const l2Fingers = 160

// planL2 plans l2 and numbers its relations, as an install does.
func planL2(tb testing.TB) *dataflow.Plan {
	tb.Helper()
	prog, err := overlog.Parse(l2Rule)
	if err != nil {
		tb.Fatal(err)
	}
	env := planner.EnvFunc(func(name string) bool { return name == "node" || name == "finger" })
	plans, err := planner.CompileRule(prog.Rules()[0], env, func() string { return "r" })
	if err != nil || len(plans) != 1 {
		tb.Fatalf("planning l2: %d plans, %v", len(plans), err)
	}
	l2Names = dataflow.Number(plans)
	return plans[0]
}

// l2Names is l2's relations by number.
var l2Names []string

// on instantiates p on c's tables.
func (c *l2Ctx) on(p *dataflow.Plan) *dataflow.Strand {
	return p.Instantiate(&dataflow.StoreQuery{Store: c.store, Names: l2Names})
}

// l2Ctx is one node running l2: its node and finger tables, and an
// EmitHead that keeps the last head's distance and nothing else.
type l2Ctx struct {
	store   *table.Store
	scratch []tuple.Value
	frames  []tuple.Value
	aggs    dataflow.AggScratch
	heads   int
	dist    tuple.Value
}

func newL2Ctx(tb testing.TB) *l2Ctx {
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
	for i := uint64(0); i < l2Fingers; i++ {
		fid := i*(math.MaxUint64/l2Fingers) + 0x2000
		finger.Insert(tuple.New("finger", tuple.Str("n1"), tuple.Int(int64(i)), tuple.ID(fid), tuple.Str("f")), 0) //nolint:errcheck
	}
	return &l2Ctx{store: store}
}

// l2Lookup asks for key 1<<63, which half the fingers precede.
var l2Lookup = tuple.New("lookup", tuple.Str("n1"), tuple.ID(1<<63), tuple.Str("n7"), tuple.ID(42))

func (c *l2Ctx) Now() float64                                 { return 0 }
func (c *l2Ctx) Env() overlog.Context                         { return c }
func (c *l2Ctx) Rand64() uint64                               { return 4 }
func (c *l2Ctx) LocalAddr() string                            { return "n1" }
func (c *l2Ctx) Bill(float64)                                 {}
func (c *l2Ctx) AggState(*dataflow.Strand) *dataflow.AggMaint { return nil }
func (c *l2Ctx) TraceInput(*dataflow.Strand, tuple.Tuple)     {}
func (c *l2Ctx) Passed(int, int)                              {}
func (c *l2Ctx) TraceWitness(*dataflow.Strand, int)           {}
func (c *l2Ctx) TracePrecond(*dataflow.Strand, int, tuple.Tuple) {
}
func (c *l2Ctx) RuleError(ruleID string, err error) { panic(err) }
func (c *l2Ctx) HeadFields(n int) []tuple.Value {
	c.scratch = append(c.scratch[:0], make([]tuple.Value, n)...)
	return c.scratch
}

func (c *l2Ctx) AggScratch() *dataflow.AggScratch { return &c.aggs }

// Frame carves each frame fresh from c.frames until reset (a full buffer
// is left to its frames and one twice its size takes over).
func (c *l2Ctx) Frame(n int) []tuple.Value {
	if cap(c.frames)-len(c.frames) < n {
		c.frames = make([]tuple.Value, 0, max(2*cap(c.frames), n, 64))
	}
	i := len(c.frames)
	c.frames = c.frames[:i+n]
	return c.frames[i : i+n : i+n]
}

// reset ends every frame's loan, as the end of a node's task does.
func (c *l2Ctx) reset() {
	clear(c.frames)
	c.frames = c.frames[:0]
}

func (c *l2Ctx) EmitHead(_ *dataflow.Strand, t tuple.Tuple, _ bool) {
	c.heads++
	c.dist = t.Fields[len(t.Fields)-1]
}

// l2Want is the distance l2 emits for l2Lookup: K - FID - 1 from the
// last finger before K.
func l2Want() tuple.Value {
	last := uint64(l2Fingers/2-1)*(math.MaxUint64/l2Fingers) + 0x2000
	return tuple.ID(1<<63 - last - 1)
}

// BenchmarkStrandAggRescan is one l2 activation: join 160 finger rows,
// evaluate the range and the distance on each, fold the minimum.
func BenchmarkStrandAggRescan(b *testing.B) {
	ctx := newL2Ctx(b)
	s := ctx.on(planL2(b))
	s.Run(ctx, l2Lookup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(ctx, l2Lookup)
		ctx.reset()
	}
	b.StopTimer()
	if !ctx.dist.Equal(l2Want()) {
		b.Fatalf("l2 emitted %v, want %v", ctx.dist, l2Want())
	}
}

// TestInstantiateSharesPlan: a strand is one allocation over its plan, so
// a thousand nodes share one set of compiled evaluators; the strand has
// no function value of its own to hold a per-node evaluator in.
func TestInstantiateSharesPlan(t *testing.T) {
	p, ctx := planL2(t), newL2Ctx(t)
	q := &dataflow.StoreQuery{Store: ctx.store, Names: l2Names}
	strands := make([]*dataflow.Strand, 0, 1001)
	if got := testing.AllocsPerRun(1000, func() { strands = append(strands, p.Instantiate(q)) }); got != 1 {
		t.Errorf("Instantiate allocates %v objects, want 1 (the Strand)", got)
	}
	for _, s := range strands {
		if s.Plan != p {
			t.Fatal("a strand holds a plan of its own")
		}
	}
	st := reflect.TypeOf(dataflow.Strand{})
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); f.Type.Kind() == reflect.Func {
			t.Errorf("Strand.%s is per-node evaluator state", f.Name)
		}
	}
	strands[0].Run(ctx, l2Lookup)
	if ctx.heads != 1 || !ctx.dist.Equal(l2Want()) {
		t.Errorf("l2 emitted %d heads, distance %v, want 1 and %v", ctx.heads, ctx.dist, l2Want())
	}
}

// TestPlanConcurrentStrands: eight goroutines, each a node with its own
// tables and strand, run one freshly planned Plan at once. Under -race
// any write to the plan's evaluators is a reported race.
func TestPlanConcurrentStrands(t *testing.T) {
	p := planL2(t)
	var wg sync.WaitGroup
	ctxs := make([]*l2Ctx, 8)
	for g := range ctxs {
		ctxs[g] = newL2Ctx(t)
		wg.Add(1)
		go func(ctx *l2Ctx) {
			defer wg.Done()
			s := ctx.on(p)
			for i := 0; i < 50; i++ {
				s.Run(ctx, l2Lookup)
			}
		}(ctxs[g])
	}
	wg.Wait()
	for g, ctx := range ctxs {
		if ctx.heads != 50 || !ctx.dist.Equal(l2Want()) {
			t.Errorf("node %d: %d heads, distance %v, want 50 and %v", g, ctx.heads, ctx.dist, l2Want())
		}
	}
}
