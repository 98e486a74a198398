package dataflow_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"p2go/internal/dataflow"
	"p2go/internal/overlog"
	"p2go/internal/planner"
	"p2go/internal/table"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// diffCtx runs strands for TestRowFilterMatchesPipeline and keeps what
// they show: the billed seconds summed in billing order, as the engine's
// clock and bills sum them, a log of heads and rule errors, and the rows
// TracePassed was told of. With a tracer it taps and bills as a traced
// engine node does, and the tracer's ruleExec table holds what the
// activations recorded.
type diffCtx struct {
	store  *table.Store
	tracer *trace.Tracer // nil: untraced
	busy   float64
	bills  int
	passed int
	ids    uint64 // the last tuple ID issued
	log    []string
}

func (c *diffCtx) Now() float64                                 { return c.busy }
func (c *diffCtx) Rand64() uint64                               { return 4 }
func (c *diffCtx) LocalAddr() string                            { return "n1" }
func (c *diffCtx) Table(name string) *table.Table               { return c.store.Get(name) }
func (c *diffCtx) Bill(sec float64)                             { c.busy += sec; c.bills++ }
func (c *diffCtx) AggState(*dataflow.Strand) *dataflow.AggMaint { return nil }
func (c *diffCtx) HeadFields(n int) []tuple.Value               { return make([]tuple.Value, n) }
func (c *diffCtx) Frame(n int) []tuple.Value                    { return make([]tuple.Value, n) }
func (c *diffCtx) EmitHead(s *dataflow.Strand, t tuple.Tuple, del bool) {
	c.logf("head %s %v del=%v", s.RuleID, t, del)
	if c.tracer != nil && !del {
		c.ids++
		c.Bill(dataflow.CostTraceTap)
		c.tracer.Output(s, t.WithID(c.ids), c.busy)
	}
}
func (c *diffCtx) RuleError(ruleID string, err error) { c.logf("error %s: %v", ruleID, err) }
func (c *diffCtx) TraceInput(s *dataflow.Strand, t tuple.Tuple) {
	if c.tracer != nil {
		c.Bill(dataflow.CostTraceTap)
		c.tracer.Input(s, t, c.busy)
	}
}
func (c *diffCtx) TracePrecond(s *dataflow.Strand, stage int, t tuple.Tuple) {
	if c.tracer != nil {
		c.Bill(dataflow.CostTraceTap)
		c.tracer.Precond(s, stage, t, c.busy)
	}
}
func (c *diffCtx) TracePassed() {
	c.passed++
	if c.tracer != nil {
		c.Bill(dataflow.CostTraceTap)
	}
}
func (c *diffCtx) TraceWitness(s *dataflow.Strand, group int) {
	if c.tracer != nil {
		c.tracer.Witness(s, group)
	}
}
func (c *diffCtx) logf(format string, args ...any) {
	c.log = append(c.log, fmt.Sprintf(format, args...))
}

// filterCase is one rule and the node it runs on: its tables' rows and
// the events that trigger it.
type filterCase struct {
	name   string
	rule   string
	tables []table.Spec
	rows   []tuple.Tuple
	events []tuple.Tuple
}

// runBoth plans c's rule, runs its events on a node built from c's rows
// with the planned strand and with the same plan's filters cleared,
// traced or not, and fails unless both bill the same seconds bit for bit
// and log the same heads and errors in the same order and, traced,
// record the same ruleExec rows. It returns the rows the filtered run
// passed over.
func runBoth(t *testing.T, c filterCase, traced bool) int {
	t.Helper()
	prog, err := overlog.Parse(c.rule)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	env := planner.EnvFunc(func(name string) bool {
		return slices.ContainsFunc(c.tables, func(s table.Spec) bool { return s.Name == name })
	})
	plans, err := planner.CompileRule(prog.Rules()[0], env, func() string { return "r" })
	if err != nil || len(plans) != 1 {
		t.Fatalf("%s: %d plans, %v", c.name, len(plans), err)
	}
	run := func(p *dataflow.Plan) (*diffCtx, string) {
		ctx := &diffCtx{store: table.NewStore()}
		if traced {
			cfg := trace.Config{RuleExecTTL: table.Infinity, RuleExecMax: table.Infinity}
			if ctx.tracer, err = trace.New(ctx.store, "n1", cfg); err != nil {
				t.Fatal(err)
			}
		}
		for _, spec := range c.tables {
			if _, err := ctx.store.Materialize(spec); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range c.rows {
			ctx.ids++
			if _, err := ctx.store.Get(r.Name).Insert(r.WithID(ctx.ids), 0); err != nil {
				t.Fatal(err)
			}
		}
		s := p.Instantiate("q")
		for _, ev := range c.events {
			ctx.ids++
			s.Run(ctx, ev.WithID(ctx.ids))
			if traced {
				ctx.tracer.TaskDone()
			}
		}
		var execs strings.Builder
		if traced {
			ctx.store.Get(trace.RuleExecTable).Scan(ctx.busy, func(r tuple.Tuple) { fmt.Fprintln(&execs, r) })
		}
		return ctx, execs.String()
	}
	got, gotExecs := run(plans[0])
	want, wantExecs := run(dataflow.WithoutRowFilters(plans[0]))
	if math.Float64bits(got.busy) != math.Float64bits(want.busy) || got.bills != want.bills {
		t.Errorf("%s traced=%v: billed %v in %d bills, without filters %v in %d",
			c.name, traced, got.busy, got.bills, want.busy, want.bills)
	}
	if !slices.Equal(got.log, want.log) {
		t.Errorf("%s traced=%v: log\n%s\nwithout filters\n%s", c.name, traced,
			strings.Join(got.log, "\n"), strings.Join(want.log, "\n"))
	}
	if gotExecs != wantExecs {
		t.Errorf("%s traced=%v: ruleExec\n%s\nwithout filters\n%s", c.name, traced, gotExecs, wantExecs)
	}
	return got.passed
}

var (
	nodeSpec   = table.Spec{Name: "node", Lifetime: table.Infinity, MaxSize: 1, Keys: []int{1}}
	fingerSpec = table.Spec{Name: "finger", Lifetime: table.Infinity, MaxSize: 64, Keys: []int{2}}
)

// chordFingers is a converged finger table: the successor at 28 of 32
// positions and farther nodes at the top 4, all n1's, which the ring
// index answers. With foreign it also holds a row of another node's, and
// with odd a finger whose ID is a string; the index answers neither.
func chordFingers(foreign, odd bool) []tuple.Tuple {
	rows := []tuple.Tuple{tuple.New("node", tuple.Str("n1"), tuple.ID(1000))}
	for i := int64(32); i < 64; i++ {
		fid := uint64(1000 + 1<<40)
		if i >= 60 {
			fid = 1000 + uint64(1)<<i
		}
		rows = append(rows, tuple.New("finger", tuple.Str("n1"), tuple.Int(i), tuple.ID(fid), tuple.Str(fmt.Sprintf("f%d", fid%7))))
	}
	if foreign {
		rows = append(rows, tuple.New("finger", tuple.Str("n9"), tuple.Int(70), tuple.ID(1500), tuple.Str("f9")))
	}
	if odd {
		rows = append(rows, tuple.New("finger", tuple.Str("n1"), tuple.Int(71), tuple.Str("fid"), tuple.Str("fs")))
	}
	return rows
}

// lookups asks for keys before the successor, past it, past every
// finger, at the node itself, as an int (so K - FID fails on a string
// FID), as a float and as a string.
func lookups(name string, pre ...tuple.Value) []tuple.Tuple {
	keys := []tuple.Value{tuple.ID(1001), tuple.ID(1000 + 1<<41), tuple.ID(1 << 63), tuple.ID(math.MaxUint64),
		tuple.ID(1000), tuple.Int(5000), tuple.Float(3e12), tuple.Float(-1.5), tuple.Str("k")}
	var evs []tuple.Tuple
	for i, k := range keys {
		f := append([]tuple.Value{tuple.Str("n1")}, pre...)
		f = append(f, k, tuple.Str("req"), tuple.Int(int64(i)))
		evs = append(evs, tuple.Tuple{Name: name, Fields: f})
	}
	return evs
}

// TestRowFilterMatchesPipeline: Chord's l2 and l4, whose finger join
// answers FID in (NID, K) itself, and the snapshot's l2s, whose join on
// SnapID too does not, bill the same seconds bit for bit, log the same
// heads and rule errors and, traced, record the same ruleExec rows as
// the same plans with the filter cleared, on a finger table that the
// ring index answers, traced and untraced, and on ones it does not (a
// string FID, whose skipped assignment would fail on an int key and
// must still report it).
func TestRowFilterMatchesPipeline(t *testing.T) {
	snapSpec := table.Spec{Name: "snapUniqFingers", Lifetime: 100, MaxSize: 1600, Keys: []int{1, 2, 3}}
	var snapRows []tuple.Tuple
	for _, r := range chordFingers(true, true) {
		if r.Name == "finger" {
			snapRows = append(snapRows, tuple.New("snapUniqFingers", r.Fields[0], tuple.Int(7), r.Fields[3], r.Fields[2]))
		}
	}
	snapRows = append(snapRows, tuple.New("node", tuple.Str("n1"), tuple.ID(1000)))
	var cases []filterCase
	for _, f := range []struct{ foreign, odd bool }{{false, false}, {true, false}, {true, true}} {
		cases = append(cases,
			filterCase{fmt.Sprintf("l2 foreign=%v odd=%v", f.foreign, f.odd),
				`l2 bestLookupDist@N(K, ReqAddr, E, min<D>) :- node@N(NID), lookup@N(K, ReqAddr, E), finger@N(I, FID, FAddr), D := K - FID - 1, FID in (NID, K).`,
				[]table.Spec{nodeSpec, fingerSpec}, chordFingers(f.foreign, f.odd), lookups("lookup")},
			filterCase{fmt.Sprintf("l4 foreign=%v odd=%v", f.foreign, f.odd),
				`l4 fingerCount@N(K, ReqAddr, E, count<*>) :- lookup@N(K, ReqAddr, E), node@N(NID), finger@N(I, FID, FAddr), FID in (NID, K).`,
				[]table.Spec{nodeSpec, fingerSpec}, chordFingers(f.foreign, f.odd), lookups("lookup")})
	}
	cases = append(cases, filterCase{"l2s",
		`l2s sBestLookupDist@NAddr(SnapID, K, ReqAddr, E, min<D>) :- node@NAddr(NID), sLookup@NAddr(SnapID, K, ReqAddr, E), snapUniqFingers@NAddr(SnapID, FAddr, FID), D := K - FID - 1, FID in (NID, K).`,
		[]table.Spec{nodeSpec, snapSpec}, snapRows, lookups("sLookup", tuple.Int(7))})
	for _, c := range cases {
		for _, traced := range []bool{false, true} {
			// Where the index answers it passes rows over, traced too.
			if passed := runBoth(t, c, traced); (passed > 0) != strings.HasSuffix(c.name, "foreign=false odd=false") {
				t.Errorf("%s traced=%v: the index passed over %d rows", c.name, traced, passed)
			}
		}
	}
	// The filters are there: l2 and l4 probe the location alone and
	// answer their selection; l2s probes SnapID too, and does not.
	for _, c := range cases {
		prog := overlog.MustParse(c.rule)
		env := planner.EnvFunc(func(name string) bool { return name != "lookup" && name != "sLookup" })
		plans, err := planner.CompileRule(prog.Rules()[0], env, func() string { return "r" })
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, op := range plans[0].Ops {
			if j, ok := op.(*dataflow.JoinOp); ok && j.RowFilter() != nil {
				n++
			}
		}
		want := 1
		if c.name == "l2s" {
			want = 0
		}
		if n != want {
			t.Errorf("%s: %d joins answer a selection, want %d", c.name, n, want)
		}
	}
}

// genFilterCase writes a random rule in the shape a filter answers, or
// nearly (an assignment that reads another field of the row, a second
// condition), over a table with rows of every kind or, half the time,
// one the ring index answers (every row the node's, of full arity, with
// a number for X), and events whose bounds are of every kind.
func genFilterCase(r *rand.Rand, i int) filterCase {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	lo, hi := pick("NID", "K", "B", "5", "0"), pick("NID", "K", "B", "7", "0")
	open := pick("(", "[") + lo + ", " + hi + pick(")", "]")
	var body []string
	vars := []string{"X"}
	for a := range r.Intn(3) {
		v := fmt.Sprintf("D%d", a)
		body = append(body, fmt.Sprintf("%s := %s %s %s", v, pick(append(vars, "K", "NID", "1")...), pick("+", "-", "*"), pick(append(vars, "K", "Y", "2")...)))
		vars = append(vars, v)
	}
	body = append(body, "X in "+open)
	if r.Intn(4) == 0 {
		body = append(body, pick("Y != 3", "X != K"))
	}
	head := pick("out@N(K, X, I)", "out@N(K, min<X>)", "out@N(K, count<*>)", "out@N(K, "+vars[len(vars)-1]+")")
	rule := fmt.Sprintf("g%d %s :- ev@N(K, B), node@N(NID), tab@N(I, X, Y), %s.", i, head, strings.Join(body, ", "))

	key := func() tuple.Value {
		switch r.Intn(8) {
		case 0:
			return tuple.Int(int64(r.Intn(10)) - 2)
		case 1:
			return tuple.Float(float64(r.Intn(20))/2 - 1)
		case 2:
			return tuple.Str("s")
		case 3:
			return tuple.ID(math.MaxUint64 - uint64(r.Intn(3)))
		}
		return tuple.ID(uint64(r.Intn(10)))
	}
	tabSpec := table.Spec{Name: "tab", Lifetime: table.Infinity, MaxSize: table.Infinity, Keys: []int{2}}
	rows := []tuple.Tuple{tuple.New("node", tuple.Str("n1"), key())}
	clean := r.Intn(2) == 0
	for k := range 4 + r.Intn(40) {
		at := "n1"
		if !clean && r.Intn(12) == 0 {
			at = "n2"
		}
		x := key()
		for clean && !x.Numeric() {
			x = key()
		}
		row := tuple.New("tab", tuple.Str(at), tuple.Int(int64(k)), x, key())
		if !clean && r.Intn(16) == 0 {
			row.Fields = row.Fields[:3]
		}
		rows = append(rows, row)
	}
	var events []tuple.Tuple
	for range 6 {
		events = append(events, tuple.New("ev", tuple.Str("n1"), key(), key()))
	}
	return filterCase{fmt.Sprintf("generated %q", rule), rule, []table.Spec{nodeSpec, tabSpec}, rows, events}
}

// TestRowFilterGeneratedBodies: generated rules in and around the shape
// a filter answers bill, log and record ruleExec rows as their plans
// with filters cleared do, traced and untraced, and the generator
// reaches both sides of it and, traced, the ring index.
func TestRowFilterGeneratedBodies(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	filtered, passing := 0, 0
	const n = 300
	for i := range n {
		c := genFilterCase(r, i)
		prog := overlog.MustParse(c.rule)
		env := planner.EnvFunc(func(name string) bool { return name != "ev" })
		plans, err := planner.CompileRule(prog.Rules()[0], env, func() string { return "r" })
		if err != nil {
			continue // an assignment to a bound variable, say
		}
		for _, op := range plans[0].Ops {
			if j, ok := op.(*dataflow.JoinOp); ok && j.RowFilter() != nil {
				filtered++
			}
		}
		for _, traced := range []bool{false, true} {
			if runBoth(t, c, traced) > 0 && traced {
				passing++
			}
		}
	}
	if filtered < n/3 || filtered > n*9/10 {
		t.Errorf("%d of %d generated rules filtered; the generator should reach both sides", filtered, n)
	}
	if passing < n/10 {
		t.Errorf("the ring index passed rows over in %d of %d traced runs; the generator should reach it", passing, n)
	}
}
