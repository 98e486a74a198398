// Package dataflow implements the executable form of OverLog rules: rule
// strands, the element pipelines the planner produces (Figure 1 of the
// paper). A strand is triggered by one tuple — an incoming event, a timer
// firing, or a delta on a materialized table — and runs a sequence of
// elements (joins against tables, selections, assignments) ending in head
// construction and routing.
//
// Every stateful element (join) defines a tracing "stage"; strands invoke
// the taps of a Context so the execution tracer (internal/trace) can
// reconstruct rule executions exactly as described in §2.1 of the paper.
package dataflow

import (
	"fmt"
	"slices"

	"p2go/internal/overlog"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

// Context is the node-side environment a strand executes in. The engine's
// Node implements it; tests provide lightweight fakes. The tables a
// strand joins are its Query's, not the Context's.
type Context interface {
	// Now returns the node-local virtual time in seconds.
	Now() float64

	// Env returns the context as the overlog.Context compiled expressions
	// read, converted where its type is known: a conversion at run time
	// allocates its call site's cache on a random 1 in 1024 misses.
	Env() overlog.Context

	// EmitHead routes a head tuple produced by a strand: local insert or
	// event, remote send, or (for delete rules) table deletion. The
	// pattern form of delete heads uses nil values as wildcards.
	EmitHead(s *Strand, t tuple.Tuple, isDelete bool)

	// Bill charges cost seconds of simulated CPU work to the node.
	Bill(seconds float64)

	// HeadFields returns n zeroed values for a head tuple under
	// construction. The storage is the context's and lives until the
	// node's task ends: the strand fills it, hands the tuple to EmitHead
	// and keeps nothing, and an EmitHead that keeps the tuple copies it.
	HeadFields(n int) []tuple.Value

	// Frame returns n zeroed values of activation scratch: a binding
	// frame, an index probe's key, the slots a scan restores. The caller
	// uses them until its activation returns. No other call returns the
	// same storage, so a nested activation works in frames of its own.
	// The engine carves frames from the task's arena, like HeadFields.
	Frame(n int) []tuple.Value

	// AggScratch returns the keep a rescan aggregate's activation takes
	// its per-group state from and gives it back to, emptied, when it
	// returns; a nested activation takes another. The keep is the
	// context's: the engine keeps one in each task arena, so only the
	// tasks that share an Arenas (Frame's) share the states.
	AggScratch() *AggScratch

	// AggState returns the persistent incremental accumulator for a
	// strand the planner marked maintainable (s.AggPlan != nil), or nil
	// for the per-activation rescan. It is the only selector between the
	// two paths: the strand asks it on every activation of such a strand
	// and takes whichever it is given. The engine owns the accumulator's
	// lifecycle: it wires the table listeners that keep it current and
	// tears it down on UninstallQuery. A traced node returns nil, because
	// only the rescan tells the tracer each group's witness
	// (TraceWitness); test contexts choose for themselves.
	AggState(s *Strand) *AggMaint

	// Tracer taps (no-ops when execution logging is off). The output
	// tap lives inside EmitHead: the node assigns the head tuple its
	// node-unique ID there, which the tracer needs.
	TraceInput(s *Strand, t tuple.Tuple)
	TracePrecond(s *Strand, stage int, t tuple.Tuple)
	// Passed charges rows a join passed over without binding them (see
	// rowFilter) what the walk would have: for each row in turn, on a
	// traced node its precondition tap, then evals CostEval bills, one
	// bill at a time. No output names such a row, so nothing is recorded.
	Passed(rows, evals int)
	// TraceWitness observes that the binding being folded into aggregate
	// group number group is, so far, the first to reach the group's min
	// or max: the group's output records this binding's preconditions.
	// flushAgg emits a min or max group exactly when it has a witness,
	// in group order, so the tracer gives an activation's k-th output
	// the k-th witnessed group's preconditions. A count, sum or avg
	// output records its input alone: the whole group is its cause.
	TraceWitness(s *Strand, group int)

	// RuleError reports a runtime error during rule evaluation (type
	// mismatch, unbound variable); execution of the activation continues
	// with the offending binding dropped, as in P2.
	RuleError(ruleID string, err error)
}

// TriggerKind says what fires a strand.
type TriggerKind uint8

const (
	// TriggerEvent fires on arrival of an event tuple (a predicate that
	// is not materialized).
	TriggerEvent TriggerKind = iota
	// TriggerDelta fires on insertion into a materialized table.
	TriggerDelta
	// TriggerPeriodic fires on a node-local timer (the built-in
	// periodic@N(E, T) event).
	TriggerPeriodic
)

// Trigger describes a strand's triggering predicate.
type Trigger struct {
	Kind TriggerKind
	// Name is the predicate (or table) name that fires the strand, Rel
	// its relation number (none for a periodic).
	Name string
	Rel  int
	// Period and Count apply to periodic triggers: the firing interval
	// in seconds and the number of firings (0 = forever).
	Period float64
	Count  int
	// FieldSlots maps each trigger tuple field to a variable slot
	// (-1 = don't bind). For aggregate delta strands only group-by
	// variables are bound; the table is rescanned by a JoinOp instead.
	FieldSlots []int
	// FieldConsts holds per-field constants the trigger tuple must
	// match (nil value = no constraint).
	FieldConsts []tuple.Value
}

// Op is one pipeline element following the trigger.
type Op interface {
	opNode()
}

// JoinOp probes a table: for each row matching the already-bound fields
// and constants it binds the free fields and continues the pipeline. Each
// JoinOp is one tracing stage.
type JoinOp struct {
	// Table is the probed table's name, Rel its relation number.
	Table string
	Rel   int
	// Stage is the 1-based tracing stage index.
	Stage int
	// FieldSlots maps row fields to variable slots (-1 = ignore). A
	// slot already bound acts as an equality constraint; an unbound
	// slot is bound by the row (and unbound again on backtrack).
	FieldSlots []int
	// FieldConsts holds per-field constant constraints (nil = none).
	FieldConsts []tuple.Value
	// IndexPositions lists the 0-based field positions statically known
	// to be bound when the join runs (constants plus variables bound by
	// the trigger or earlier ops). Non-empty means the join probes a
	// secondary index over these positions instead of scanning — the
	// planner-created join indices of P2.
	IndexPositions []int

	rest   residual   // what an index probe still does per row; set by Plan.Compile
	filter *rowFilter // the selection the probe answers, if any; set by Plan.Compile
}

func (*JoinOp) opNode() {}

// rowFilter is the ring-interval selection a join's index probe answers
// itself. Plan.Compile gives one to a join that probes the location
// specifier alone and is followed by `X in (Lo, Hi)`, X a fresh field of
// the joined row and Lo and Hi bound before the join or literals, with
// nothing in between but assignments that cannot fail on a row whose X
// is a number: sums and differences of X, numeric literals, variables
// bound before the join and earlier such assignments (Chord's
// D := K - FID - 1). The probe then asks the table for the rows in
// range (Table.MatchRange); a row the condition rejects never binds,
// and the join bills it what the pipeline would have, its precondition
// tap and one CostEval per skipped op, in the same order (Context.Passed).
// Traced or not, the heads, rule errors and ruleExec records are the
// walk's: a rejected row's tap names no output, because the next row
// the join binds overwrites it and an aggregate's output names its
// witness (TraceWitness), never the last row tapped.
type rowFilter struct {
	cond   *overlog.RangeExpr
	field  int // X's position in the row
	lo, hi overlog.Compiled
	reads  []int // slots bound before the join that the bounds and assignments read
	evals  int   // skipped ops: the assignments and the condition
}

// rangeFilter returns the rowFilter of join o, which next follows, or
// nil; bound holds the slots bound before o runs.
func rangeFilter(o *JoinOp, next []Op, bound []bool, slotOf func(string) int) *rowFilter {
	k := slices.IndexFunc(next, func(op Op) bool { _, ok := op.(*AssignOp); return !ok })
	if k < 0 || len(o.rest.repeats) > 0 || len(o.IndexPositions) != 1 || o.IndexPositions[0] != 0 {
		return nil
	}
	c, ok := next[k].(*CondOp)
	if !ok {
		return nil
	}
	in, ok := c.Expr.(*overlog.RangeExpr)
	if !ok {
		return nil
	}
	x, ok := in.X.(*overlog.Var)
	if !ok {
		return nil
	}
	f := &rowFilter{cond: in, field: -1, evals: k + 1,
		lo: overlog.Compile(in.Lo, slotOf), hi: overlog.Compile(in.Hi, slotOf)}
	xs := slotOf(x.Name)
	for _, fs := range o.rest.fresh {
		if fs.slot == xs {
			f.field = fs.pos
		}
	}
	// numbers are the slots that hold a number once X does and the reads
	// do: X's and the skipped assignments'.
	numbers := map[int]bool{xs: true}
	// number reports whether e holds a number then: a numeric literal, a
	// variable bound before the join (a read), and with sums set one of
	// numbers or a sum or difference of such.
	var number func(e overlog.Expr, sums bool) bool
	number = func(e overlog.Expr, sums bool) bool {
		switch v := e.(type) {
		case *overlog.Lit:
			return v.Val.Numeric()
		case *overlog.Var:
			if sl := slotOf(v.Name); numbers[sl] {
				return sums
			} else if sl >= 0 && bound[sl] {
				if !slices.Contains(f.reads, sl) {
					f.reads = append(f.reads, sl)
				}
				return true
			}
		case *overlog.Binary:
			return sums && (v.Op == "+" || v.Op == "-") && number(v.L, true) && number(v.R, true)
		}
		return false
	}
	if f.field < 0 || !number(in.Lo, false) || !number(in.Hi, false) {
		return nil
	}
	for _, op := range next[:k] {
		a := op.(*AssignOp)
		if !number(a.Expr, true) {
			return nil
		}
		numbers[a.Slot] = true
	}
	return f
}

// arm returns the selection under binding b for rows of the given
// arity, or false when a slot the filter reads holds no number: then an
// assignment or the condition could fail, and every row goes down the
// pipeline.
func (f *rowFilter) arm(b Binding, arity int) (table.Range, bool) {
	for _, sl := range f.reads {
		if !b[sl].Numeric() {
			return table.Range{}, false
		}
	}
	lo, _ := f.lo(b, nil) // a read or a literal: it cannot fail
	hi, _ := f.hi(b, nil)
	return table.NewRange(f.field, arity, lo, hi, f.cond.LoOpen, f.cond.HiOpen), true
}

// residual is a join's per-row work once the index has verified the
// IndexPositions: each other position binds a fresh slot, or repeats a
// fresh variable and must equal that variable's first position.
type residual struct {
	arity   int
	fresh   []fieldSlot
	repeats [][2]int // position pairs holding one variable
}

type fieldSlot struct{ pos, slot int }

// residual fixes what the index probe of o leaves to do per row, given
// the slots bound before o runs. The planner indexes every constant and
// every variable bound before the join, so anything else is a plan bug.
func (o *JoinOp) residual(ruleID string, bound []bool) residual {
	r := residual{arity: len(o.FieldSlots)}
	for pos, slot := range o.FieldSlots {
		if slices.Contains(o.IndexPositions, pos) || slot < 0 && o.FieldConsts[pos].IsNil() {
			continue
		}
		if !o.FieldConsts[pos].IsNil() || bound[slot] {
			panic(fmt.Sprintf("dataflow: rule %s joins %s with bound position %d outside IndexPositions", ruleID, o.Table, pos))
		}
		if k := slices.IndexFunc(r.fresh, func(f fieldSlot) bool { return f.slot == slot }); k >= 0 {
			r.repeats = append(r.repeats, [2]int{r.fresh[k].pos, pos})
		} else {
			r.fresh = append(r.fresh, fieldSlot{pos, slot})
		}
	}
	return r
}

// bind binds row's fresh fields into b, or reports false when the row
// has the wrong arity or breaks a repeat.
func (r *residual) bind(b Binding, row tuple.Tuple) bool {
	f := row.Fields
	if len(f) != r.arity {
		return false
	}
	for _, pq := range r.repeats {
		if !f[pq[0]].Equal(f[pq[1]]) {
			return false
		}
	}
	for _, x := range r.fresh {
		b[x.slot] = f[x.pos]
	}
	return true
}

func (r *residual) unbind(b Binding) {
	for _, x := range r.fresh {
		b[x.slot] = tuple.Nil
	}
}

// CondOp filters bindings by a boolean expression (a selection element).
type CondOp struct {
	Expr overlog.Expr
	eval overlog.Compiled // Expr by slot; set by Plan.Compile
}

func (*CondOp) opNode() {}

// AssignOp binds a fresh variable slot to the value of an expression.
type AssignOp struct {
	Slot int
	Expr overlog.Expr
	eval overlog.Compiled // Expr by slot; set by Plan.Compile
}

func (*AssignOp) opNode() {}

// AggSpec describes the head aggregate of an aggregate rule.
type AggSpec struct {
	// Op is count, min, max, sum, or avg.
	Op string
	// Slot is the aggregated variable's slot; -1 for count<*>.
	Slot int
	// ArgIndex is the head-argument position holding the aggregate
	// (index into Head args including the location at 0).
	ArgIndex int
	// EmitZero: when true and the aggregate is count, an activation
	// producing no matches emits a single head with count 0 (possible
	// only when all group-by variables are bound by the trigger; the
	// snapshot rule sr9 depends on observing count 0).
	EmitZero bool
}

// Plan is the immutable, shareable compilation of one rule strand: the
// element pipeline, trigger shape, head template, static analyses, and
// the evaluators of its expressions, compiled against its slot layout by
// Compile. A Plan carries no execution state and no per-node state, is
// never written after the planner returns it, and may therefore be
// shared by every node running the same program ("plan once, instantiate
// N times") — including nodes running concurrently as realtime
// UDPNodes in one process, since concurrent readers of immutable data
// race with nobody. One set of evaluators serves every strand of every node.
type Plan struct {
	// RuleID is the rule label (possibly planner-generated).
	RuleID string
	// Source is the original rule text, exposed through the ruleTable
	// reflection table.
	Source string
	// Trigger fires the strand.
	Trigger Trigger
	// NumVars is the size of the binding frame.
	NumVars int
	// VarNames maps slots to variable names (diagnostics).
	VarNames []string
	// Ops is the element pipeline.
	Ops []Op
	// HeadName, HeadArgs build the head tuple; HeadArgs includes the
	// location expression at index 0. HeadRel numbers HeadName.
	HeadName string
	HeadRel  int
	HeadArgs []overlog.Expr
	// IsDelete marks delete rules.
	IsDelete bool
	// Agg is non-nil for aggregate rules.
	Agg *AggSpec
	// AggPlan is non-nil when the planner proved the aggregate eligible
	// for incremental maintenance (see planner's analyzeAggMaint).
	AggPlan *AggPlan
	// Stages is the number of stateful (join) stages.
	Stages int

	// head evaluates HeadArgs by slot (nil at the aggregate's position).
	// Compile always sets it, so a nil head is a plan never compiled.
	head []overlog.Compiled
}

// Compile resolves the plan against its slot layout: each CondOp and
// AssignOp expression and each head argument but the aggregate becomes
// an overlog.Compiled that reads the binding by slot, and each indexed
// JoinOp gets the per-row residual of its probe and its rowFilter. An
// unbound variable in a delete head is a wildcard (tuple.Nil), not an
// error. The planner calls Compile as the last step of building a plan,
// and a plan built by hand must too, after its last change: Run panics
// on a plan that was never compiled.
func (p *Plan) Compile() {
	slotOf := func(name string) int { return slices.Index(p.VarNames, name) }
	bound := make([]bool, p.NumVars)
	bindAll := func(slots []int) {
		for _, sl := range slots {
			if sl >= 0 {
				bound[sl] = true
			}
		}
	}
	bindAll(p.Trigger.FieldSlots)
	for k, op := range p.Ops {
		switch o := op.(type) {
		case *JoinOp:
			if len(o.IndexPositions) > 0 {
				o.rest = o.residual(p.RuleID, bound)
				o.filter = rangeFilter(o, p.Ops[k+1:], bound, slotOf)
			}
			bindAll(o.FieldSlots)
		case *CondOp:
			o.eval = overlog.Compile(o.Expr, slotOf)
		case *AssignOp:
			o.eval = overlog.Compile(o.Expr, slotOf)
			bound[o.Slot] = true
		}
	}
	p.head = make([]overlog.Compiled, len(p.HeadArgs))
	for i, e := range p.HeadArgs {
		v, isVar := e.(*overlog.Var)
		switch {
		case p.Agg != nil && i == p.Agg.ArgIndex:
			// Folded by the aggregate, never evaluated.
		case p.IsDelete && isVar:
			p.head[i] = wildcard(slotOf(v.Name))
		default:
			p.head[i] = overlog.Compile(e, slotOf)
		}
	}
}

// wildcard reads a delete head's variable: unbound, it matches anything.
func wildcard(slot int) overlog.Compiled {
	return func(env []tuple.Value, _ overlog.Context) (tuple.Value, error) {
		if slot < 0 {
			return tuple.Nil, nil
		}
		return env[slot], nil
	}
}

// Number numbers the relations a query's plans name (triggers but
// periodics, joins, heads, maintained aggregates' tables) in order of
// first appearance: names[k] is relation k. A node resolves the numbers
// once, at install. Number writes the plans: it runs before they are shared.
func Number(plans []*Plan) (names []string) {
	num := func(name string) int {
		k := slices.Index(names, name)
		if k < 0 {
			k, names = len(names), append(names, name)
		}
		return k
	}
	for _, p := range plans {
		if p.Trigger.Kind != TriggerPeriodic {
			p.Trigger.Rel = num(p.Trigger.Name)
		}
		for _, op := range p.Ops {
			if j, ok := op.(*JoinOp); ok {
				j.Rel = num(j.Table)
			}
		}
		p.HeadRel = num(p.HeadName)
		if a := p.AggPlan; a != nil {
			a.Rels = append(a.Rels[:0], num(a.Primary))
			for _, name := range a.Secondaries {
				a.Rels = append(a.Rels, num(name))
			}
		}
	}
	return names
}

// Query is a node's instance of an installed query, shared by its
// strands: it binds the plans' relation numbers to the node's relations.
type Query interface {
	// Table returns relation rel's table on the node now, or nil while
	// the name is not materialized.
	Table(rel int) *table.Table
}

// Instantiate wraps the plan in a strand of query q on one node.
func (p *Plan) Instantiate(q Query) *Strand {
	return &Strand{Plan: p, Query: q}
}

// Strand is one node's executable instance of a compiled rule strand:
// the shared immutable Plan plus the query it belongs to, and nothing
// else. What an activation writes lives in frames the Context lends for
// the activation (Context.Frame), so a strand between activations holds
// no scratch. The embedded plan keeps every read of a compiled field
// (s.Ops, s.Trigger, …) on the strand itself.
type Strand struct {
	*Plan

	// Query is the installed query this strand belongs to on its node,
	// through which its joins reach their tables.
	Query Query
}

// AggPlan is the planner's incremental-maintenance analysis for an
// eligible aggregate strand: the aggregate over the full body product is
// trigger-independent, so a persistent per-group accumulator fed by the
// primary table's change listeners replaces the per-activation rescan.
type AggPlan struct {
	// Primary is the table joined by Ops[0]; its insert/delete/expiry
	// notifications maintain the accumulator in O(delta).
	Primary string
	// Secondaries are the other joined tables (deduplicated). Any
	// change to one invalidates the accumulator, which is rebuilt by a
	// single rescan on the next trigger.
	Secondaries []string
	// Rels numbers Primary, then Secondaries.
	Rels []int
	// Filter lists (group index, trigger slot) pairs: at emission time
	// only groups whose group value at GroupIdx equals the trigger
	// binding's value at Slot are emitted — the maintained equivalent
	// of the rescan's trigger-bound join constraints.
	Filter []AggFilterPos
}

// AggFilterPos is one emission-time group filter position.
type AggFilterPos struct {
	// GroupIdx indexes the group values (head args minus the aggregate
	// position, in order).
	GroupIdx int
	// Slot is the trigger-bound variable slot the group value must
	// equal.
	Slot int
}

// String identifies the strand.
func (s *Strand) String() string {
	return fmt.Sprintf("strand(%s<-%s)", s.RuleID, s.Trigger.Name)
}

// Binding is a variable frame; tuple.Nil marks unbound slots. (OverLog
// values inside tuples are never nil: the parser has no nil literal in
// predicate arguments, so nil-as-unbound is unambiguous.)
type Binding []tuple.Value

// Cost model constants, in seconds of simulated CPU per operation. These
// are the knobs DESIGN.md §4 describes: they stand in for the paper's
// OS-measured CPU utilization. Calibrated so a 21-node Chord network
// idles around 1% CPU per node, matching the paper's baseline.
const (
	CostTupleHandoff = 75e-6   // demux + queue + strand entry per tuple
	CostTimerFire    = 15e-6   // scheduler overhead of a private timer
	CostJoinSetup    = 40e-6   // per join invocation: index/iterator setup
	CostJoinProbe    = 17.5e-6 // per candidate row visited in a join
	CostEval         = 10e-6   // per condition/assignment evaluation
	CostHead         = 50e-6   // head construction + routing
	CostTableOp      = 62.5e-6 // table insert/delete
	CostWatch        = 62.5e-6 // delivering one watched tuple to the observer (calibrated like a table op)
	CostMarshal      = 50e-6   // marshal or unmarshal one tuple
	CostTraceTap     = 25e-6   // tracer tap + log-table bookkeeping (when tracing on)
	CostAggApply     = 20e-6   // incremental accumulator update for one table delta
	CostAggEmit      = 25e-6   // accumulator lookup + group filter per trigger
	CostStoreAppend  = 2e-6    // one record into the trace store's active segment
	CostStoreSeal    = 1e-6    // per record encoded when a segment seals (amortized)
)

// completion receives each fully bound pipeline result: nil means emit a
// head per binding; aggState folds bindings into per-activation groups;
// AggMaint (aggmaint.go) records contributions into the persistent
// accumulator.
type completion interface {
	complete(s *Strand, ctx Context, b Binding)
}

func (a *aggState) complete(s *Strand, ctx Context, b Binding) { s.accumulate(ctx, b, a) }

// Run executes one activation of the strand for the triggering tuple.
// The caller (engine.Node) has already matched trig.Name.
func (s *Strand) Run(ctx Context, trig tuple.Tuple) {
	if s.head == nil {
		panic(fmt.Sprintf("dataflow: rule %s runs a plan that was never compiled (Plan.Compile)", s.RuleID))
	}
	ctx.Bill(CostTupleHandoff)
	b := Binding(ctx.Frame(s.NumVars))
	if !bindFields(b, trig, s.Trigger.FieldSlots, s.Trigger.FieldConsts) {
		return // trigger constants or self-unification failed
	}
	ctx.TraceInput(s, trig)

	if s.Agg == nil {
		s.exec(ctx, b, 0, nil)
		return
	}
	l := ctx.AggScratch()
	agg := l.take()
	s.runAgg(ctx, b, agg)
	l.put(agg)
}

// runAgg is the aggregate half of an activation: fold the completed
// bindings into groups (or read the maintained accumulator) and emit one
// head per group. When evaluating the count-0 group fails the activation
// is abandoned.
func (s *Strand) runAgg(ctx Context, b Binding, agg *aggState) {
	var am *AggMaint
	if s.AggPlan != nil {
		am = ctx.AggState(s)
	}
	if s.Agg.EmitZero {
		// Pre-evaluate the group-by values from the trigger binding so
		// an empty activation can emit count 0.
		var ok bool
		if agg.zeroGroup, ok = s.evalGroupVals(ctx, b, agg.zeroGroup[:0]); !ok {
			return
		}
	}
	if am != nil {
		// Incremental path: no rescan; emit from the maintained
		// accumulator (O(groups), not O(rows)).
		am.runTrigger(ctx, b, agg)
		return
	}
	s.exec(ctx, b, 0, agg)
	s.flushAgg(ctx, agg)
}

// exec runs ops[i:] under binding b, passing each completed binding to
// done (or emitting a head when done is nil).
func (s *Strand) exec(ctx Context, b Binding, i int, done completion) {
	if i == len(s.Ops) {
		if done != nil {
			done.complete(s, ctx, b)
			return
		}
		s.emit(ctx, b)
		return
	}
	switch op := s.Ops[i].(type) {
	case *JoinOp:
		tb := s.Query.Table(op.Rel)
		if tb == nil {
			ctx.RuleError(s.RuleID, fmt.Errorf("join against unmaterialized table %s", op.Table))
			return
		}
		ctx.Bill(CostJoinSetup)
		if len(op.IndexPositions) > 0 && s.probeJoin(ctx, tb, op, b, i, done) {
			return
		}
		s.scanJoin(ctx, tb, op, b, i, done)
	case *CondOp:
		ctx.Bill(CostEval)
		v, err := op.eval(b, ctx.Env())
		if err != nil {
			ctx.RuleError(s.RuleID, err)
			return
		}
		if v.Truth() {
			s.exec(ctx, b, i+1, done)
		}
	case *AssignOp:
		ctx.Bill(CostEval)
		v, err := op.eval(b, ctx.Env())
		if err != nil {
			ctx.RuleError(s.RuleID, err)
			return
		}
		old := b[op.Slot]
		b[op.Slot] = v
		s.exec(ctx, b, i+1, done)
		b[op.Slot] = old
	}
}

// probeJoin runs join op i as an index probe: the index verifies the
// IndexPositions, and each row only runs the residual Compile fixed. It
// returns false, having done nothing, when a statically bound slot is
// unbound at run time (an accumulator rebuild runs the pipeline without
// its trigger binding); the caller then scans.
//
// A join with a rowFilter armed under b asks the table for the rows in
// range and charges the rows it passed over before each as the pipeline
// would have (Context.Passed), traced or not; when the table cannot
// answer, the probe walks every row down the pipeline.
func (s *Strand) probeJoin(ctx Context, tb *table.Table, op *JoinOp, b Binding, i int, done completion) bool {
	values := ctx.Frame(len(op.IndexPositions))
	for k, p := range op.IndexPositions {
		if c := op.FieldConsts[p]; !c.IsNil() {
			values[k] = c
			continue
		}
		if values[k] = b[op.FieldSlots[p]]; values[k].IsNil() {
			return false
		}
	}
	row := func(t tuple.Tuple) {
		if op.rest.bind(b, t) {
			ctx.TracePrecond(s, op.Stage, t)
			s.exec(ctx, b, i+1, done)
		}
	}
	visited, answered := 0, false
	if f := op.filter; f != nil {
		if sel, ok := f.arm(b, op.rest.arity); ok {
			var passed int
			visited, passed, answered = tb.MatchRange(ctx.Now(), values[0], &sel, func(t tuple.Tuple, passed int) {
				ctx.Passed(passed, f.evals)
				row(t)
			})
			ctx.Passed(passed, f.evals)
		}
	}
	if !answered {
		visited = tb.MatchIndexed(ctx.Now(), op.IndexPositions, values, row)
	}
	op.rest.unbind(b)
	ctx.Bill(float64(visited) * CostJoinProbe)
	return true
}

// scanJoin runs join op i over every row, unifying each in full. It saves
// the op's slots when the scan starts and restores them after each row,
// which undoes exactly what the row bound: bindFields binds only unbound
// slots. It bills per-probe cost the way probeJoin does, once for the
// visited count, after the scan.
func (s *Strand) scanJoin(ctx Context, tb *table.Table, op *JoinOp, b Binding, i int, done completion) {
	saved := ctx.Frame(len(op.FieldSlots))
	for k, slot := range op.FieldSlots {
		if slot >= 0 {
			saved[k] = b[slot]
		}
	}
	visited := 0
	tb.Scan(ctx.Now(), func(row tuple.Tuple) {
		visited++
		if bindFields(b, row, op.FieldSlots, op.FieldConsts) {
			ctx.TracePrecond(s, op.Stage, row)
			s.exec(ctx, b, i+1, done)
		}
		for k, slot := range op.FieldSlots {
			if slot >= 0 {
				b[slot] = saved[k]
			}
		}
	})
	ctx.Bill(float64(visited) * CostJoinProbe)
}

// bindFields unifies a tuple against per-field slots and constants,
// binding only slots that are unbound. It returns false on a constant
// mismatch or disagreement with an existing binding.
func bindFields(b Binding, t tuple.Tuple, slots []int, consts []tuple.Value) bool {
	n := len(slots)
	if len(t.Fields) != n {
		return false
	}
	for i := 0; i < n; i++ {
		if c := consts[i]; !c.IsNil() {
			if !t.Fields[i].Equal(c) {
				return false
			}
			continue
		}
		slot := slots[i]
		if slot < 0 {
			continue
		}
		if b[slot].IsNil() {
			b[slot] = t.Fields[i]
			continue
		}
		if !b[slot].Equal(t.Fields[i]) {
			return false
		}
	}
	return true
}

// emit builds and routes the head tuple for a completed binding.
func (s *Strand) emit(ctx Context, b Binding) {
	ctx.Bill(CostHead)
	fields, env := ctx.HeadFields(len(s.head)), ctx.Env()
	for i, eval := range s.head {
		v, err := eval(b, env)
		if err != nil {
			ctx.RuleError(s.RuleID, err)
			return
		}
		fields[i] = v
	}
	ctx.EmitHead(s, tuple.Tuple{Name: s.HeadName, Fields: fields}, s.IsDelete)
}

// aggState accumulates per-group aggregate values for one activation.
// Groups live by value in first-encounter order and their group-by
// values back to back in one slice, so a recycled state folds and
// flushes without allocating.
type aggState struct {
	index     map[uint64]int // grouping key -> position in groups; made by the first group
	groups    []aggGroup
	vals      []tuple.Value // group i's values are vals[i*w:(i+1)*w], w = len(HeadArgs)-1
	evalBuf   []tuple.Value // the binding being folded, before its group is known
	zeroGroup []tuple.Value // group values for the count-0 emission
}

type aggGroup struct {
	count int64
	minV  tuple.Value
	maxV  tuple.Value
	sum   float64
}

// AggScratch keeps one idle aggregation state for a Context's aggregate
// activations. Keeping a state on each strand instead measured +4.3 MB
// live on the 1000-host join (some seven aggregate strands a host,
// ~650 B each), for states that are idle almost always. One is busy per
// aggregate activation on the stack, which in the engine (whose EmitHead
// queues what a strand emits) is never more than one; a nested
// activation finds the slot empty and makes its own. The zero value is
// empty. Not safe for concurrent use.
type AggScratch struct{ idle *aggState }

// aggMaxGroups bounds what is kept: a state that grew past it is left to
// the collector, so one wide activation neither pins its arrays nor
// leaves a large map for every later put to clear.
const aggMaxGroups = 64

func (l *AggScratch) take() *aggState {
	if a := l.idle; a != nil {
		l.idle = nil
		return a
	}
	return new(aggState)
}

// put keeps a, emptied, unless the slot is taken or a grew too wide.
// Clearing the values it held unpins their strings: the slot lives as
// long as its owner.
func (l *AggScratch) put(a *aggState) {
	if l.idle != nil || len(a.groups) > aggMaxGroups {
		return
	}
	clear(a.index)
	clear(a.groups)
	clear(a.vals)
	clear(a.evalBuf)
	clear(a.zeroGroup)
	a.groups = a.groups[:0]
	a.vals = a.vals[:0]
	a.evalBuf = a.evalBuf[:0]
	a.zeroGroup = a.zeroGroup[:0]
	l.idle = a
}

// groupVals returns the group-by values of group i.
func (a *aggState) groupVals(s *Strand, i int) []tuple.Value {
	w := len(s.HeadArgs) - 1
	return a.vals[i*w : (i+1)*w]
}

// evalGroupVals appends the group-by values (head args minus the
// aggregate position) under binding b to buf. ok=false means an
// evaluation error was reported.
func (s *Strand) evalGroupVals(ctx Context, b Binding, buf []tuple.Value) (vals []tuple.Value, ok bool) {
	env := ctx.Env()
	for i, eval := range s.head {
		if i == s.Agg.ArgIndex {
			continue
		}
		v, err := eval(b, env)
		if err != nil {
			ctx.RuleError(s.RuleID, err)
			return buf, false
		}
		buf = append(buf, v)
	}
	return buf, true
}

// evalGroup evaluates the group-by values for a completed binding into
// buf, with their grouping key. The values alias buf: a caller that
// keeps them (a new group) copies. ok=false means the binding is dropped.
func (s *Strand) evalGroup(ctx Context, b Binding, buf []tuple.Value) (groupVals []tuple.Value, key uint64, ok bool) {
	groupVals, ok = s.evalGroupVals(ctx, b, buf[:0])
	if !ok {
		return groupVals, 0, false
	}
	return groupVals, tuple.New("", groupVals...).Hash(), true
}

// accumulate folds one completed binding into its group.
func (s *Strand) accumulate(ctx Context, b Binding, agg *aggState) {
	ctx.Bill(CostEval)
	groupVals, key, ok := s.evalGroup(ctx, b, agg.evalBuf)
	agg.evalBuf = groupVals
	if !ok {
		return
	}
	i, ok := agg.index[key]
	if !ok {
		if agg.index == nil {
			agg.index = make(map[uint64]int)
		}
		i = len(agg.groups)
		agg.index[key] = i
		agg.groups = append(agg.groups, aggGroup{})
		agg.vals = append(agg.vals, groupVals...)
	}
	g := &agg.groups[i]
	g.count++
	var av tuple.Value
	if s.Agg.Slot >= 0 {
		av = b[s.Agg.Slot]
		if av.IsNil() {
			ctx.RuleError(s.RuleID, fmt.Errorf("aggregate variable unbound"))
			return
		}
	}
	switch s.Agg.Op {
	case "min":
		if g.minV.IsNil() || av.Compare(g.minV) < 0 {
			g.minV = av
			ctx.TraceWitness(s, i)
		}
	case "max":
		if g.maxV.IsNil() || av.Compare(g.maxV) > 0 {
			g.maxV = av
			ctx.TraceWitness(s, i)
		}
	case "sum", "avg":
		if !av.Numeric() {
			ctx.RuleError(s.RuleID, fmt.Errorf("sum/avg over non-numeric value"))
			return
		}
		g.sum += avFloat(av)
	}
}

func avFloat(v tuple.Value) float64 {
	switch v.Kind() {
	case tuple.KindInt:
		return float64(v.AsInt())
	case tuple.KindID:
		return float64(v.AsID())
	default:
		return v.AsFloat()
	}
}

// flushAgg emits one head tuple per group at the end of the activation.
func (s *Strand) flushAgg(ctx Context, agg *aggState) {
	if len(agg.groups) == 0 && s.Agg.EmitZero && s.Agg.Op == "count" {
		// All group variables were bound by the trigger: emit count 0
		// for that single group (snapshot rule sr9 relies on this).
		s.emitAggGroup(ctx, agg.zeroGroup, tuple.Int(0))
		return
	}
	for i := range agg.groups {
		g := &agg.groups[i]
		var v tuple.Value
		switch s.Agg.Op {
		case "count":
			v = tuple.Int(g.count)
		case "min":
			v = g.minV
		case "max":
			v = g.maxV
		case "sum":
			v = tuple.Float(g.sum)
		case "avg":
			v = tuple.Float(g.sum / float64(g.count))
		}
		if v.IsNil() {
			continue
		}
		s.emitAggGroup(ctx, agg.groupVals(s, i), v)
	}
}

// emitAggGroup reassembles the head tuple from group values plus the
// aggregate result.
func (s *Strand) emitAggGroup(ctx Context, groupVals []tuple.Value, av tuple.Value) {
	ctx.Bill(CostHead)
	fields := ctx.HeadFields(len(s.HeadArgs))
	j := 0
	for i := range s.HeadArgs {
		if i == s.Agg.ArgIndex {
			fields[i] = av
			continue
		}
		fields[i] = groupVals[j]
		j++
	}
	ctx.EmitHead(s, tuple.Tuple{Name: s.HeadName, Fields: fields}, s.IsDelete)
}
