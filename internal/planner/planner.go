// Package planner translates parsed OverLog rules into executable
// dataflow strands (Figure 1 of the paper): it performs the delta
// rewrite, assigns variable slots, orders join/selection/assignment
// elements, and numbers the stateful stages the execution tracer taps.
//
// Triggering semantics, following P2:
//
//   - A rule body may contain at most one event predicate (a predicate
//     that is not materialized); that event triggers the single strand.
//     The built-in periodic@N(E, T[, Count]) is an event driven by a
//     node-local timer.
//   - A rule whose body predicates are all materialized produces one
//     strand per body predicate, each triggered by insertions into that
//     table (the delta rewrite).
//   - Aggregate rules recompute their aggregate on every trigger. For a
//     delta trigger, the triggering tuple contributes only its group-by
//     bindings and the table is rescanned, so the emitted aggregate
//     covers the whole group, not just the new row.
package planner

import (
	"fmt"

	"p2go/internal/dataflow"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// Env tells the planner which predicates are materialized tables on the
// node where the rule will run.
type Env interface {
	IsMaterialized(name string) bool
}

// EnvFunc adapts a function to Env.
type EnvFunc func(name string) bool

// IsMaterialized implements Env.
func (f EnvFunc) IsMaterialized(name string) bool { return f(name) }

// FilledOnRead reports whether name is one of the engine's or the
// tracer's reflection tables, which their owner fills only when they are
// read (table.SetSync). Nothing inserts into them through the dataflow,
// so they have no deltas: a strand they would trigger never fires, a
// maintained aggregate never sees them change, and a cluster leaf over
// one must run on a tick.
func FilledOnRead(name string) bool {
	switch name {
	case "ruleTable", "tableTable", "queryTable", "nodeStats", "queryStats",
		"ruleExec", "tupleTable", "tupleLog":
		return true
	}
	return false
}

// CompileRule compiles one rule into its immutable shared plans. Plans
// carry no query tag or execution state; callers instantiate them per
// node with Plan.Instantiate ("plan once, instantiate N times"). Given
// the same rule, environment answers, and label sequence, compilation is
// deterministic, so a shared plan and one compiled on the node itself are
// structurally identical.
func CompileRule(r *overlog.Rule, env Env, labelGen func() string) ([]*dataflow.Plan, error) {
	label := r.Label
	if label == "" {
		label = labelGen()
	}
	preds := r.Predicates()
	if len(preds) == 0 {
		return nil, fmt.Errorf("planner: rule %s has no body predicates", label)
	}

	var eventIdx []int
	for i, p := range preds {
		if p.Name == "periodic" || !env.IsMaterialized(p.Name) {
			eventIdx = append(eventIdx, i)
		}
	}
	if len(eventIdx) > 1 {
		return nil, fmt.Errorf("planner: rule %s joins two event predicates (%s, %s); events cannot be joined — materialize one of them",
			label, preds[eventIdx[0]].Name, preds[eventIdx[1]].Name)
	}

	if len(eventIdx) == 1 {
		s, err := buildStrand(r, label, env, preds, eventIdx[0], false)
		if err != nil {
			return nil, err
		}
		return []*dataflow.Plan{s}, nil
	}
	// Delta rewrite: one strand per (distinct) body predicate position.
	plans := make([]*dataflow.Plan, 0, len(preds))
	for i := range preds {
		s, err := buildStrand(r, label, env, preds, i, true)
		if err != nil {
			return nil, err
		}
		plans = append(plans, s)
	}
	return plans, nil
}

// vars assigns slots to variable names in first-appearance order.
type varTable struct {
	slots map[string]int
	names []string
}

func newVarTable() *varTable { return &varTable{slots: map[string]int{}} }

func (vt *varTable) slot(name string) int {
	if s, ok := vt.slots[name]; ok {
		return s
	}
	s := len(vt.names)
	vt.slots[name] = s
	vt.names = append(vt.names, name)
	return s
}

func (vt *varTable) has(name string) bool {
	_, ok := vt.slots[name]
	return ok
}

// fieldPattern converts functor arguments into per-field slots and
// constants.
func fieldPattern(args []overlog.Expr, vt *varTable, bindOnly map[string]bool) (slots []int, consts []tuple.Value, err error) {
	slots = make([]int, len(args))
	consts = make([]tuple.Value, len(args))
	for i, a := range args {
		slots[i] = -1
		switch x := a.(type) {
		case *overlog.Var:
			if bindOnly != nil && !bindOnly[x.Name] {
				continue // trigger of an aggregate delta: skip non-group vars
			}
			slots[i] = vt.slot(x.Name)
		case *overlog.Lit:
			consts[i] = x.Val
			if consts[i].IsNil() {
				return nil, nil, fmt.Errorf("nil constant in predicate argument")
			}
		case *overlog.Wildcard:
			// stays -1
		default:
			return nil, nil, fmt.Errorf("unsupported predicate argument %s", a.String())
		}
	}
	return slots, consts, nil
}

func buildStrand(r *overlog.Rule, label string, env Env, preds []*overlog.Functor, trigIdx int, delta bool) (*dataflow.Plan, error) {
	s := &dataflow.Plan{
		RuleID:   label,
		Source:   r.String(),
		HeadName: r.Head.Name,
		IsDelete: r.Delete,
	}
	vt := newVarTable()
	trig := preds[trigIdx]

	// Aggregate spec (validated by the parser: at most one).
	var aggExpr *overlog.Agg
	aggIdx := -1
	headAll := r.Head.AllArgs()
	for i, a := range headAll {
		if ag, ok := a.(*overlog.Agg); ok {
			aggExpr, aggIdx = ag, i
		}
	}

	// Trigger pattern. For aggregate delta strands, the trigger binds
	// only group-by variables; everything else comes from the rescan.
	var bindOnly map[string]bool
	aggDelta := aggExpr != nil && delta
	if aggDelta {
		bindOnly = map[string]bool{}
		for i, a := range headAll {
			if i == aggIdx {
				continue
			}
			for v := range overlog.Vars(a) {
				bindOnly[v] = true
			}
		}
	}
	trigSlots, trigConsts, err := fieldPattern(trig.AllArgs(), vt, bindOnly)
	if err != nil {
		return nil, fmt.Errorf("planner: rule %s trigger %s: %w", label, trig.Name, err)
	}
	s.Trigger = dataflow.Trigger{
		Name:        trig.Name,
		FieldSlots:  trigSlots,
		FieldConsts: trigConsts,
	}
	switch {
	case trig.Name == "periodic":
		s.Trigger.Kind = dataflow.TriggerPeriodic
		if err := planPeriodic(&s.Trigger, trig); err != nil {
			return nil, fmt.Errorf("planner: rule %s: %w", label, err)
		}
	case delta:
		s.Trigger.Kind = dataflow.TriggerDelta
	default:
		s.Trigger.Kind = dataflow.TriggerEvent
	}

	// Body compilation: predicates become joins in source order (the
	// trigger occurrence is skipped except in aggregate delta strands,
	// which rescan their own table); conditions and assignments are
	// placed at the earliest point their variables are bound.
	type pending struct {
		term overlog.BodyTerm
	}
	var waiting []pending
	stage := 0

	tryPlacePending := func() error {
		progress := true
		for progress {
			progress = false
			for i := 0; i < len(waiting); i++ {
				switch t := waiting[i].term.(type) {
				case *overlog.Cond:
					if allBound(overlog.Vars(t.Expr), vt) {
						s.Ops = append(s.Ops, &dataflow.CondOp{Expr: t.Expr})
						waiting = append(waiting[:i], waiting[i+1:]...)
						progress, i = true, i-1
					}
				case *overlog.Assign:
					if allBound(overlog.Vars(t.Expr), vt) {
						if vt.has(t.Var) {
							return fmt.Errorf("planner: rule %s: %s is already bound; := binds fresh variables only", label, t.Var)
						}
						slot := vt.slot(t.Var)
						s.Ops = append(s.Ops, &dataflow.AssignOp{Slot: slot, Expr: t.Expr})
						waiting = append(waiting[:i], waiting[i+1:]...)
						progress, i = true, i-1
					}
				}
			}
		}
		return nil
	}

	trigSeen := false
	for _, term := range r.Body {
		switch t := term.(type) {
		case *overlog.Pred:
			isTrig := &t.Functor == trig
			if isTrig {
				trigSeen = true
			}
			if isTrig && !aggDelta {
				// Trigger already bound; nothing to join.
				if err := tryPlacePending(); err != nil {
					return nil, err
				}
				continue
			}
			if t.Name == "periodic" {
				return nil, fmt.Errorf("planner: rule %s: periodic cannot be joined", label)
			}
			if !env.IsMaterialized(t.Name) && !isTrig {
				return nil, fmt.Errorf("planner: rule %s: predicate %s is neither materialized nor the trigger", label, t.Name)
			}
			// Snapshot which variables are bound before this join so
			// the dataflow can probe an index over the bound fields.
			boundBefore := map[string]bool{}
			for name := range vt.slots {
				boundBefore[name] = true
			}
			slots, consts, err := fieldPattern(t.AllArgs(), vt, nil)
			if err != nil {
				return nil, fmt.Errorf("planner: rule %s predicate %s: %w", label, t.Name, err)
			}
			var indexPos []int
			for fi, a := range t.AllArgs() {
				switch x := a.(type) {
				case *overlog.Lit:
					indexPos = append(indexPos, fi)
				case *overlog.Var:
					if boundBefore[x.Name] {
						indexPos = append(indexPos, fi)
					}
				}
			}
			stage++
			s.Ops = append(s.Ops, &dataflow.JoinOp{
				Table:          t.Name,
				Stage:          stage,
				FieldSlots:     slots,
				FieldConsts:    consts,
				IndexPositions: indexPos,
			})
		case *overlog.Cond, *overlog.Assign:
			waiting = append(waiting, pending{term: term})
		}
		if err := tryPlacePending(); err != nil {
			return nil, err
		}
	}
	_ = trigSeen
	if err := tryPlacePending(); err != nil {
		return nil, err
	}
	if len(waiting) > 0 {
		return nil, fmt.Errorf("planner: rule %s: term %q uses variables never bound by a predicate",
			label, waiting[0].term.String())
	}
	s.Stages = stage

	// Head arguments. Non-delete rules need every head variable bound;
	// delete rules treat unbound head variables as wildcards.
	s.HeadArgs = headAll
	for i, a := range headAll {
		if i == aggIdx {
			continue
		}
		for v := range overlog.Vars(a) {
			if !vt.has(v) {
				if r.Delete {
					continue
				}
				return nil, fmt.Errorf("planner: rule %s: head variable %s is unbound", label, v)
			}
		}
	}
	if aggExpr != nil {
		spec := &dataflow.AggSpec{Op: aggExpr.Op, ArgIndex: aggIdx, Slot: -1}
		if aggExpr.Var != "" {
			if !vt.has(aggExpr.Var) {
				return nil, fmt.Errorf("planner: rule %s: aggregate variable %s is unbound", label, aggExpr.Var)
			}
			spec.Slot = vt.slots[aggExpr.Var]
		} else if aggExpr.Op != "count" {
			return nil, fmt.Errorf("planner: rule %s: %s<*> is not meaningful", label, aggExpr.Op)
		}
		// count-zero emission is possible when every group-by variable
		// is bound directly by the trigger pattern.
		if spec.Op == "count" {
			spec.EmitZero = true
			trigBound := map[int]bool{}
			for _, slot := range trigSlots {
				if slot >= 0 {
					trigBound[slot] = true
				}
			}
			for i, a := range headAll {
				if i == aggIdx {
					continue
				}
				for v := range overlog.Vars(a) {
					if !vt.has(v) || !trigBound[vt.slots[v]] {
						spec.EmitZero = false
					}
				}
			}
		}
		s.Agg = spec
	}

	s.NumVars = len(vt.names)
	s.VarNames = vt.names
	if aggDelta && s.Agg != nil {
		s.AggPlan = analyzeAggMaint(s, headAll, aggIdx)
	}
	s.Compile()
	return s, nil
}

// analyzeAggMaint decides whether an aggregate delta strand is eligible
// for incremental maintenance and, if so, builds its AggPlan. The
// maintained accumulator evaluates the pipeline without the trigger
// binding, so eligibility demands that the pipeline be self-sufficient
// and that the trigger's only influence — equality constraints on
// group-by variables — be recoverable at emission time:
//
//   - the strand's first op is the rescan join of the trigger table
//     itself (the primary), and the primary is not self-joined;
//   - simulated from an empty binding, every condition, assignment and
//     head argument sees only variables bound by earlier joins/assigns;
//   - every trigger-bound slot appears as a bare head argument, giving
//     the emission-time filter (group value = trigger value) that
//     replaces the rescan's trigger-bound join unification;
//   - all expressions are pure (f_now/f_rand/f_randID would make cached
//     contributions diverge from a fresh rescan);
//   - the rule is not a delete rule (wildcard head semantics).
//
// Ineligible strands keep the per-activation rescan; semantics are
// identical either way.
func analyzeAggMaint(s *dataflow.Plan, headAll []overlog.Expr, aggIdx int) *dataflow.AggPlan {
	if s.IsDelete || len(s.Ops) == 0 {
		return nil
	}
	op0, ok := s.Ops[0].(*dataflow.JoinOp)
	if !ok || op0.Table != s.Trigger.Name {
		return nil
	}
	nameSlot := map[string]int{}
	for i, nm := range s.VarNames {
		nameSlot[nm] = i
	}
	// Boundness simulation without the trigger binding.
	bound := make([]bool, s.NumVars)
	allBoundSlots := func(vars map[string]bool) bool {
		for v := range vars {
			if !bound[nameSlot[v]] {
				return false
			}
		}
		return true
	}
	seen := map[string]bool{}
	var secondaries []string
	for _, op := range s.Ops {
		switch o := op.(type) {
		case *dataflow.JoinOp:
			if op != s.Ops[0] {
				if o.Table == op0.Table {
					return nil // self-join on the primary
				}
				if !seen[o.Table] {
					seen[o.Table] = true
					secondaries = append(secondaries, o.Table)
				}
			}
			for _, slot := range o.FieldSlots {
				if slot >= 0 {
					bound[slot] = true
				}
			}
		case *dataflow.CondOp:
			if !pureExpr(o.Expr) || !allBoundSlots(overlog.Vars(o.Expr)) {
				return nil
			}
		case *dataflow.AssignOp:
			if !pureExpr(o.Expr) || !allBoundSlots(overlog.Vars(o.Expr)) {
				return nil
			}
			bound[o.Slot] = true
		}
	}
	for i, a := range headAll {
		if i == aggIdx {
			continue
		}
		if !pureExpr(a) || !allBoundSlots(overlog.Vars(a)) {
			return nil
		}
	}
	// Emission-time filter: every trigger-bound slot must be a bare head
	// argument so its group value can be compared against the trigger.
	var filter []dataflow.AggFilterPos
	filtered := map[int]bool{}
	for _, slot := range s.Trigger.FieldSlots {
		if slot < 0 || filtered[slot] {
			continue
		}
		gi := -1
		j := 0
		for i, a := range headAll {
			if i == aggIdx {
				continue
			}
			if v, ok := a.(*overlog.Var); ok && nameSlot[v.Name] == slot {
				gi = j
				break
			}
			j++
		}
		if gi < 0 {
			return nil
		}
		filtered[slot] = true
		filter = append(filter, dataflow.AggFilterPos{GroupIdx: gi, Slot: slot})
	}
	return &dataflow.AggPlan{Primary: op0.Table, Secondaries: secondaries, Filter: filter}
}

// pureExpr reports whether an expression is free of impure builtins
// (whose value depends on when they run rather than on their inputs).
func pureExpr(e overlog.Expr) bool {
	switch x := e.(type) {
	case *overlog.Call:
		switch x.Name {
		case "f_now", "f_rand", "f_randID":
			return false
		}
		for _, a := range x.Args {
			if !pureExpr(a) {
				return false
			}
		}
	case *overlog.Unary:
		return pureExpr(x.X)
	case *overlog.Binary:
		return pureExpr(x.L) && pureExpr(x.R)
	case *overlog.ListExpr:
		for _, el := range x.Elems {
			if !pureExpr(el) {
				return false
			}
		}
	case *overlog.RangeExpr:
		return pureExpr(x.X) && pureExpr(x.Lo) && pureExpr(x.Hi)
	}
	return true
}

func allBound(vars map[string]bool, vt *varTable) bool {
	for v := range vars {
		if !vt.has(v) {
			return false
		}
	}
	return true
}

// planPeriodic validates periodic@N(E, T[, Count]) and extracts the
// period and optional firing count.
func planPeriodic(trig *dataflow.Trigger, f *overlog.Functor) error {
	args := f.AllArgs()
	if len(args) != 3 && len(args) != 4 {
		return fmt.Errorf("periodic wants (E, Period) or (E, Period, Count) plus location")
	}
	lit, ok := args[2].(*overlog.Lit)
	if !ok {
		return fmt.Errorf("periodic period must be a constant")
	}
	switch lit.Val.Kind() {
	case tuple.KindInt:
		trig.Period = float64(lit.Val.AsInt())
	case tuple.KindFloat:
		trig.Period = lit.Val.AsFloat()
	default:
		return fmt.Errorf("periodic period must be numeric")
	}
	if trig.Period <= 0 {
		return fmt.Errorf("periodic period must be positive")
	}
	if len(args) == 4 {
		lit, ok := args[3].(*overlog.Lit)
		if !ok || lit.Val.Kind() != tuple.KindInt {
			return fmt.Errorf("periodic count must be an integer constant")
		}
		trig.Count = int(lit.Val.AsInt())
	}
	return nil
}
