// Incremental aggregate maintenance. An eligible aggregate strand (see
// the planner's analyzeAggMaint) does not rescan its backing table on
// every trigger: the engine keeps one persistent AggMaint per strand,
// updated in O(delta) from the primary table's insert/delete/expiry
// listeners, and the trigger merely filters and emits the maintained
// groups. Emission content and order are bit-identical to the rescan
// path: contributions are kept in the primary table's scan (insertion)
// order, min/max use a per-group ordered multiset so deletions and
// soft-state expiry are exact, and sum/avg re-fold in scan order after
// any deletion so float rounding matches a fresh rescan.
package dataflow

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"p2go/internal/table"
	"p2go/internal/tuple"
)

// contrib is one pipeline completion contributed by a primary-table row:
// seq orders rows by arrival (matching the table's scan order), ord
// orders the completions within one row's join expansion. val is the
// aggregated value (Nil for count<*> and for completions whose value was
// dropped by a RuleError, which still count toward count/avg support
// exactly as the rescan path counts them).
type contrib struct {
	seq uint64
	ord int
	val tuple.Value
}

// maintGroup is the maintained state of one aggregation group.
type maintGroup struct {
	// vals are the group-by values (head args minus the aggregate).
	vals []tuple.Value
	// recs holds contributions in (seq, ord) order — the rescan's
	// first-encounter order. Appends are O(1): seqs are monotonic.
	recs []contrib
	// byVal (min/max only) keeps non-nil contributions ordered by
	// (value, seq, ord), so the extremum with the rescan's
	// first-encountered tie-break is O(1) to read and O(log n) to find
	// on insert/delete.
	byVal []contrib
	// sum caches the left-fold of the numeric contributions in recs
	// order (sum/avg only). Deletions clear sumOK instead of
	// subtracting — float subtraction is not an exact inverse — and the
	// next emission re-folds in recs order, reproducing the rescan's
	// rounding exactly.
	sum   float64
	sumOK bool
}

// aggRow remembers what one live primary row contributed, so a delete or
// expiry notification can retract it without recomputing the pipeline
// against already-changed state.
type aggRow struct {
	t      tuple.Tuple
	seq    uint64
	groups []uint64 // group keys in contribution order (may repeat)
}

// AggMaint is the persistent per-strand accumulator. The engine creates
// one per maintainable strand, feeds it from table listeners, and drops
// it (unsubscribing the listeners) when the strand's query uninstalls.
type AggMaint struct {
	s     *Strand
	valid bool
	// rebuilding/poisoned guard the rebuild scan against re-entrant
	// deletions delivered for rows the scan has not reached yet.
	rebuilding bool
	poisoned   bool
	nextSeq    uint64
	groups     map[uint64]*maintGroup
	rows       map[uint64][]aggRow // primary-row content hash -> entries
	// evalBuf receives each completion's group values; only a new
	// group's are copied out. Nothing re-enters between the evaluation
	// and that copy, so one buffer per accumulator is enough; likewise
	// keys (the row applyInsert is expanding: its pipeline emits nothing)
	// and sel (emitGroups' selection: EmitHead runs no strand).
	evalBuf []tuple.Value
	keys    []uint64
	sel     []*maintGroup
}

// NewAggMaint creates an (invalid, empty) accumulator for s; the first
// trigger rebuilds it with a single rescan. s.AggPlan must be non-nil.
func NewAggMaint(s *Strand) *AggMaint {
	return &AggMaint{s: s}
}

// Valid reports whether the accumulator currently mirrors the tables.
func (am *AggMaint) Valid() bool { return am.valid }

// Invalidate discards the maintained state; the next trigger rebuilds it
// by rescanning the primary table. Secondary-table changes and bulk
// clears (crash amnesia) land here.
func (am *AggMaint) Invalidate() {
	am.valid = false
	am.groups = nil
	am.rows = nil
}

func (am *AggMaint) reset() {
	am.groups = make(map[uint64]*maintGroup)
	am.rows = make(map[uint64][]aggRow)
}

// Apply folds one primary-table change into the accumulator. OpClear
// invalidates; insert/delete maintain incrementally. No-op while the
// accumulator is invalid (the next trigger rescans anyway).
func (am *AggMaint) Apply(ctx Context, op table.Op, t tuple.Tuple) {
	if op == table.OpClear {
		am.Invalidate()
		return
	}
	if !am.valid && !am.rebuilding {
		return
	}
	switch op {
	case table.OpInsert:
		am.applyInsert(ctx, t)
	case table.OpDelete:
		am.applyDelete(t)
	}
}

// complete receives pipeline completions during applyInsert and the
// rebuild scan, recording each as a contribution of row nextSeq.
func (am *AggMaint) complete(s *Strand, ctx Context, b Binding) {
	ctx.Bill(CostEval) // parity with the rescan path's accumulate
	groupVals, key, ok := s.evalGroup(ctx, b, am.evalBuf)
	am.evalBuf = groupVals
	if !ok {
		return
	}
	g := am.groups[key]
	if g == nil {
		g = &maintGroup{vals: append([]tuple.Value(nil), groupVals...), sumOK: true}
		am.groups[key] = g
	}
	rec := contrib{seq: am.nextSeq, ord: len(am.keys)}
	am.keys = append(am.keys, key)
	av := tuple.Nil
	if s.Agg.Slot >= 0 {
		av = b[s.Agg.Slot]
		if av.IsNil() {
			// Mirror accumulate: the completion still counts toward the
			// group's support but contributes no value.
			ctx.RuleError(s.RuleID, fmt.Errorf("aggregate variable unbound"))
		}
	}
	switch s.Agg.Op {
	case "min", "max":
		rec.val = av
		if !av.IsNil() {
			g.byValInsert(rec)
		}
	case "sum", "avg":
		if !av.IsNil() && !av.Numeric() {
			ctx.RuleError(s.RuleID, fmt.Errorf("sum/avg over non-numeric value"))
			av = tuple.Nil
		}
		rec.val = av
		if !av.IsNil() && g.sumOK {
			g.sum += avFloat(av)
		}
	}
	g.recs = append(g.recs, rec)
}

// applyInsert runs the pipeline for one new primary row (ops[1:], the
// secondary joins/selections/assignments) and records its contributions.
func (am *AggMaint) applyInsert(ctx Context, t tuple.Tuple) {
	s := am.s
	op0 := s.Ops[0].(*JoinOp)
	b, pooled := s.acquireBinding()
	if bindFields(b, t, op0.FieldSlots, op0.FieldConsts, nil) {
		am.nextSeq++
		am.keys = nil // the last row's keys are that row's to keep
		s.exec(ctx, b, 1, am)
		if len(am.keys) > 0 {
			h := t.Hash()
			am.rows[h] = append(am.rows[h], aggRow{t: t, seq: am.nextSeq, groups: am.keys})
		}
	}
	if pooled {
		s.bindBusy = false
	}
}

// applyDelete retracts every contribution of a removed primary row.
func (am *AggMaint) applyDelete(t tuple.Tuple) {
	h := t.Hash()
	rows := am.rows[h]
	idx := -1
	for i := range rows {
		if rows[i].t.Equal(t) {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Either the row contributed nothing, or it died while the
		// rebuild scan had not reached it yet (re-entrant expiry), so
		// the rebuild is redone.
		if am.rebuilding {
			am.poisoned = true
		}
		return
	}
	r := rows[idx]
	am.rows[h] = append(rows[:idx:idx], rows[idx+1:]...)
	if len(am.rows[h]) == 0 {
		delete(am.rows, h)
	}
	for _, key := range r.groups {
		g := am.groups[key]
		if g == nil {
			continue // earlier iteration already emptied it
		}
		g.removeSeq(r.seq, am.s.Agg.Op)
		if len(g.recs) == 0 {
			delete(am.groups, key)
		}
	}
}

func contribLess(a, b contrib) bool {
	if c := a.val.Compare(b.val); c != 0 {
		return c < 0
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.ord < b.ord
}

func (g *maintGroup) byValInsert(rec contrib) {
	i := sort.Search(len(g.byVal), func(i int) bool { return contribLess(rec, g.byVal[i]) })
	g.byVal = append(g.byVal, contrib{})
	copy(g.byVal[i+1:], g.byVal[i:])
	g.byVal[i] = rec
}

func (g *maintGroup) byValRemove(rec contrib) {
	i := sort.Search(len(g.byVal), func(i int) bool { return !contribLess(g.byVal[i], rec) })
	for ; i < len(g.byVal); i++ {
		if g.byVal[i].seq == rec.seq && g.byVal[i].ord == rec.ord {
			g.byVal = append(g.byVal[:i], g.byVal[i+1:]...)
			return
		}
	}
}

// removeSeq retracts the contiguous block of contributions with the
// given row seq.
func (g *maintGroup) removeSeq(seq uint64, aggOp string) {
	lo := sort.Search(len(g.recs), func(i int) bool { return g.recs[i].seq >= seq })
	hi := lo
	for hi < len(g.recs) && g.recs[hi].seq == seq {
		rec := g.recs[hi]
		switch aggOp {
		case "min", "max":
			if !rec.val.IsNil() {
				g.byValRemove(rec)
			}
		case "sum", "avg":
			if !rec.val.IsNil() {
				g.sumOK = false
			}
		}
		hi++
	}
	g.recs = append(g.recs[:lo], g.recs[hi:]...)
}

func (g *maintGroup) refold() {
	g.sum = 0
	for _, r := range g.recs {
		if !r.val.IsNil() {
			g.sum += avFloat(r.val)
		}
	}
	g.sumOK = true
}

// runTrigger is the maintained replacement for the rescan: discover TTL
// expiry at the trigger instant (streamed into the accumulator by the
// listeners), rebuild by a single rescan if invalidated, then filter and
// emit the maintained groups. Called from Strand.runAgg with the trigger
// binding b and the activation's empty aggregation state, which carries
// the pre-evaluated EmitZero group and serves the rescan fallback.
func (am *AggMaint) runTrigger(ctx Context, b Binding, agg *aggState) {
	s := am.s
	ctx.Bill(CostAggEmit)
	primary := ctx.Table(s.AggPlan.Primary)
	if primary == nil {
		// Matches the rescan path's behaviour when the table is gone.
		ctx.RuleError(s.RuleID, fmt.Errorf("join against unmaterialized table %s", s.AggPlan.Primary))
		return
	}
	primary.Expire(ctx.Now())
	for _, name := range s.AggPlan.Secondaries {
		if tb := ctx.Table(name); tb != nil {
			tb.Expire(ctx.Now())
		}
	}
	if !am.valid {
		am.rebuild(ctx, primary)
	}
	if !am.valid {
		// Pathological churn kept invalidating the rebuild: fall back
		// to a plain rescan for this activation.
		s.exec(ctx, b, 0, agg)
		s.flushAgg(ctx, agg)
		return
	}
	am.emitGroups(ctx, b, agg.zeroGroup)
}

// rebuild reconstructs the accumulator with one rescan of the primary
// table, processing rows in scan order exactly as if each were a fresh
// insert. Re-entrant invalidation or deletion during the scan retries;
// after a few failed attempts the accumulator stays invalid and the
// trigger falls back to a rescan.
func (am *AggMaint) rebuild(ctx Context, primary *table.Table) {
	for attempt := 0; attempt < 3; attempt++ {
		am.reset()
		am.valid = true
		am.rebuilding = true
		am.poisoned = false
		ctx.Bill(CostJoinSetup)
		visited := 0
		primary.Scan(ctx.Now(), func(row tuple.Tuple) {
			visited++
			am.applyInsert(ctx, row)
		})
		ctx.Bill(float64(visited) * CostJoinProbe)
		am.rebuilding = false
		if am.valid && !am.poisoned {
			return
		}
	}
	am.Invalidate()
}

// passes applies the emission-time group filter against the trigger
// binding (the maintained equivalent of the rescan's trigger-bound join
// constraints).
func (am *AggMaint) passes(g *maintGroup, b Binding) bool {
	for _, f := range am.s.AggPlan.Filter {
		if !g.vals[f.GroupIdx].Equal(b[f.Slot]) {
			return false
		}
	}
	return true
}

// valueOf computes the group's aggregate value (Nil = nothing to emit,
// matching flushAgg's skip).
func (am *AggMaint) valueOf(g *maintGroup) tuple.Value {
	switch am.s.Agg.Op {
	case "count":
		return tuple.Int(int64(len(g.recs)))
	case "min":
		if len(g.byVal) == 0 {
			return tuple.Nil
		}
		return g.byVal[0].val
	case "max":
		if len(g.byVal) == 0 {
			return tuple.Nil
		}
		top := g.byVal[len(g.byVal)-1]
		// First-encountered among the maximal value block, matching the
		// rescan's strict-improvement update.
		i := sort.Search(len(g.byVal), func(i int) bool { return g.byVal[i].val.Compare(top.val) >= 0 })
		return g.byVal[i].val
	case "sum":
		if !g.sumOK {
			g.refold()
		}
		return tuple.Float(g.sum)
	case "avg":
		if !g.sumOK {
			g.refold()
		}
		return tuple.Float(g.sum / float64(len(g.recs)))
	}
	return tuple.Nil
}

// emitGroups emits the groups passing the trigger filter in the rescan's
// first-encounter order (ascending first live contribution).
func (am *AggMaint) emitGroups(ctx Context, b Binding, zero []tuple.Value) {
	s := am.s
	sel := am.sel[:0]
	for _, g := range am.groups {
		if am.passes(g, b) {
			sel = append(sel, g)
		}
	}
	if len(sel) == 0 {
		if s.Agg.EmitZero && s.Agg.Op == "count" {
			s.emitAggGroup(ctx, zero, tuple.Int(0))
		}
		return
	}
	// A contribution belongs to one group, so (seq, ord) is a total order.
	slices.SortFunc(sel, func(x, y *maintGroup) int {
		a, b := x.recs[0], y.recs[0]
		return cmp.Or(cmp.Compare(a.seq, b.seq), cmp.Compare(a.ord, b.ord))
	})
	for _, g := range sel {
		v := am.valueOf(g)
		if v.IsNil() {
			continue
		}
		s.emitAggGroup(ctx, g.vals, v)
	}
	clear(sel) // a group deleted later must not stay pinned here
	am.sel = sel[:0]
}
