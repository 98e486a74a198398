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
//
// Retraction moves nothing and allocates nothing. A retracted
// contribution stays in its group's arrays marked dead, and readers skip
// it: count reads the live count, min the first live entry of the
// ordered multiset, max the last live entry and then the first live
// entry of its value block. A group compacts its arrays in place once
// their dead entries pass half the live ones, so dead slack stays within
// what append growth leaves anyway. The rows a retraction looks up live
// in a slab with a free list, chained by content hash, and a freed slot
// keeps its group-key storage for the next row.
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
// exactly as the rescan path counts them). dead marks a retracted
// contribution that still holds its place.
type contrib struct {
	seq  uint64
	val  tuple.Value
	ord  int32
	dead bool
}

// maintGroup is the maintained state of one aggregation group.
type maintGroup struct {
	// vals are the group-by values (head args minus the aggregate).
	vals []tuple.Value
	// recs holds contributions in (seq, ord) order — the rescan's
	// first-encounter order. Appends are O(1): seqs are monotonic. live
	// counts its live entries, and recs[head] is the first of them.
	recs []contrib
	live int
	head int
	// byVal (min/max only) keeps non-nil contributions ordered by
	// (value, seq, ord), so the extremum with the rescan's
	// first-encountered tie-break is O(1) to read and O(log n) to find
	// on insert/delete. Dead entries keep their place, so the order
	// holds over the whole slice; its vlive live entries lie in
	// [vlo, vhi), with live entries at both ends.
	byVal    []contrib
	vlive    int
	vlo, vhi int
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
// against already-changed state. Rows live in AggMaint.slab; next chains
// the rows that share a content hash, or the free slots. Every row is
// the primary table's, so its fields identify it.
type aggRow struct {
	fields []tuple.Value
	groups []uint64 // group keys in contribution order (may repeat)
	seq    uint64
	next   int32
}

// noRow ends a slab chain.
const noRow int32 = -1

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
	// rows maps a primary row's content hash to the first slab slot of
	// its chain; free heads the chain of freed slots.
	rows map[uint64]int32
	slab []aggRow
	free int32
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
	return &AggMaint{s: s, free: noRow}
}

// Valid reports whether the accumulator currently mirrors the tables.
func (am *AggMaint) Valid() bool { return am.valid }

// Invalidate discards the maintained state; the next trigger rebuilds it
// by rescanning the primary table. Secondary-table changes and bulk
// clears (crash amnesia) land here. The storage stays for the rebuild to
// reuse.
func (am *AggMaint) Invalidate() {
	am.valid = false
}

// reset empties the accumulator, keeping its maps and its slab's
// storage: every slot goes back on the free list without its fields.
func (am *AggMaint) reset() {
	if am.groups == nil {
		am.groups = make(map[uint64]*maintGroup)
		am.rows = make(map[uint64]int32)
	}
	clear(am.groups)
	clear(am.rows)
	am.free = noRow
	for i := len(am.slab) - 1; i >= 0; i-- {
		am.releaseRow(int32(i))
	}
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
		am.applyInsert(ctx, t, ctx.Frame(am.s.NumVars))
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
	rec := contrib{seq: am.nextSeq, ord: int32(len(am.keys))}
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
	g.live++
}

// applyInsert runs the pipeline for one new primary row (ops[1:], the
// secondary joins/selections/assignments) and records its contributions.
// b is a zeroed binding frame.
func (am *AggMaint) applyInsert(ctx Context, t tuple.Tuple, b Binding) {
	s := am.s
	op0 := s.Ops[0].(*JoinOp)
	if !bindFields(b, t, op0.FieldSlots, op0.FieldConsts) {
		return
	}
	am.nextSeq++
	am.keys = am.keys[:0]
	s.exec(ctx, b, 1, am)
	if len(am.keys) > 0 {
		am.addRow(t)
	}
}

// addRow records row t, numbered nextSeq, as contributing to am.keys.
func (am *AggMaint) addRow(t tuple.Tuple) {
	i := am.free
	if i != noRow {
		am.free = am.slab[i].next
	} else {
		am.slab = append(am.slab, aggRow{})
		i = int32(len(am.slab) - 1)
	}
	r := &am.slab[i]
	r.fields, r.seq = t.Fields, am.nextSeq
	r.groups = append(r.groups, am.keys...) // a free slot's keys are empty
	h := t.Hash()
	r.next = noRow
	if first, ok := am.rows[h]; ok {
		r.next = first
	}
	am.rows[h] = i
}

// releaseRow puts slot i on the free list. It drops the row's fields and
// keeps its group-key storage for the next row.
func (am *AggMaint) releaseRow(i int32) {
	r := &am.slab[i]
	r.fields = nil
	r.groups = r.groups[:0]
	r.next = am.free
	am.free = i
}

// applyDelete retracts every contribution of a removed primary row.
func (am *AggMaint) applyDelete(t tuple.Tuple) {
	h := t.Hash()
	i, prev := noRow, noRow
	if first, ok := am.rows[h]; ok {
		for i = first; i != noRow && !(tuple.Tuple{Name: t.Name, Fields: am.slab[i].fields}).Equal(t); i = am.slab[i].next {
			prev = i
		}
	}
	if i == noRow {
		// Either the row contributed nothing, or it died while the
		// rebuild scan had not reached it yet (re-entrant expiry), so
		// the rebuild is redone.
		if am.rebuilding {
			am.poisoned = true
		}
		return
	}
	r := &am.slab[i]
	switch {
	case prev != noRow:
		am.slab[prev].next = r.next
	case r.next != noRow:
		am.rows[h] = r.next
	default:
		delete(am.rows, h)
	}
	for _, key := range r.groups {
		g := am.groups[key]
		if g == nil {
			continue // earlier iteration already emptied it
		}
		g.removeSeq(r.seq, am.s.Agg.Op)
		if g.live == 0 {
			delete(am.groups, key)
		}
	}
	am.releaseRow(i)
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

// byValInsert adds a live contribution to the ordered multiset. A dead
// entry right beside its place is overwritten (the order holds: it lies
// between the same neighbours); otherwise the tail shifts up one.
func (g *maintGroup) byValInsert(rec contrib) {
	i := sort.Search(len(g.byVal), func(i int) bool { return contribLess(rec, g.byVal[i]) })
	switch {
	case i > 0 && g.byVal[i-1].dead:
		i--
		g.byVal[i] = rec
	case i < len(g.byVal) && g.byVal[i].dead:
		g.byVal[i] = rec
	default:
		g.byVal = slices.Insert(g.byVal, i, rec)
		if g.vlo >= i {
			g.vlo++
		}
		if g.vhi > i {
			g.vhi++
		}
	}
	if g.vlive == 0 {
		g.vlo, g.vhi = i, i+1
	} else {
		g.vlo, g.vhi = min(g.vlo, i), max(g.vhi, i+1)
	}
	g.vlive++
}

// byValRemove marks rec's entry in the ordered multiset dead.
func (g *maintGroup) byValRemove(rec contrib) {
	i := sort.Search(len(g.byVal), func(i int) bool { return !contribLess(g.byVal[i], rec) })
	for ; i < len(g.byVal); i++ {
		if e := &g.byVal[i]; e.seq == rec.seq && e.ord == rec.ord && !e.dead {
			e.dead = true
			break
		}
	}
	if i == len(g.byVal) {
		return
	}
	g.vlive--
	if dead := len(g.byVal) - g.vlive; dead > g.vlive/2 {
		g.byVal, g.vlo, g.vhi = compactLive(g.byVal), 0, g.vlive
		return
	}
	for g.byVal[g.vlo].dead {
		g.vlo++
	}
	for g.byVal[g.vhi-1].dead {
		g.vhi--
	}
}

// compactLive moves a slice's live contributions to its front, in order,
// and clears the rest so the dead values can be collected.
func compactLive(cs []contrib) []contrib {
	n := 0
	for _, c := range cs {
		if !c.dead {
			cs[n] = c
			n++
		}
	}
	clear(cs[n:])
	return cs[:n]
}

// removeSeq retracts the contiguous block of contributions with the
// given row seq. A row that contributed to a group twice lists its key
// twice, so retracting an already dead block is a no-op.
func (g *maintGroup) removeSeq(seq uint64, aggOp string) {
	lo := sort.Search(len(g.recs), func(i int) bool { return g.recs[i].seq >= seq })
	for i := lo; i < len(g.recs) && g.recs[i].seq == seq; i++ {
		rec := &g.recs[i]
		if rec.dead {
			continue
		}
		rec.dead = true
		g.live--
		switch aggOp {
		case "min", "max":
			if !rec.val.IsNil() {
				g.byValRemove(*rec)
			}
		case "sum", "avg":
			if !rec.val.IsNil() {
				g.sumOK = false
			}
		}
	}
	if g.live == 0 {
		return // the caller drops the group
	}
	if dead := len(g.recs) - g.live; dead > g.live/2 {
		g.recs, g.head = compactLive(g.recs), 0
		return
	}
	for g.recs[g.head].dead {
		g.head++
	}
}

func (g *maintGroup) refold() {
	g.sum = 0
	for _, r := range g.recs {
		if !r.dead && !r.val.IsNil() {
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
		b := Binding(ctx.Frame(am.s.NumVars)) // one frame, cleared per row
		primary.Scan(ctx.Now(), func(row tuple.Tuple) {
			visited++
			clear(b)
			am.applyInsert(ctx, row, b)
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
		return tuple.Int(int64(g.live))
	case "min":
		if g.vlive == 0 {
			return tuple.Nil
		}
		return g.byVal[g.vlo].val
	case "max":
		if g.vlive == 0 {
			return tuple.Nil
		}
		top := g.byVal[g.vhi-1]
		// First-encountered among the maximal value block, matching the
		// rescan's strict-improvement update.
		i := sort.Search(g.vhi, func(i int) bool { return g.byVal[i].val.Compare(top.val) >= 0 })
		for g.byVal[i].dead {
			i++
		}
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
		return tuple.Float(g.sum / float64(g.live))
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
		a, b := x.recs[x.head], y.recs[y.head]
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
