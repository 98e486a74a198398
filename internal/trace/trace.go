// Package trace implements the execution-tracing facility of §2.1 of the
// paper: tracer records that correlate the tuples observed on strand taps
// (input, per-stage preconditions, output) into causal ruleExec tuples,
// the tupleTable that memoizes tuples by node-unique ID with cross-node
// provenance, and reference counting that flushes memoized tuples when
// their last ruleExec reference disappears.
//
// ruleExec, tupleTable and tupleLog are ordinary soft-state tables
// registered in the node's store, so OverLog queries — like the
// execution profiler of §3.2 — can read them like any other state. They
// are virtual, though: the tracer keeps the trace as typed records (ring)
// and a tuple memo, and builds the rows a table is missing when the
// table is read (table.SetSync). Tracing a node nobody queries builds no
// tuple.
package trace

import (
	"cmp"
	"slices"

	"p2go/internal/dataflow"
	"p2go/internal/table"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// Reflection table names.
const (
	RuleExecTable = "ruleExec"
	TupleTable    = "tupleTable"
	// TupleLogTable buffers system events — tuple arrivals and table
	// insertions/removals — as queryable tuples (§2.1: "Log entries are
	// tuples stored (more precisely, buffered) in P2 tables").
	TupleLogTable = "tupleLog"
)

// Config tunes the tracer's resource bounds (the optimizations §3.4
// mentions: bounded execution and log tables).
type Config struct {
	// RuleExecTTL is the lifetime of ruleExec rows in seconds.
	RuleExecTTL float64
	// RuleExecMax bounds the ruleExec table (oldest evicted).
	RuleExecMax int
	// TupleLogMax bounds the tupleLog event buffer (0 disables event
	// logging; rows also expire after RuleExecTTL).
	TupleLogMax int
}

// DefaultConfig mirrors the prototype's bounds.
func DefaultConfig() Config {
	return Config{RuleExecTTL: 120, RuleExecMax: 2500, TupleLogMax: 500}
}

// Tracer is the per-node tracing element. It is driven synchronously by
// the node's dataflow taps and is not safe for concurrent use.
type Tracer struct {
	local string

	// strs numbers every rule ID, predicate name, address and log op the
	// records below hold, so that they hold a fixed-width index. It only
	// grows, and only by what a node sees distinctly — its program's rule
	// IDs and predicate names, its peers' addresses, the log ops — so
	// Reset keeps it. Number 0 is "".
	strs tracestore.Dict

	// execs holds the ruleExec records; each holds one reference on the
	// memo entries of its two tuples and releases them when it dies.
	execs ring[execRec]
	// log holds the tupleLog records (no table: event logging disabled).
	log ring[logRec]

	// memo finds, by ID, the entry in slots of every tuple a live
	// ruleExec record references: predicate name and provenance — no
	// fields, like tupleTable — held by value and recycled through free.
	// tupleTable shows the entries in creation order: born numbers them,
	// and those up to tuplesBuilt have their row.
	memo        idTable
	slots       []memoEntry
	free        []uint32
	tuples      *table.Table
	born        uint64
	tuplesBuilt uint64
	fresh       []uint32 // scratch for fillTuples

	// pending holds provenance for tuples seen during the current task
	// that are not (yet) referenced. The node registers each ID once, in
	// the order its one counter issues them, so ID i sits at
	// pending[i-pending[0].id].
	pending []pendingProv

	// rec is the tracer record of the activation under way.
	rec record

	// store, when attached, receives every trace record as a durable
	// append — the forensic log that outlives the bounded soft state
	// above. onStore reports append/seal work for cost accounting.
	store   *tracestore.Store
	onStore func(appended, sealed int)
}

// prov is what the tracer is told of a tuple during its task: its
// predicate name (the string header the plan or the codec's intern table
// already holds) and where it came from. Never its fields, which belong
// to the task's arena. A memo entry keeps it as dictionary indices.
type prov struct {
	name  string
	src   string
	srcID uint64
	dst   string
}

type pendingProv struct {
	id uint64
	prov
}

// record is the tracer record (Figure 2) of the activation under way:
// its strand, the observed input and the last precondition per stage.
// The node runs one activation at a time, depth-first to completion, so
// one record serves every strand and no stage interval is needed to
// tell in-flight inputs apart (§2.1.2's matching of pipelined signals).
type record struct {
	s      *dataflow.Strand // nil between activations
	inID   uint64
	inTime float64
	in     uint32    // a memo slot hint for inID (see ref)
	pre    []precond // stage k's precondition is pre[k-1]
	// An aggregate activation's witnesses (Witness): when has[g],
	// aggregate group g's preconditions are wit[g*len(pre):][:len(pre)].
	// next is the first group whose output may still come.
	wit  []precond
	has  []bool
	next int
}

// precond is one stage's precondition. A row may carry tuple ID 0 (the
// node's epoch and the reflection rows do), so filled marks a slot in use.
type precond struct {
	id     uint64
	time   float64
	slot   uint32 // a memo slot hint for id (see ref)
	filled bool
}

// The records below are what the tracer keeps live, tens of thousands of
// them per node: each is fixed-width and holds no pointer, so the
// collector never scans them. Strings are dictionary indices, a memo
// entry's provenance too, and an exec record reads its tuple IDs from
// the memo entries it pins.

type memoEntry struct {
	id, srcID uint64
	born      uint64
	// lastOut is the newest ruleExec record whose effect is this tuple;
	// with execRec.prevOut it chains the records that can share a key.
	lastOut        uint64
	name, src, dst uint32 // dictionary indices
	refs           int32
}

// execRec is one ruleExec row in the making; the time it was appended at
// is the row's OutT. Its cause and effect IDs are those of the memo
// entries in and out, valid while the record is live (it holds a
// reference on each): only a live record may read them.
type execRec struct {
	inT     float64
	prevOut uint64 // previous record with the same effect, 0 if none
	rule    uint32 // dictionary index
	in, out uint32 // memo slots of the cause and the effect
	isEvent bool
}

// logRec is one tupleLog row in the making; its ring sequence number is
// the row's Seq.
type logRec struct {
	op, name uint32 // dictionary indices
	id       uint64
}

// New creates a tracer and materializes its reflection tables in store.
func New(store *table.Store, localAddr string, cfg Config) (*Tracer, error) {
	re, err := store.Materialize(table.Spec{
		Name:     RuleExecTable,
		Lifetime: cfg.RuleExecTTL,
		MaxSize:  cfg.RuleExecMax,
		// Key: rule, cause ID, effect ID, cause-was-event.
		Keys: []int{2, 3, 4, 7},
	})
	if err != nil {
		return nil, err
	}
	tt, err := store.Materialize(table.Spec{
		Name:     TupleTable,
		Lifetime: table.Infinity, // reference-counted, not TTL-driven
		MaxSize:  table.Infinity,
		Keys:     []int{2},
	})
	if err != nil {
		return nil, err
	}
	tr := &Tracer{local: localAddr, tuples: tt}
	tr.strs.ID("")
	// Reference counting: when a ruleExec record dies (TTL, eviction,
	// replacement or delete), release the tuples it referenced.
	tr.execs = newRing(re, tr.execRow, func(rec *execRec) {
		tr.release(rec.in)
		tr.release(rec.out)
	})
	re.SetSync(func(op table.SyncOp, now float64, t tuple.Tuple) {
		if op == table.SyncDeleted {
			tr.forgetExec(t)
			return
		}
		tr.execs.sync(op, now)
	})
	tt.SetSync(func(op table.SyncOp, _ float64, _ tuple.Tuple) {
		if op == table.SyncRead {
			tr.fillTuples()
		}
	})
	if cfg.TupleLogMax > 0 {
		tl, err := store.Materialize(table.Spec{
			Name:     TupleLogTable,
			Lifetime: cfg.RuleExecTTL,
			MaxSize:  cfg.TupleLogMax,
			Keys:     []int{2, 3, 4, 5},
		})
		if err != nil {
			return nil, err
		}
		tr.log = newRing(tl, tr.logRow, nil)
		tl.SetSync(func(op table.SyncOp, now float64, t tuple.Tuple) {
			if op == table.SyncDeleted {
				if t.Arity() >= 2 {
					tr.log.kill(t.Field(1).AsID())
				}
				return
			}
			tr.log.sync(op, now)
		})
	}
	return tr, nil
}

// AttachStore directs the tracer to write every trace record through
// the append-only store st as a durable side channel: exec edges, remote
// arrivals, and system events survive there after the bounded reflection
// tables above have flushed them. onStore, if non-nil, is invoked after
// each append with the records appended and the sealed-record count the
// append triggered (for cost accounting); it must not call back into
// the tracer.
func (tr *Tracer) AttachStore(st *tracestore.Store, onStore func(appended, sealed int)) {
	tr.store = st
	tr.onStore = onStore
}

// Store returns the attached trace store, or nil.
func (tr *Tracer) Store() *tracestore.Store { return tr.store }

func (tr *Tracer) noteStore(appended, sealed int) {
	if tr.onStore != nil {
		tr.onStore(appended, sealed)
	}
}

// Register records the provenance of a tuple the node just assigned an ID
// to: where it came from (src/srcID; the node itself for local tuples)
// and where it lives or is headed (dst). name is the tuple's predicate
// name, all the tracer keeps of its content; the registration is memoized
// only if a ruleExec row ends up referencing the ID. The node registers
// each ID once, in the order it issues them, so a registration is always
// new. Remote arrivals additionally append a hop record to the attached
// store — the durable cross-node provenance edge lineage queries follow.
func (tr *Tracer) Register(id uint64, name, src string, srcID uint64, dst string, now float64) {
	if tr.store != nil && src != "" && src != tr.local {
		sealed := tr.store.AppendHop(tracestore.Hop{ID: id, Src: src, SrcID: srcID, Dst: dst, T: now})
		tr.noteStore(1, sealed)
	}
	tr.pending = append(tr.pending, pendingProv{id, prov{name: name, src: src, srcID: srcID, dst: dst}})
}

// findPending returns the provenance registered for id in this task.
func (tr *Tracer) findPending(id uint64) (prov, bool) {
	p := tr.pending
	if n := uint64(len(p)); n > 0 && id-p[0].id < n { // unsigned: also false below p[0].id
		return p[id-p[0].id].prov, true
	}
	return prov{}, false
}

// TaskDone ends the task: the activation record, if any, and the
// provenance of tuples that ended it unreferenced are discarded.
func (tr *Tracer) TaskDone() {
	tr.rec.s = nil
	clear(tr.pending)
	tr.pending = tr.pending[:0]
}

// Input observes a tuple entering a rule strand: an activation starts,
// with a record of its own.
func (tr *Tracer) Input(s *dataflow.Strand, t tuple.Tuple, now float64) {
	r := &tr.rec
	r.s, r.inID, r.inTime, r.in = s, t.ID, now, noSlot
	if cap(r.pre) < s.Stages {
		r.pre = make([]precond, s.Stages)
	}
	r.pre = r.pre[:s.Stages]
	clear(r.pre)
	r.wit, r.has, r.next = r.wit[:0], r.has[:0], 0
}

// Precond observes a precondition tuple fetched by the join at the given
// stage. Fields to the right of the stage are flushed, per §2.1.1: a
// precondition arriving "in the middle" of the strand invalidates
// later-stage observations belonging to a previous iteration.
func (tr *Tracer) Precond(s *dataflow.Strand, stage int, t tuple.Tuple, now float64) {
	r := &tr.rec
	if r.s != s || stage < 1 || stage > len(r.pre) {
		return
	}
	r.pre[stage-1] = precond{id: t.ID, time: now, slot: noSlot, filled: true}
	clear(r.pre[stage:])
}

// Witness observes that the binding under way is aggregate group g's
// witness, the first binding to reach its extremum (a min or max): the
// group's output records the preconditions the record holds now.
func (tr *Tracer) Witness(s *dataflow.Strand, g int) {
	r := &tr.rec
	if r.s != s || g < 0 {
		return
	}
	n := len(r.pre)
	if k := g + 1 - len(r.has); k > 0 {
		r.has = append(r.has, make([]bool, k)...)
		r.wit = append(r.wit, make([]precond, k*n)...)
	}
	r.has[g] = true
	copy(r.wit[g*n:], r.pre)
}

// Output observes a head tuple produced by the strand and packages the
// activation's record into ruleExec rows: one causal link from the input
// event and one from each precondition the output records (lineage).
func (tr *Tracer) Output(s *dataflow.Strand, t tuple.Tuple, now float64) {
	r := &tr.rec
	if r.s != s {
		return
	}
	rule := tr.strs.ID(s.RuleID)
	// Each edge references its cause, then the effect, as addRef would;
	// the slots the first reference found serve the later ones.
	r.in = tr.ref(r.inID, r.in)
	out := tr.addRef(t.ID)
	tr.emitRuleExec(rule, r.in, out, r.inTime, now, true)
	lin := r.lineage()
	for k := range lin {
		if p := &lin[k]; p.filled {
			p.slot = tr.ref(p.id, p.slot)
			out = tr.ref(t.ID, out)
			tr.emitRuleExec(rule, p.slot, out, p.time, now, false)
		}
	}
}

// lineage returns the preconditions the output under way records. A
// rule without an aggregate records the last precondition per stage,
// the row each join bound for this binding. An aggregate's outputs come
// one per group, in group order, after the rescan (dataflow's flushAgg):
// a min or max output records the preconditions of the next group that
// has a witness, and a count, sum or avg output, whose groups have
// none, records no precondition: its cause is the whole group, and the
// input edge alone names the activation.
func (r *record) lineage() []precond {
	if r.s.Agg == nil {
		return r.pre
	}
	for r.next < len(r.has) {
		g := r.next
		r.next++
		if r.has[g] {
			n := len(r.pre)
			return r.wit[g*n : (g+1)*n]
		}
	}
	return nil
}

// emitRuleExec appends one ruleExec record from cause in to effect out,
// memo slots on which the caller took one reference each for it to keep,
// with table.Insert's semantics on the ruleExec key (rule, cause, effect,
// cause-was-event): expire, then replace a record with the same key, else
// append and evict the oldest beyond the bound. Killing records releases
// references; that is exactly the paper's flushing behaviour.
func (tr *Tracer) emitRuleExec(rule uint32, in, out uint32, inT, outT float64, isEvent bool) {
	inID, outID := tr.slots[in].id, tr.slots[out].id
	tr.execs.expire(outT)
	rec := execRec{rule: rule, inT: inT, isEvent: isEvent, in: in, out: out}
	old := tr.findExec(&rec)
	if s, _ := tr.execs.slot(old); s != nil && s.rec.inT == inT && s.at == outT {
		// The same row again: it keeps its place and (inserted at outT
		// both times) its expiry, and takes no second pair of references.
		tr.release(in)
		tr.release(out)
	} else {
		tr.execs.kill(old) // same key, other times: the new row replaces it
		rec.prevOut = tr.slots[out].lastOut
		seq := tr.execs.push(outT, rec)
		tr.slots[out].lastOut = seq
	}
	if tr.store != nil {
		sealed := tr.store.AppendExec(tracestore.Exec{
			Rule: tr.strs.Str(rule), InID: inID, OutID: outID, InT: inT, OutT: outT, IsEvent: isEvent,
		})
		tr.noteStore(1, sealed)
	}
}

// findExec returns the live record with rec's key, or 0. Records with
// equal keys have equal effects, so only the chain hanging off the
// effect's memo entry — the other causes of the same head tuple, a
// handful — needs looking at. Two live records pin their causes, so
// their causes are the same tuple exactly when their memo slots are; a
// dead record's slot may hold another tuple by now, and is not read.
func (tr *Tracer) findExec(rec *execRec) uint64 {
	seq := tr.slots[rec.out].lastOut
	for {
		s, dead := tr.execs.slot(seq)
		if s == nil {
			return 0
		}
		if o := &s.rec; !dead && o.in == rec.in && o.isEvent == rec.isEvent && o.rule == rec.rule {
			return seq
		}
		seq = s.rec.prevOut
	}
}

// forgetExec follows an explicit delete of ruleExec row t (an OverLog
// delete rule, say): the record behind it dies and releases its tuples.
func (tr *Tracer) forgetExec(t tuple.Tuple) {
	if t.Arity() < 7 {
		return
	}
	// A rule, cause or effect the tracer has no index or memo entry for
	// is in no live record.
	rule, ok := tr.strs.Lookup(t.Field(1).AsStr())
	_, in, inOK := tr.memo.find(tr.slots, t.Field(2).AsID())
	_, out, outOK := tr.memo.find(tr.slots, t.Field(3).AsID())
	if ok && inOK && outOK {
		rec := execRec{rule: rule, in: in, out: out, isEvent: t.Field(6).AsBool()}
		tr.execs.kill(tr.findExec(&rec))
	}
}

func (tr *Tracer) execRow(_ uint64, outT float64, r *execRec) tuple.Tuple {
	return tuple.New(RuleExecTable,
		tuple.Str(tr.local),
		tuple.Str(tr.strs.Str(r.rule)),
		tuple.ID(tr.slots[r.in].id),
		tuple.ID(tr.slots[r.out].id),
		tuple.Float(r.inT),
		tuple.Float(outT),
		tuple.Bool(r.isEvent),
	)
}

// noSlot is a memo slot hint that names no slot.
const noSlot = ^uint32(0)

// ref is addRef trying memo slot h first: a hint, taken only while its
// entry holds id and a reference (a released slot may hold another ID).
func (tr *Tracer) ref(id uint64, h uint32) uint32 {
	if h < uint32(len(tr.slots)) && tr.slots[h].id == id && tr.slots[h].refs > 0 {
		tr.slots[h].refs++
		return h
	}
	return tr.addRef(id)
}

// addRef takes one reference on tuple id, memoizing it on the first, and
// returns its memo slot.
func (tr *Tracer) addRef(id uint64) uint32 {
	cell, i, ok := tr.memo.find(tr.slots, id)
	if ok {
		tr.slots[i].refs++
		return i
	}
	p, ok := tr.findPending(id)
	if !ok {
		// Unregistered tuple (tracing enabled mid-flight): synthesize
		// local provenance.
		p = prov{src: tr.local, srcID: id, dst: tr.local}
	}
	if n := len(tr.free); n > 0 {
		i, tr.free = tr.free[n-1], tr.free[:n-1]
	} else {
		i = uint32(len(tr.slots))
		tr.slots = append(tr.slots, memoEntry{})
	}
	tr.born++
	tr.slots[i] = memoEntry{
		id: id, srcID: p.srcID, born: tr.born, refs: 1,
		name: tr.strs.ID(p.name), src: tr.strs.ID(p.src), dst: tr.strs.ID(p.dst),
	}
	tr.memo.put(tr.slots, cell, i)
	return i
}

// release drops one reference on memo slot i; the last one flushes the
// tuple from the memo and from tupleTable.
func (tr *Tracer) release(i uint32) {
	e := &tr.slots[i]
	if e.refs--; e.refs > 0 {
		return
	}
	p, _, _ := tr.memo.find(tr.slots, e.id)
	tr.memo.del(tr.slots, p)
	if e.born <= tr.tuplesBuilt {
		tr.tuples.DeleteKey(tr.tupleRow(&memoEntry{id: e.id}))
	}
	*e = memoEntry{}
	tr.free = append(tr.free, i)
}

func (tr *Tracer) tupleRow(e *memoEntry) tuple.Tuple {
	return tuple.New(TupleTable,
		tuple.Str(tr.local),
		tuple.ID(e.id),
		tuple.Str(tr.strs.Str(e.src)),
		tuple.ID(e.srcID),
		tuple.Str(tr.strs.Str(e.dst)),
	)
}

// fillTuples inserts the tupleTable rows of the memo entries created
// since the table was last read, oldest first (the order the eager
// inserts of a tupleTable kept live would have had).
func (tr *Tracer) fillTuples() {
	if tr.born == tr.tuplesBuilt {
		return
	}
	fresh := tr.fresh[:0]
	for i := range tr.slots {
		if e := &tr.slots[i]; e.refs > 0 && e.born > tr.tuplesBuilt {
			fresh = append(fresh, uint32(i))
		}
	}
	slices.SortFunc(fresh, func(a, b uint32) int { return cmp.Compare(tr.slots[a].born, tr.slots[b].born) })
	tr.tuplesBuilt = tr.born
	for _, i := range fresh {
		tr.tuples.Insert(tr.tupleRow(&tr.slots[i]), 0) //nolint:errcheck // name always matches
	}
	tr.fresh = fresh[:0]
}

// Name returns the predicate name of the memoized tuple with an ID, if
// still referenced ("" for one referenced without ever being registered).
func (tr *Tracer) Name(id uint64) (string, bool) {
	if _, i, ok := tr.memo.find(tr.slots, id); ok {
		return tr.strs.Str(tr.slots[i].name), true
	}
	return "", false
}

// Reset drops every piece of in-memory trace state — trace records,
// memoized provenance, pending registrations, the activation record —
// AND purges the trace reflection tables themselves. The engine calls it
// when a node restarts with soft-state loss: the records describe state
// the restart lost, and a memo entry outliving them would pin a tuple
// nothing refers to. The event-log sequence restarts. The attached trace
// store is deliberately NOT cleared — it is the forensic record that
// must survive the restart — but gets a "restart" marker so
// investigations can see the discontinuity.
func (tr *Tracer) Reset(now float64) {
	tr.execs.reset()
	tr.execs.tb.Clear()
	tr.tuples.Clear()
	if tr.log.tb != nil {
		tr.log.reset()
		tr.log.tb.Clear()
	}
	clear(tr.memo.cells)
	clear(tr.slots)
	tr.slots, tr.free = tr.slots[:0], tr.free[:0]
	tr.memo.n, tr.born, tr.tuplesBuilt = 0, 0, 0
	tr.TaskDone()
	if tr.store != nil {
		sealed := tr.store.AppendEvent(tracestore.Event{Op: "restart", Name: "", ID: 0, T: now})
		tr.noteStore(1, sealed)
	}
}

// MemoSize reports how many tuples are currently memoized (live trace
// tuples, part of the memory-overhead measurements).
func (tr *Tracer) MemoSize() int { return tr.memo.n }

// logged tables are never themselves logged (the log would feed itself).
func loggedName(name string) bool {
	switch name {
	case RuleExecTable, TupleTable, TupleLogTable:
		return false
	}
	return true
}

// LogEvent buffers one system event in tupleLog: op is "arrive",
// "insert", or "delete"; name and id identify the tuple (§2.1's event
// logging). The attached store gets the event even when the in-table
// buffer is disabled — durable event history does not depend on the
// soft-state budget.
func (tr *Tracer) LogEvent(op, name string, id uint64, now float64) {
	if !loggedName(name) {
		return
	}
	if tr.store != nil {
		sealed := tr.store.AppendEvent(tracestore.Event{Op: op, Name: name, ID: id, T: now})
		tr.noteStore(1, sealed)
	}
	if tr.log.tb == nil {
		return
	}
	tr.log.expire(now)
	tr.log.push(now, logRec{op: tr.strs.ID(op), name: tr.strs.ID(name), id: id})
}

func (tr *Tracer) logRow(seq uint64, at float64, r *logRec) tuple.Tuple {
	return tuple.New(TupleLogTable,
		tuple.Str(tr.local), tuple.ID(seq), tuple.Str(tr.strs.Str(r.op)),
		tuple.Str(tr.strs.Str(r.name)), tuple.ID(r.id), tuple.Float(at))
}
