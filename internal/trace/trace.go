// Package trace implements the execution-tracing facility of §2.1 of the
// paper: tracer records that correlate the tuples observed on strand taps
// (input, per-stage preconditions, output) into causal ruleExec tuples,
// the tupleTable that memoizes tuples by node-unique ID with cross-node
// provenance, and reference counting that flushes memoized tuples when
// their last ruleExec reference disappears.
//
// Both ruleExec and tupleTable are ordinary soft-state tables registered
// in the node's store, so OverLog queries — like the execution profiler
// of §3.2 — can read them like any other state.
package trace

import (
	"fmt"

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
// mentions: a fixed number of execution records, bounded log tables).
type Config struct {
	// RuleExecTTL is the lifetime of ruleExec rows in seconds.
	RuleExecTTL float64
	// RuleExecMax bounds the ruleExec table (oldest evicted).
	RuleExecMax int
	// RecordsPerStrand caps concurrent tracer records per rule strand.
	RecordsPerStrand int
	// TupleLogMax bounds the tupleLog event buffer (0 disables event
	// logging; rows also expire after RuleExecTTL).
	TupleLogMax int
}

// DefaultConfig mirrors the prototype's bounds.
func DefaultConfig() Config {
	return Config{RuleExecTTL: 120, RuleExecMax: 2500, RecordsPerStrand: 8, TupleLogMax: 500}
}

// Tracer is the per-node tracing element. It is driven synchronously by
// the node's dataflow taps and is not safe for concurrent use.
type Tracer struct {
	local    string
	cfg      Config
	ruleExec *table.Table
	tuples   *table.Table

	// memo maps tuple IDs to their content and provenance while
	// referenced from ruleExec.
	memo map[uint64]*memoEntry
	// pending holds provenance for tuples seen during the current task
	// that are not (yet) referenced.
	pending map[uint64]prov

	records map[*dataflow.Strand][]*record

	// tupleLog buffers arrival/insert/delete events (nil = disabled).
	tupleLog *table.Table
	seq      uint64

	// pool recycles records across restarts (Reset returns them here).
	pool []*record

	// store, when attached, receives every trace record as a durable
	// append — the forensic log that outlives the bounded soft-state
	// tables above. onStore reports append/seal work for cost
	// accounting.
	store   *tracestore.Store
	onStore func(appended, sealed int)
}

type prov struct {
	content tuple.Tuple
	src     string
	srcID   uint64
	dst     string
}

type memoEntry struct {
	prov
	refs int
}

// record is one tracer record (Figure 2): the observed input, the last
// precondition per stage, and the associated stage interval used to match
// pipelined signals (§2.1.2).
type record struct {
	active bool
	inID   uint64
	inTime float64
	pre    []precond
	first  int // first associated stage (1-based)
	last   int // last associated stage; first > last means "no stage"
}

type precond struct {
	filled bool
	id     uint64
	time   float64
}

// New creates a tracer and materializes its reflection tables in store.
func New(store *table.Store, localAddr string, cfg Config) (*Tracer, error) {
	if cfg.RecordsPerStrand <= 0 {
		cfg.RecordsPerStrand = 8
	}
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
	tr := &Tracer{
		local:    localAddr,
		cfg:      cfg,
		ruleExec: re,
		tuples:   tt,
		memo:     make(map[uint64]*memoEntry),
		pending:  make(map[uint64]prov),
		records:  make(map[*dataflow.Strand][]*record),
	}
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
		tr.tupleLog = tl
	}
	// Reference counting: when a ruleExec row dies (TTL or eviction),
	// release the tuples it referenced.
	re.Subscribe(func(op table.Op, t tuple.Tuple) {
		if op != table.OpDelete || t.Arity() < 7 {
			return
		}
		tr.release(t.Field(2).AsID())
		tr.release(t.Field(3).AsID())
	})
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
// and where it lives or is headed (dst). Content is memoized only if a
// ruleExec row ends up referencing the ID. Remote arrivals additionally
// append a hop record to the attached store — the durable cross-node
// provenance edge lineage queries follow.
func (tr *Tracer) Register(id uint64, content tuple.Tuple, src string, srcID uint64, dst string, now float64) {
	if tr.store != nil && src != "" && src != tr.local {
		sealed := tr.store.AppendHop(tracestore.Hop{ID: id, Src: src, SrcID: srcID, Dst: dst, T: now})
		tr.noteStore(1, sealed)
	}
	if _, ok := tr.memo[id]; ok {
		return
	}
	tr.pending[id] = prov{content: content, src: src, srcID: srcID, dst: dst}
}

// TaskDone discards provenance for tuples that ended the task
// unreferenced. Records persist across tasks (bounded per strand).
func (tr *Tracer) TaskDone() {
	clear(tr.pending)
}

// Input observes a tuple entering a rule strand.
func (tr *Tracer) Input(s *dataflow.Strand, t tuple.Tuple, now float64) {
	r := tr.freeRecord(s)
	r.active = true
	r.inID = t.ID
	r.inTime = now
	for i := range r.pre {
		r.pre[i] = precond{}
	}
	if s.Stages >= 1 {
		r.first, r.last = 1, 1
	} else {
		r.first, r.last = 1, 0
	}
}

func (tr *Tracer) freeRecord(s *dataflow.Strand) *record {
	recs := tr.records[s]
	// Prefer an inactive record.
	for _, r := range recs {
		if !r.active {
			return r
		}
	}
	if len(recs) < tr.cfg.RecordsPerStrand {
		var r *record
		if n := len(tr.pool); n > 0 {
			r = tr.pool[n-1]
			tr.pool[n-1] = nil
			tr.pool = tr.pool[:n-1]
			pre := r.pre
			if cap(pre) >= s.Stages+1 {
				pre = pre[:s.Stages+1]
				for i := range pre {
					pre[i] = precond{}
				}
			} else {
				pre = make([]precond, s.Stages+1)
			}
			*r = record{pre: pre}
		} else {
			r = &record{pre: make([]precond, s.Stages+1)}
		}
		tr.records[s] = append(recs, r)
		return r
	}
	// Recycle the record with the oldest input.
	oldest := recs[0]
	for _, r := range recs[1:] {
		if r.inTime < oldest.inTime {
			oldest = r
		}
	}
	return oldest
}

// findByStage returns the record whose associated interval contains
// stage, or nil.
func (tr *Tracer) findByStage(s *dataflow.Strand, stage int) *record {
	for _, r := range tr.records[s] {
		if r.active && r.first <= stage && stage <= r.last {
			return r
		}
	}
	return nil
}

// latest returns the active record with the highest associated stage
// (ties broken by most recent input).
func (tr *Tracer) latest(s *dataflow.Strand) *record {
	var best *record
	for _, r := range tr.records[s] {
		if !r.active {
			continue
		}
		if best == nil || r.last > best.last ||
			(r.last == best.last && r.inTime > best.inTime) {
			best = r
		}
	}
	return best
}

// Precond observes a precondition tuple fetched by the join at the given
// stage. Fields to the right of the stage are flushed, per §2.1.1: a
// precondition arriving "in the middle" of the strand invalidates
// later-stage observations belonging to a previous iteration.
func (tr *Tracer) Precond(s *dataflow.Strand, stage int, t tuple.Tuple, now float64) {
	if stage < 1 || stage > s.Stages {
		return
	}
	r := tr.findByStage(s, stage)
	if r == nil {
		// Extend the record with the latest associated stages.
		r = tr.latest(s)
		if r == nil {
			return
		}
		if stage > r.last {
			r.last = stage
		} else {
			r.first = stage
		}
	}
	r.pre[stage] = precond{filled: true, id: t.ID, time: now}
	for i := stage + 1; i <= s.Stages; i++ {
		r.pre[i] = precond{}
	}
}

// Output observes a head tuple produced by the strand and packages the
// owning record into ruleExec rows: one causal link from the input event
// and one from each recorded precondition.
func (tr *Tracer) Output(s *dataflow.Strand, t tuple.Tuple, now float64) {
	r := tr.latest(s)
	if r == nil {
		return
	}
	tr.emitRuleExec(s.RuleID, r.inID, t.ID, r.inTime, now, true)
	for stage := 1; stage <= s.Stages; stage++ {
		if r.pre[stage].filled {
			tr.emitRuleExec(s.RuleID, r.pre[stage].id, t.ID, r.pre[stage].time, now, false)
		}
	}
}

// StageDone signals that the stateful element at the given stage seeks a
// new input (§2.1.2). The record whose interval begins at the stage
// abandons it; advancing past the final stage retires the record.
func (tr *Tracer) StageDone(s *dataflow.Strand, stage int) {
	if stage < 1 || stage > s.Stages {
		// Strands without joins retire their record when the (virtual)
		// stage 0 completes, i.e. at activation end.
		if s.Stages == 0 {
			if r := tr.latest(s); r != nil {
				r.active = false
			}
		}
		return
	}
	for _, r := range tr.records[s] {
		if r.active && r.first == stage {
			r.first = stage + 1
			if r.first > s.Stages {
				r.active = false
			}
			return
		}
	}
	if r := tr.latest(s); r != nil && stage > r.last {
		r.last = stage
	}
}

// emitRuleExec inserts one ruleExec row and pins both referenced tuples
// in tupleTable.
func (tr *Tracer) emitRuleExec(ruleID string, inID, outID uint64, inT, outT float64, isEvent bool) {
	tr.addRef(inID, outT)
	tr.addRef(outID, outT)
	row := tuple.New(RuleExecTable,
		tuple.Str(tr.local),
		tuple.Str(ruleID),
		tuple.ID(inID),
		tuple.ID(outID),
		tuple.Float(inT),
		tuple.Float(outT),
		tuple.Bool(isEvent),
	)
	// Insert can evict/replace rows, whose delete notifications release
	// references; that is exactly the paper's flushing behaviour.
	if _, err := tr.ruleExec.Insert(row, outT); err != nil {
		panic(fmt.Sprintf("trace: ruleExec insert: %v", err)) // impossible: name matches
	}
	if tr.store != nil {
		sealed := tr.store.AppendExec(tracestore.Exec{
			Rule: ruleID, InID: inID, OutID: outID, InT: inT, OutT: outT, IsEvent: isEvent,
		})
		tr.noteStore(1, sealed)
	}
}

func (tr *Tracer) addRef(id uint64, now float64) {
	if e, ok := tr.memo[id]; ok {
		e.refs++
		return
	}
	p, ok := tr.pending[id]
	if !ok {
		// Unregistered tuple (tracing enabled mid-flight): synthesize
		// local provenance.
		p = prov{src: tr.local, srcID: id, dst: tr.local}
	}
	tr.memo[id] = &memoEntry{prov: p, refs: 1}
	row := tuple.New(TupleTable,
		tuple.Str(tr.local),
		tuple.ID(id),
		tuple.Str(p.src),
		tuple.ID(p.srcID),
		tuple.Str(p.dst),
	)
	if _, err := tr.tuples.Insert(row, now); err != nil {
		panic(fmt.Sprintf("trace: tupleTable insert: %v", err))
	}
}

func (tr *Tracer) release(id uint64) {
	e, ok := tr.memo[id]
	if !ok {
		return
	}
	e.refs--
	if e.refs > 0 {
		return
	}
	delete(tr.memo, id)
	sample := tuple.New(TupleTable, tuple.Str(tr.local), tuple.ID(id), tuple.Str(""), tuple.ID(0), tuple.Str(""))
	tr.tuples.DeleteKey(sample)
}

// Content returns the memoized tuple for an ID, if still referenced.
func (tr *Tracer) Content(id uint64) (tuple.Tuple, bool) {
	if e, ok := tr.memo[id]; ok {
		return e.content, true
	}
	return tuple.Tuple{}, false
}

// Reset drops every piece of in-memory trace state — memoized
// provenance, pending registrations, strand records — AND purges the
// trace reflection tables themselves. The engine calls it when a node
// restarts with soft-state loss. Clearing the tables here (idempotent
// if the caller already wiped the store) is load-bearing, not
// cosmetic: a restarted node reuses tuple IDs from 1, so a stale
// pre-crash ruleExec row that expired later would fire the release
// subscription against a reused ID and evict a live post-restart memo
// entry. Records return to the pool for reuse; the event-log sequence
// restarts. The attached trace store is deliberately NOT cleared — it
// is the forensic record that must survive the restart — but gets a
// "restart" marker so investigations can see the discontinuity.
func (tr *Tracer) Reset(now float64) {
	tr.ruleExec.Clear()
	tr.tuples.Clear()
	if tr.tupleLog != nil {
		tr.tupleLog.Clear()
	}
	tr.memo = make(map[uint64]*memoEntry)
	tr.pending = make(map[uint64]prov)
	for _, recs := range tr.records {
		tr.pool = append(tr.pool, recs...)
	}
	tr.records = make(map[*dataflow.Strand][]*record)
	tr.seq = 0
	if tr.store != nil {
		sealed := tr.store.AppendEvent(tracestore.Event{Op: "restart", Name: "", ID: 0, T: now})
		tr.noteStore(1, sealed)
	}
}

// ForgetStrand drops the per-strand record state of an uninstalled
// strand, so the tracer holds no reference to it. Already-emitted
// ruleExec rows survive (they are execution history and age out by TTL);
// memo references are owned by those rows, not by records, so nothing
// leaks.
func (tr *Tracer) ForgetStrand(s *dataflow.Strand) {
	delete(tr.records, s)
}

// RecordStrands reports how many strands currently hold tracer records
// (a leak check for query uninstallation).
func (tr *Tracer) RecordStrands() int { return len(tr.records) }

// MemoSize reports how many tuples are currently memoized (live trace
// tuples, part of the memory-overhead measurements).
func (tr *Tracer) MemoSize() int { return len(tr.memo) }

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
	if tr.tupleLog == nil {
		return
	}
	tr.seq++
	row := tuple.New(TupleLogTable,
		tuple.Str(tr.local), tuple.ID(tr.seq), tuple.Str(op),
		tuple.Str(name), tuple.ID(id), tuple.Float(now))
	tr.tupleLog.Insert(row, now) //nolint:errcheck // name always matches
}
