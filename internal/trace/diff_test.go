package trace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"p2go/internal/dataflow"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

// eagerTracer is the reference the ring-backed Tracer is checked
// against: the tracer as it was while ruleExec, tupleTable and tupleLog
// were live tables — every record inserted as a row the moment it is
// made, memo reference counts driven by ruleExec's delete listeners,
// each strand a pool of up to recsPerStrand tracer records matched to
// pipelined signals by stage interval (§2.1.2) — copied from that
// version with the store write-through (which the rings do not touch)
// left out, one marked fix, and the aggregate lineage rule (Witness,
// eagerRecord.lineage) the tracer has had since.
type eagerTracer struct {
	local         string
	recsPerStrand int
	ruleExec      *table.Table
	tuples        *table.Table

	// memo maps tuple IDs to their name and provenance while referenced
	// from ruleExec.
	memo map[uint64]*eagerMemo
	// pending holds provenance for tuples seen during the current task
	// that are not (yet) referenced.
	pending map[uint64]prov

	records map[*dataflow.Strand][]*eagerRecord

	// tupleLog buffers arrival/insert/delete events (nil = disabled).
	tupleLog *table.Table
	seq      uint64

	// pool recycles records across restarts (Reset returns them here).
	pool []*eagerRecord
}

type eagerMemo struct {
	prov
	refs int
}

// eagerRecord and eagerPrecond are the tracer record as it was then,
// slices and flags in the record itself.
type eagerRecord struct {
	active bool
	inID   uint64
	inTime float64
	pre    []eagerPrecond
	first  int // first associated stage (1-based)
	last   int // last associated stage; first > last means "no stage"
	// wit[g] is a copy of pre taken when the binding under way became
	// aggregate group g's witness (nil: none yet); next is the first
	// group whose output may still come.
	wit  [][]eagerPrecond
	next int
}

type eagerPrecond struct {
	filled bool
	id     uint64
	time   float64
}

// newEager creates a tracer and materializes its reflection tables in store.
func newEager(store *table.Store, localAddr string, cfg Config, recsPerStrand int) (*eagerTracer, error) {
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
	tr := &eagerTracer{
		local:         localAddr,
		recsPerStrand: recsPerStrand,
		ruleExec:      re,
		tuples:        tt,
		memo:          make(map[uint64]*eagerMemo),
		pending:       make(map[uint64]prov),
		records:       make(map[*dataflow.Strand][]*eagerRecord),
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

// Register records the provenance of a tuple the node just assigned an ID
// to: where it came from (src/srcID; the node itself for local tuples)
// and where it lives or is headed (dst). The registration is memoized
// only if a ruleExec row ends up referencing the ID.
func (tr *eagerTracer) Register(id uint64, name, src string, srcID uint64, dst string, now float64) {
	if _, ok := tr.memo[id]; ok {
		return
	}
	tr.pending[id] = prov{name: name, src: src, srcID: srcID, dst: dst}
}

// TaskDone discards provenance for tuples that ended the task
// unreferenced. Records persist across tasks (bounded per strand).
func (tr *eagerTracer) TaskDone() {
	clear(tr.pending)
}

// Input observes a tuple entering a rule strand.
func (tr *eagerTracer) Input(s *dataflow.Strand, t tuple.Tuple, now float64) {
	r := tr.freeRecord(s)
	r.active = true
	r.inID = t.ID
	r.inTime = now
	for i := range r.pre {
		r.pre[i] = eagerPrecond{}
	}
	r.wit, r.next = nil, 0
	if s.Stages >= 1 {
		r.first, r.last = 1, 1
	} else {
		r.first, r.last = 1, 0
	}
}

func (tr *eagerTracer) freeRecord(s *dataflow.Strand) *eagerRecord {
	recs := tr.records[s]
	// Prefer an inactive record.
	for _, r := range recs {
		if !r.active {
			return r
		}
	}
	if len(recs) < tr.recsPerStrand {
		var r *eagerRecord
		if n := len(tr.pool); n > 0 {
			r = tr.pool[n-1]
			tr.pool[n-1] = nil
			tr.pool = tr.pool[:n-1]
			pre := r.pre
			if cap(pre) >= s.Stages+1 {
				pre = pre[:s.Stages+1]
				for i := range pre {
					pre[i] = eagerPrecond{}
				}
			} else {
				pre = make([]eagerPrecond, s.Stages+1)
			}
			*r = eagerRecord{pre: pre}
		} else {
			r = &eagerRecord{pre: make([]eagerPrecond, s.Stages+1)}
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
func (tr *eagerTracer) findByStage(s *dataflow.Strand, stage int) *eagerRecord {
	for _, r := range tr.records[s] {
		if r.active && r.first <= stage && stage <= r.last {
			return r
		}
	}
	return nil
}

// latest returns the active record with the highest associated stage
// (ties broken by most recent input).
func (tr *eagerTracer) latest(s *dataflow.Strand) *eagerRecord {
	var best *eagerRecord
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
func (tr *eagerTracer) Precond(s *dataflow.Strand, stage int, t tuple.Tuple, now float64) {
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
	r.pre[stage] = eagerPrecond{filled: true, id: t.ID, time: now}
	for i := stage + 1; i <= s.Stages; i++ {
		r.pre[i] = eagerPrecond{}
	}
}

// Witness observes that the binding under way is aggregate group g's
// witness: the group's output records the preconditions the owning
// record holds now.
func (tr *eagerTracer) Witness(s *dataflow.Strand, g int) {
	r := tr.latest(s)
	if r == nil || g < 0 {
		return
	}
	for len(r.wit) <= g {
		r.wit = append(r.wit, nil)
	}
	r.wit[g] = append([]eagerPrecond(nil), r.pre...)
}

// Output observes a head tuple produced by the strand and packages the
// owning record into ruleExec rows: one causal link from the input event
// and one from each precondition its lineage names.
func (tr *eagerTracer) Output(s *dataflow.Strand, t tuple.Tuple, now float64) {
	r := tr.latest(s)
	if r == nil {
		return
	}
	tr.emitRuleExec(s.RuleID, r.inID, t.ID, r.inTime, now, true)
	for _, p := range r.lineage(s) {
		if p.filled {
			tr.emitRuleExec(s.RuleID, p.id, t.ID, p.time, now, false)
		}
	}
}

// lineage is the preconditions an output records, indexed by stage (0
// is never filled). Without an aggregate, the last one per stage. An
// aggregate's outputs come one per group, in group order: a min or max
// output records the next witnessed group's copy, and a count, sum or
// avg output, whose groups have no witness, records none.
func (r *eagerRecord) lineage(s *dataflow.Strand) []eagerPrecond {
	if s.Agg == nil {
		return r.pre
	}
	for r.next < len(r.wit) {
		g := r.next
		r.next++
		if r.wit[g] != nil {
			return r.wit[g]
		}
	}
	return nil
}

// StageDone signals that the stateful element at the given stage seeks a
// new input (§2.1.2). The record whose interval begins at the stage
// abandons it; advancing past the final stage retires the record.
func (tr *eagerTracer) StageDone(s *dataflow.Strand, stage int) {
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
func (tr *eagerTracer) emitRuleExec(ruleID string, inID, outID uint64, inT, outT float64, isEvent bool) {
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
	changed, err := tr.ruleExec.Insert(row, outT)
	if err != nil {
		panic(fmt.Sprintf("trace: ruleExec insert: %v", err)) // impossible: name matches
	}
	if !changed {
		// FIX, not in the copied version: the identical row was already
		// there and holds its references; the pair just taken had no row
		// to release it and leaked.
		tr.release(inID)
		tr.release(outID)
	}
}

func (tr *eagerTracer) addRef(id uint64, now float64) {
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
	tr.memo[id] = &eagerMemo{prov: p, refs: 1}
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

func (tr *eagerTracer) release(id uint64) {
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

// Name returns the memoized tuple's predicate name, if still referenced.
func (tr *eagerTracer) Name(id uint64) (string, bool) {
	if e, ok := tr.memo[id]; ok {
		return e.name, true
	}
	return "", false
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
func (tr *eagerTracer) Reset(now float64) {
	tr.ruleExec.Clear()
	tr.tuples.Clear()
	if tr.tupleLog != nil {
		tr.tupleLog.Clear()
	}
	tr.memo = make(map[uint64]*eagerMemo)
	tr.pending = make(map[uint64]prov)
	for _, recs := range tr.records {
		tr.pool = append(tr.pool, recs...)
	}
	tr.records = make(map[*dataflow.Strand][]*eagerRecord)
	tr.seq = 0
}

// MemoSize reports how many tuples are currently memoized (live trace
// tuples, part of the memory-overhead measurements).
func (tr *eagerTracer) MemoSize() int { return len(tr.memo) }

// LogEvent buffers one system event in tupleLog: op is "arrive",
// "insert", or "delete"; name and id identify the tuple (§2.1's event
// logging). The attached store gets the event even when the in-table
// buffer is disabled — durable event history does not depend on the
// soft-state budget.
func (tr *eagerTracer) LogEvent(op, name string, id uint64, now float64) {
	if !loggedName(name) {
		return
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

// ---- the differential test ----

// tracerAPI is what the test drives on both implementations. StageDone
// is the reference's alone.
type tracerAPI interface {
	Register(id uint64, name, src string, srcID uint64, dst string, now float64)
	TaskDone()
	Input(s *dataflow.Strand, t tuple.Tuple, now float64)
	Precond(s *dataflow.Strand, stage int, t tuple.Tuple, now float64)
	Output(s *dataflow.Strand, t tuple.Tuple, now float64)
	Witness(s *dataflow.Strand, g int)
	LogEvent(op, name string, id uint64, now float64)
	Reset(now float64)
	MemoSize() int
	Name(id uint64) (string, bool)
}

// side is one implementation with its table store.
type side struct {
	tr    tracerAPI
	store *table.Store
	// removed logs, per table, the rows its delete listeners saw since
	// the log was last cleared.
	removed map[string]*strings.Builder
}

func dump(tb *table.Table, now float64) string {
	var b strings.Builder
	tb.Scan(now, func(t tuple.Tuple) { fmt.Fprintf(&b, "%v\n", t) })
	return b.String()
}

// TestRingMatchesEagerTables drives the Tracer and the eager reference
// through the same random run of tasks — registrations, activations,
// events, clock movement (backwards too), restarts and reads — and
// requires that every read of every reflection table returns the same
// rows in the same order, and that the memo agrees after every step.
// Bounds of 0 and 1, unbounded tables and immortal rows are among the
// configurations.
func TestRingMatchesEagerTables(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cfg := Config{
			RuleExecTTL: ttls[rng.Intn(len(ttls))],
			RuleExecMax: execMaxes[rng.Intn(len(execMaxes))],
			TupleLogMax: logMaxes[rng.Intn(len(logMaxes))],
		}
		recs := recsPerStrand[rng.Intn(len(recsPerStrand))]
		ringMatchesEager(t, rng, cfg, recs, trial%2 == 0, fmt.Sprintf("trial %d", trial))
	}
}

// FuzzRingMatchesEager is the same check with the seed, the
// configuration and the reference's records per strand chosen by the
// fuzzer.
func FuzzRingMatchesEager(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(int64(i), uint8(i), uint8(i+1), uint8(i+2), uint8(i+3), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, ttl, execMax, recs, logMax uint8, readOften bool) {
		cfg := Config{
			RuleExecTTL: ttls[int(ttl)%len(ttls)],
			RuleExecMax: execMaxes[int(execMax)%len(execMaxes)],
			TupleLogMax: logMaxes[int(logMax)%len(logMaxes)],
		}
		ringMatchesEager(t, rand.New(rand.NewSource(seed)), cfg, recsPerStrand[int(recs)%len(recsPerStrand)],
			readOften, fmt.Sprintf("seed %d", seed))
	})
}

// The configurations the differential check draws from.
var (
	ttls          = []float64{4, 30, 30, table.Infinity}
	execMaxes     = []int{0, 1, 3, 8, 8, table.Infinity}
	recsPerStrand = []int{1, 2, 8}
	logMaxes      = []int{0, 1, 4, 4}
)

// The pools the differential check draws names from, wide enough that
// every field the tracer keeps as a dictionary index takes several
// values, "" among the addresses.
var (
	diffStrands = []*dataflow.Strand{
		{Plan: &dataflow.Plan{RuleID: "r0", Stages: 0}},
		{Plan: &dataflow.Plan{RuleID: "r1", Stages: 1}},
		{Plan: &dataflow.Plan{RuleID: "r2", Stages: 2}},
		{Plan: &dataflow.Plan{RuleID: "r3", Stages: 3}},
		{Plan: &dataflow.Plan{RuleID: "r1", Stages: 2}}, // a second strand of r1
		{Plan: &dataflow.Plan{RuleID: "r5", Stages: 0}}, // a second join-less strand
		{Plan: &dataflow.Plan{RuleID: "r4", Stages: 66}},
		// Aggregates: a min and a max output records its group's
		// witness, a count output its input alone.
		{Plan: &dataflow.Plan{RuleID: "a1", Stages: 2, Agg: &dataflow.AggSpec{Op: "min"}}},
		{Plan: &dataflow.Plan{RuleID: "a2", Stages: 3, Agg: &dataflow.AggSpec{Op: "max"}}},
		{Plan: &dataflow.Plan{RuleID: "a3", Stages: 2, Agg: &dataflow.AggSpec{Op: "count"}}},
	}
	diffNames = []string{"p", "succ", "pred", "ping"}
	diffAddrs = []string{"n1", "n2", "n3", "n4", ""}
	diffOps   = []string{"insert", "arrive", "delete"}
	// logged names; the reflection tables are never logged.
	diffLogged = []string{"succ", "pred", "ping", "p", RuleExecTable, TupleTable}
)

// ringMatchesEager runs one trial of the differential check: 400 random
// steps on both tracers, with rng choosing every step; recs is the
// reference's records per strand. readOften reads the row counts after
// every step.
//
// The steps keep the node's contract with its tracer. Tuple IDs come
// from one counter and each is registered once, when issued; an older ID
// comes back only as a reference (a trigger, a precondition row, the
// subject of an event), and a precondition row may carry ID 0. A task
// runs its activations one at a time, each to completion: Input, the
// join stages' Preconds in the order nested loops reach them (a stage
// revisited after the ones to its right), an Output with a fresh ID
// wherever a binding completes or, for an aggregate, after the walk,
// and then StageDone(1..Stages) to the reference alone, as Strand.Run
// signalled it — none for a strand without joins, whose records the
// reference therefore never retires and recycles by input time. A min
// or max strand's completed binding may become the witness of one of
// three groups, first or again, and its walk is followed by one output
// per witnessed group, as flushAgg emits them; a count strand witnesses
// nothing and emits up to two outputs after its walk. The
// clock steps back only between tasks (the realtime clock after a
// task's billed cost), and a join-less strand's inputs never go back in
// time, as in simulation: the reference would attribute an output to a
// pooled record with a later input.
func ringMatchesEager(t *testing.T, rng *rand.Rand, cfg Config, recs int, readOften bool, label string) {
	t.Helper()
	var sides [2]side
	for i := range sides {
		sides[i].store = table.NewStore()
		var err error
		if i == 0 {
			sides[i].tr, err = New(sides[i].store, "n1", cfg)
		} else {
			sides[i].tr, err = newEager(sides[i].store, "n1", cfg, recs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	eager := sides[1].tr.(*eagerTracer)
	tables := []string{RuleExecTable, TupleTable}
	if cfg.TupleLogMax > 0 {
		tables = append(tables, TupleLogTable)
	}
	// Delete returns only a count, and the rows it removes are gone
	// before any later read: each side logs them as its listeners see
	// them, so a row one side built wrongly and a delete then removed
	// still shows.
	for i := range sides {
		sides[i].removed = map[string]*strings.Builder{}
		for _, name := range tables {
			b := new(strings.Builder)
			sides[i].removed[name] = b
			sides[i].store.Get(name).Subscribe(func(op table.Op, t tuple.Tuple) {
				if op == table.OpDelete {
					fmt.Fprintf(b, "%v\n", t)
				}
			})
		}
	}
	// Half the draws are fresh copies: equal strings need not share
	// their bytes, and the dictionary must not care.
	pick := func(pool []string) string {
		s := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			s = strings.Clone(s)
		}
		return s
	}
	var (
		now, stamp float64 // stamp: when a row was last made
		issued     uint64  // the newest tuple ID
		lastIn     = map[*dataflow.Strand]float64{}
		step       int
		what       string
	)
	// each calls f on both sides and compares what it returns.
	each := func(f func(side) string) {
		if a, b := f(sides[0]), f(sides[1]); a != b {
			t.Fatalf("%s (cfg %+v, %d records) step %d, %s at t=%g:\nrings:\n%s\neager tables:\n%s", label, cfg, recs, step, what, now, a, b)
		}
	}
	do := func(name string, f func(tracerAPI)) {
		what = name
		f(sides[0].tr)
		f(sides[1].tr)
	}
	tupleOf := func(id uint64) tuple.Tuple {
		return tuple.New(diffNames[id%uint64(len(diffNames))], tuple.Str("n1"), tuple.ID(id)).WithID(id)
	}
	// fresh issues the next ID and registers it.
	fresh := func() tuple.Tuple {
		issued++
		tp := tupleOf(issued)
		tp.Name = pick(diffNames)
		src, dst := pick(diffAddrs), pick(diffAddrs)
		do("Register", func(tr tracerAPI) { tr.Register(tp.ID, tp.Name, src, tp.ID+100, dst, now) })
		return tp
	}
	// older is an ID issued before, often a recent one, sometimes 0.
	older := func() tuple.Tuple {
		if issued == 0 || rng.Intn(8) == 0 {
			return tupleOf(0)
		}
		back := uint64(rng.Intn(8))
		if rng.Intn(4) == 0 {
			back = uint64(rng.Int63n(int64(issued)))
		}
		return tupleOf(issued - min(back, issued-1))
	}
	tick := func() { now += rng.Float64() * 0.01 }
	output := func(s *dataflow.Strand) {
		out := fresh()
		tick()
		do("Output", func(tr tracerAPI) { tr.Output(s, out, now) })
		stamp = now
	}
	// walk runs the join at stage and everything to its right, as
	// nested loops: each row read is a precondition, and a binding that
	// completes emits a head unless a selection drops it. taps bounds a
	// deep strand's walk.
	taps := 0
	witnessed := map[int]bool{} // the aggregate activation's groups with a witness
	var walk func(s *dataflow.Strand, stage int)
	walk = func(s *dataflow.Strand, stage int) {
		if stage > s.Stages {
			switch {
			case s.Agg == nil:
				if rng.Intn(4) != 0 {
					output(s)
				}
			case s.Agg.Op != "count" && rng.Intn(2) == 0:
				g := rng.Intn(3)
				witnessed[g] = true
				do(fmt.Sprintf("Witness %d", g), func(tr tracerAPI) { tr.Witness(s, g) })
			}
			return
		}
		rows := rng.Intn(3)
		if s.Stages > 3 {
			rows = []int{0, 1, 1, 1, 1, 1, 1, 2}[rng.Intn(8)]
		}
		for ; rows > 0 && taps < 64; rows-- {
			taps++
			row := older()
			tick()
			do(fmt.Sprintf("Precond %d", stage), func(tr tracerAPI) { tr.Precond(s, stage, row, now) })
			walk(s, stage+1)
		}
	}
	activation := func() {
		s := diffStrands[rng.Intn(len(diffStrands))]
		var trig tuple.Tuple
		if rng.Intn(2) == 0 {
			trig = fresh() // an arrival or a periodic firing
		} else {
			trig = older() // a table row's insertion, or an event queued earlier in the task
		}
		tick()
		if s.Stages == 0 && now <= lastIn[s] {
			now = lastIn[s] + 0.001
		}
		lastIn[s] = now
		do("Input", func(tr tracerAPI) { tr.Input(s, trig, now) })
		taps = 0
		clear(witnessed)
		walk(s, 1)
		if s.Agg != nil {
			k := len(witnessed)
			if s.Agg.Op == "count" {
				k = rng.Intn(3)
			}
			for ; k > 0; k-- {
				output(s)
			}
		}
		for stage := 1; stage <= s.Stages; stage++ {
			eager.StageDone(s, stage)
		}
	}
	for step = 0; step < 400; step++ {
		tbName := tables[rng.Intn(len(tables))]
		switch op := rng.Intn(100); {
		case op < 8:
			now += rng.Float64() * 3
		case op < 10:
			fresh() // a tuple nothing derives from
		case op < 38:
			activation()
		case op < 46:
			do("TaskDone", func(tr tracerAPI) { tr.TaskDone() })
			switch rng.Intn(3) {
			case 0:
				now -= rng.Float64() // the realtime clock behind the last task's billed cost
			case 1:
				if cfg.RuleExecTTL > 0 {
					now = stamp + cfg.RuleExecTTL // the very instant a row is due
				}
			}
		case op < 54:
			opName, name, id := pick(diffOps), pick(diffLogged), older().ID
			do("LogEvent", func(tr tracerAPI) { tr.LogEvent(opName, name, id, now) })
			stamp = now
		case op < 55:
			do("Reset", func(tr tracerAPI) { tr.Reset(now) })
		case op < 66:
			what = "Scan " + tbName
			each(func(sd side) string { return dump(sd.store.Get(tbName), now) })
		case op < 72:
			what = "Count " + tbName
			each(func(sd side) string { return fmt.Sprint(sd.store.Get(tbName).Count()) })
		case op < 78:
			what = "MatchIndexed " + tbName
			each(func(sd side) string {
				var b strings.Builder
				sd.store.Get(tbName).MatchIndexed(now, []int{0}, []tuple.Value{tuple.Str("n1")}, func(t tuple.Tuple) { fmt.Fprintf(&b, "%v\n", t) })
				return b.String()
			})
		case op < 84:
			what = "ExpireAll, LiveTuples, SizeBytes"
			each(func(sd side) string {
				sd.store.ExpireAll(now)
				return fmt.Sprint(sd.store.LiveTuples(), sd.store.SizeBytes())
			})
		case op < 90:
			what = "Expire " + tbName
			each(func(sd side) string { sd.store.Get(tbName).Expire(now); return "" })
		default:
			// An OverLog delete rule: every row about this tuple. On
			// ruleExec, by its effect or by its cause: the latter kills
			// some of a head's records and leaves the rest, and the dead
			// wait in its chain with slots that may be reused.
			what = "Delete " + tbName
			shape := map[string][2]int{RuleExecTable: {7, 3}, TupleTable: {5, 1}, TupleLogTable: {6, 4}}[tbName]
			if tbName == RuleExecTable && rng.Intn(2) == 0 {
				shape[1] = 2
			}
			fields := make([]tuple.Value, shape[0]) // arity; the zero Value is the wildcard
			fields[shape[1]] = tuple.ID(older().ID)
			pattern := tuple.New(tbName, fields...)
			each(func(sd side) string {
				log := sd.removed[tbName]
				log.Reset()
				n := sd.store.Get(tbName).Delete(pattern, now)
				// The delete expires rows first, and the reference holds
				// expired rows the rings never build: the removed rows
				// are the log's last n lines.
				lines := strings.SplitAfter(log.String(), "\n")
				lines = lines[:len(lines)-1] // after the last newline
				if n > len(lines) {
					return fmt.Sprintf("removed %d, but the listeners saw %d rows", n, len(lines))
				}
				return fmt.Sprintf("removed %d:\n%s", n, strings.Join(lines[len(lines)-n:], ""))
			})
		}
		if readOften {
			// Half the trials read constantly (rows are built one at a
			// time and mostly die built), half rarely (most records
			// die unbuilt). Count carries no clock: it must not age
			// anything on either side.
			what += ", then the counts"
			each(func(sd side) string {
				var b strings.Builder
				for _, name := range tables {
					fmt.Fprint(&b, " ", sd.store.Get(name).Count())
				}
				return b.String()
			})
		}
		// The memo is visible without reading a table: its size, and
		// the entries of ID 0 and of the IDs issued lately.
		what += ", then the memo"
		each(func(sd side) string {
			var b strings.Builder
			fmt.Fprintf(&b, "size %d:", sd.tr.MemoSize())
			for id := max(issued, 64) - 63; id <= issued; id++ {
				if name, ok := sd.tr.Name(id); ok {
					fmt.Fprintf(&b, " %d=%s", id, name)
				}
			}
			if name, ok := sd.tr.Name(0); ok {
				fmt.Fprintf(&b, " 0=%s", name)
			}
			return b.String()
		})
	}
	// Every table, in full, at the end.
	for _, name := range tables {
		if a, b := dump(sides[0].store.Get(name), now), dump(sides[1].store.Get(name), now); a != b {
			t.Fatalf("%s (cfg %+v, %d records): final %s differs:\nrings:\n%s\neager tables:\n%s", label, cfg, recs, name, a, b)
		}
	}
}
