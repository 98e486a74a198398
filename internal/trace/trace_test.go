package trace

import (
	"reflect"
	"testing"
	"unsafe"

	"p2go/internal/dataflow"
	"p2go/internal/table"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// fixture builds a tracer plus a synthetic strand with the given number
// of stages.
func fixture(t testing.TB, stages int, cfg Config) (*Tracer, *table.Store, *dataflow.Strand) {
	t.Helper()
	store := table.NewStore()
	tr, err := New(store, "n1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &dataflow.Strand{Plan: &dataflow.Plan{RuleID: "r1", Stages: stages}}
	return tr, store, s
}

func tup(name string, id uint64) tuple.Tuple {
	return tuple.New(name, tuple.Str("n1"), tuple.ID(id)).WithID(id)
}

// register tells the tracer about a locally created tuple.
func register(tr *Tracer, t tuple.Tuple) {
	tr.Register(t.ID, t.Name, "n1", t.ID, "n1", 0)
}

func rows(t *testing.T, store *table.Store) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	store.Get(RuleExecTable).Scan(0, func(tp tuple.Tuple) { out = append(out, tp) })
	return out
}

// TestSingleRuleExecution reproduces the paper's §2.1.1 example: rule r1
// with one precondition produces two ruleExec rows per output — the
// event causal link and the precondition causal link.
func TestSingleRuleExecution(t *testing.T) {
	tr, store, s := fixture(t, 1, DefaultConfig())
	ev, pre, out := tup("event", 1), tup("prec", 2), tup("head", 3)
	for _, x := range []tuple.Tuple{ev, pre, out} {
		register(tr, x)
	}
	tr.Input(s, ev, 10)
	tr.Precond(s, 1, pre, 11)
	tr.Output(s, out, 12)
	tr.StageDone(s, 1)

	got := rows(t, store)
	if len(got) != 2 {
		t.Fatalf("ruleExec rows = %d, want 2: %v", len(got), got)
	}
	// Row 1: (r1, event, head, ts, te, true).
	var evRow, preRow *tuple.Tuple
	for i := range got {
		if got[i].Field(6).AsBool() {
			evRow = &got[i]
		} else {
			preRow = &got[i]
		}
	}
	if evRow == nil || preRow == nil {
		t.Fatal("missing event or precondition row")
	}
	if evRow.Field(2).AsID() != 1 || evRow.Field(3).AsID() != 3 ||
		evRow.Field(4).AsFloat() != 10 || evRow.Field(5).AsFloat() != 12 {
		t.Errorf("event row = %v", *evRow)
	}
	if preRow.Field(2).AsID() != 2 || preRow.Field(3).AsID() != 3 ||
		preRow.Field(4).AsFloat() != 11 {
		t.Errorf("precondition row = %v", *preRow)
	}
	// Both tuples are memoized in tupleTable while referenced.
	if store.Get(TupleTable).Count() != 3 {
		t.Errorf("tupleTable rows = %d, want 3", store.Get(TupleTable).Count())
	}
	if name, ok := tr.Name(1); !ok || name != "event" {
		t.Errorf("Name(1) = %q, %v", name, ok)
	}
}

// TestMultipleMatchesPerInput: several preconditions matching one input
// produce one pair of rows per output, with the precondition field
// updated per match (the record is not cleared between outputs).
func TestMultipleMatchesPerInput(t *testing.T) {
	tr, store, s := fixture(t, 1, DefaultConfig())
	ev := tup("event", 1)
	register(tr, ev)
	tr.Input(s, ev, 10)
	for i := uint64(0); i < 3; i++ {
		pre, out := tup("prec", 10+i), tup("head", 20+i)
		register(tr, pre)
		register(tr, out)
		tr.Precond(s, 1, pre, 11)
		tr.Output(s, out, 12)
	}
	tr.StageDone(s, 1)
	got := rows(t, store)
	if len(got) != 6 {
		t.Fatalf("ruleExec rows = %d, want 6 (2 per output)", len(got))
	}
	// Each output must pair with its own precondition.
	for i := uint64(0); i < 3; i++ {
		found := false
		for _, r := range got {
			if !r.Field(6).AsBool() && r.Field(2).AsID() == 10+i && r.Field(3).AsID() == 20+i {
				found = true
			}
		}
		if !found {
			t.Errorf("missing precondition link %d -> %d", 10+i, 20+i)
		}
	}
}

// TestPrecondFlushRule: §2.1.1 — observing a precondition in the middle
// of the strand flushes recorded fields to its right.
func TestPrecondFlushRule(t *testing.T) {
	tr, store, s := fixture(t, 2, DefaultConfig())
	ev := tup("event", 1)
	register(tr, ev)
	tr.Input(s, ev, 10)
	p1a, p2a := tup("p1", 11), tup("p2", 12)
	o1 := tup("head", 13)
	for _, x := range []tuple.Tuple{p1a, p2a, o1} {
		register(tr, x)
	}
	tr.Precond(s, 1, p1a, 10.1)
	tr.Precond(s, 2, p2a, 10.2)
	tr.Output(s, o1, 10.3)
	// New stage-1 precondition: the stage-2 field must be flushed, so
	// an output now yields rows for stage 1 only.
	p1b, o2 := tup("p1", 14), tup("head", 15)
	register(tr, p1b)
	register(tr, o2)
	tr.Precond(s, 1, p1b, 10.4)
	tr.Output(s, o2, 10.5)
	var gotPre []uint64
	for _, r := range rows(t, store) {
		if !r.Field(6).AsBool() && r.Field(3).AsID() == 15 {
			gotPre = append(gotPre, r.Field(2).AsID())
		}
	}
	if len(gotPre) != 1 || gotPre[0] != 14 {
		t.Errorf("second output preconditions = %v, want [14] (stage 2 flushed)", gotPre)
	}
}

// TestPipelinedRecords reproduces Figure 3: a second input enters stage 1
// while the first input is still producing matches at stage 2. The
// tracer must keep two records and attribute outputs to the right one.
func TestPipelinedRecords(t *testing.T) {
	tr, store, s := fixture(t, 2, DefaultConfig())
	ev1, ev2 := tup("event", 1), tup("event", 2)
	p1x, p2x := tup("p1", 11), tup("p2", 12)
	p1y := tup("p1", 21)
	o1 := tup("head", 31)
	for _, x := range []tuple.Tuple{ev1, ev2, p1x, p2x, p1y, o1} {
		register(tr, x)
	}
	// Input 1 flows to stage 2.
	tr.Input(s, ev1, 1)
	tr.Precond(s, 1, p1x, 1.1)
	tr.Precond(s, 2, p2x, 1.2)
	// Stage 1 completes for input 1 and input 2 enters: record 1 is now
	// associated with stage 2 only, record 2 with stage 1.
	tr.StageDone(s, 1)
	tr.Input(s, ev2, 2)
	tr.Precond(s, 1, p1y, 2.1)
	// Input 1's remaining stage-2 match produces an output; it must be
	// attributed to record 1 (input ev1), not record 2.
	tr.Output(s, o1, 2.2)
	var eventIn uint64
	for _, r := range rows(t, store) {
		if r.Field(6).AsBool() && r.Field(3).AsID() == 31 {
			eventIn = r.Field(2).AsID()
		}
	}
	if eventIn != 1 {
		t.Errorf("output attributed to input %d, want 1 (pipelined record)", eventIn)
	}
}

// TestRecordCap: the fixed number of execution records (a §3.4 resource
// bound) recycles the oldest record instead of growing.
func TestRecordCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordsPerStrand = 2
	tr, store, s := fixture(t, 1, cfg)
	for i := uint64(0); i < 10; i++ {
		ev := tup("event", 100+i)
		register(tr, ev)
		tr.Input(s, ev, float64(i))
	}
	// Only bookkeeping structures are bounded; no rows were produced.
	if got := len(tr.records[s].recs); got != 2 {
		t.Errorf("records = %d, want cap 2", got)
	}
	if store.Get(RuleExecTable).Count() != 0 {
		t.Error("no outputs -> no ruleExec rows (only successful executions are stored)")
	}
}

// TestRefCountingFlushesTupleTable: when the last ruleExec row naming a
// tuple dies, its tupleTable entry and memo entry disappear.
func TestRefCountingFlushesTupleTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RuleExecTTL = 5
	tr, store, s := fixture(t, 0, cfg)
	ev, out := tup("event", 1), tup("head", 2)
	register(tr, ev)
	tr.Input(s, ev, 10)
	register(tr, out)
	tr.Output(s, out, 10.5)
	if store.Get(TupleTable).Count() != 2 || tr.MemoSize() != 2 {
		t.Fatalf("tupleTable=%d memo=%d, want 2/2",
			store.Get(TupleTable).Count(), tr.MemoSize())
	}
	// Expire the ruleExec row: references drop to zero.
	store.Get(RuleExecTable).Expire(20)
	if store.Get(TupleTable).Count() != 0 || tr.MemoSize() != 0 {
		t.Errorf("tupleTable=%d memo=%d after expiry, want 0/0",
			store.Get(TupleTable).Count(), tr.MemoSize())
	}
	if _, ok := tr.Name(1); ok {
		t.Error("the memo entry must be released with the last reference")
	}
}

// TestSharedReferenceSurvives: a tuple referenced by two ruleExec rows
// survives the death of one.
func TestSharedReferenceSurvives(t *testing.T) {
	tr, store, s := fixture(t, 0, DefaultConfig())
	ev := tup("event", 1)
	register(tr, ev)
	tr.Input(s, ev, 10)
	out1, out2 := tup("head", 2), tup("head", 3)
	register(tr, out1)
	register(tr, out2)
	tr.Output(s, out1, 10.1)
	tr.Output(s, out2, 10.2)
	// Delete one row: the shared event tuple must remain memoized.
	pattern := tuple.New(RuleExecTable, tuple.Nil, tuple.Nil, tuple.Nil,
		tuple.ID(2), tuple.Nil, tuple.Nil, tuple.Nil)
	if removed := store.Get(RuleExecTable).Delete(pattern, 100); len(removed) != 1 {
		t.Fatalf("removed %d rows", len(removed))
	}
	if _, ok := tr.Name(1); !ok {
		t.Error("shared tuple released too early")
	}
	if _, ok := tr.Name(2); ok {
		t.Error("out1 must be released")
	}
}

// TestTaskDoneDropsUnreferenced: provenance for tuples never referenced
// by a ruleExec row is discarded at task end.
func TestTaskDoneDropsUnreferenced(t *testing.T) {
	tr, _, _ := fixture(t, 0, DefaultConfig())
	register(tr, tup("noise", 42))
	tr.TaskDone()
	if len(tr.pending) != 0 {
		t.Error("pending provenance not cleared")
	}
	if tr.MemoSize() != 0 {
		t.Error("unreferenced tuple must not be memoized")
	}
}

// TestUnregisteredReferenceSynthesizesProvenance: tracing enabled
// mid-flight still produces consistent tupleTable rows.
func TestUnregisteredReferenceSynthesizesProvenance(t *testing.T) {
	tr, store, s := fixture(t, 0, DefaultConfig())
	tr.Input(s, tup("event", 7), 1)
	tr.Output(s, tup("head", 8), 1.1)
	tt := store.Get(TupleTable)
	if tt.Count() != 2 {
		t.Fatalf("tupleTable rows = %d", tt.Count())
	}
	tt.Scan(100, func(tp tuple.Tuple) {
		if tp.Field(2).AsStr() != "n1" {
			t.Errorf("synthesized provenance src = %v", tp)
		}
	})
}

// TestTapEdgeCases: taps with no owning record or invalid stages are
// ignored rather than corrupting state.
func TestTapEdgeCases(t *testing.T) {
	tr, store, s := fixture(t, 2, DefaultConfig())
	// Output with no active record: dropped.
	tr.Output(s, tup("head", 9), 1)
	if store.Get(RuleExecTable).Count() != 0 {
		t.Error("orphan output must not produce rows")
	}
	// Precondition before any input: dropped.
	tr.Precond(s, 1, tup("p", 1), 1)
	// Out-of-range stages are ignored.
	ev := tup("event", 2)
	register(tr, ev)
	tr.Input(s, ev, 1)
	tr.Precond(s, 0, tup("p", 3), 1)
	tr.Precond(s, 99, tup("p", 4), 1)
	tr.StageDone(s, 99)
	out := tup("head", 5)
	register(tr, out)
	tr.Output(s, out, 2)
	// Only the event edge exists (no valid preconditions recorded).
	if got := store.Get(RuleExecTable).Count(); got != 1 {
		t.Errorf("rows = %d, want 1", got)
	}
}

// TestLogEvent: the §2.1 system-event buffer records arrivals and table
// changes, skips the log tables themselves, and is bounded.
func TestLogEvent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TupleLogMax = 3
	tr, store, _ := fixture(t, 0, cfg)
	tr.LogEvent("arrive", "lookup", 1, 1)
	tr.LogEvent("insert", "succ", 2, 1.1)
	tr.LogEvent("delete", "succ", 2, 1.2)
	tr.LogEvent("insert", RuleExecTable, 3, 1.3) // must be skipped
	tr.LogEvent("insert", TupleLogTable, 4, 1.4) // must be skipped
	tl := store.Get(TupleLogTable)
	if tl.Count() != 3 {
		t.Fatalf("tupleLog rows = %d, want 3", tl.Count())
	}
	// Bound: a fourth event evicts the oldest.
	tr.LogEvent("arrive", "lookup", 5, 2)
	if tl.Count() != 3 {
		t.Errorf("tupleLog exceeded its bound: %d", tl.Count())
	}
	// Disabled logging is a no-op.
	cfg2 := DefaultConfig()
	cfg2.TupleLogMax = 0
	tr2, store2, _ := fixture(t, 0, cfg2)
	tr2.LogEvent("arrive", "lookup", 1, 1)
	if store2.Get(TupleLogTable) != nil {
		t.Error("disabled tupleLog must not exist")
	}
}

// TestResetNoResurrection pins the restart-resurrection fix: a node
// that restarts (soft-state loss) reuses tuple IDs from 1, so a stale
// pre-crash ruleExec row left in the table would — when it later
// expires — fire the release subscription against a reused ID and
// evict a live post-restart memo entry. Reset must therefore purge the
// trace tables itself, not just the in-memory maps.
func TestResetNoResurrection(t *testing.T) {
	tr, store, s := fixture(t, 0, DefaultConfig()) // TTL 120
	// Pre-crash activity: IDs 1 and 2 referenced by a ruleExec row
	// inserted at t=10.5 (expires at 130.5).
	ev, out := tup("event", 1), tup("head", 2)
	register(tr, ev)
	register(tr, out)
	tr.Input(s, ev, 10)
	tr.Output(s, out, 10.5)
	tr.StageDone(s, 0)
	tr.TaskDone()
	if tr.MemoSize() != 2 {
		t.Fatalf("pre-crash memo = %d, want 2", tr.MemoSize())
	}

	// Crash + restart at t=50.
	tr.Reset(50)
	if tr.MemoSize() != 0 {
		t.Fatalf("post-reset memo = %d, want 0", tr.MemoSize())
	}
	if got := store.Get(RuleExecTable).Count(); got != 0 {
		t.Fatalf("Reset left %d stale ruleExec rows", got)
	}
	if got := store.Get(TupleTable).Count(); got != 0 {
		t.Fatalf("Reset left %d stale tupleTable rows", got)
	}

	// The restarted process reuses IDs 1 and 2 at t=130.
	ev2, out2 := tup("event", 1), tup("head", 2)
	register(tr, ev2)
	register(tr, out2)
	tr.Input(s, ev2, 130)
	tr.Output(s, out2, 130.5)
	tr.StageDone(s, 0)
	tr.TaskDone()

	// t=135: past the PRE-crash row's expiry (130.5), well before the
	// post-crash row's. With the stale row purged nothing expires; with
	// the old bug this sweep released the reused IDs.
	store.ExpireAll(135)
	if tr.MemoSize() != 2 {
		t.Fatalf("sweep after restart released reused IDs: memo = %d, want 2", tr.MemoSize())
	}
	if _, ok := tr.Name(1); !ok {
		t.Fatal("restart resurrection: stale pre-crash refcount released live memo entry 1")
	}
	if got := store.Get(TupleTable).Count(); got != 2 {
		t.Fatalf("tupleTable rows after sweep = %d, want 2", got)
	}
	if got := store.Get(RuleExecTable).Count(); got != 1 {
		t.Fatalf("ruleExec rows after sweep = %d, want 1", got)
	}
}

// TestResetPoolsRecords: a restarted node runs the same strands, so the
// strand records Reset empties are reused by the next activation instead
// of reallocated.
func TestResetPoolsRecords(t *testing.T) {
	tr, _, s := fixture(t, 2, DefaultConfig())
	ev := tup("event", 1)
	register(tr, ev)
	tr.Input(s, ev, 1)
	tr.Precond(s, 1, tup("p", 2), 1)
	old := &tr.records[s].recs[0]
	tr.Reset(10)
	if got := len(tr.records[s].recs); got != 0 {
		t.Fatalf("records in use after Reset = %d, want 0", got)
	}
	if recs := tr.records[s].recs; findByStage(recs, 1) >= 0 || latest(recs) >= 0 {
		t.Fatal("a pre-restart record is still active after Reset")
	}
	ev2 := tup("event", 1)
	register(tr, ev2)
	if n := testing.AllocsPerRun(1, func() { tr.Input(s, ev2, 20) }); n != 0 {
		t.Fatalf("first activation after Reset: %v allocs, want 0", n)
	}
	got := &tr.records[s].recs[0]
	if got != old {
		t.Fatal("new record was allocated instead of reusing the strand's block")
	}
	if got.filled != 0 || !got.active || got.inID != 1 || got.inTime != 20 {
		t.Fatalf("reused record = %+v, want active on input 1 at 20 with no precondition", *got)
	}
}

// TestStrandRecordsAreOneBlock: however many of its records a strand ends
// up using, they and their precondition slots cost two allocations, on
// the strand's first input.
func TestStrandRecordsAreOneBlock(t *testing.T) {
	tr, _, _ := fixture(t, 2, DefaultConfig())
	// AllocsPerRun calls its function once to warm up (which also makes
	// the records map's first bucket), then once measured: a strand each.
	strands := []*dataflow.Strand{
		{Plan: &dataflow.Plan{RuleID: "r1", Stages: 2}},
		{Plan: &dataflow.Plan{RuleID: "r2", Stages: 2}},
	}
	// The dictionary grows by a string the first time it sees it, not by
	// a strand: it knows both rule IDs already, as it would a restarted
	// node's or a reinstalled query's.
	for _, s := range strands {
		tr.strs.intern(s.RuleID)
	}
	ev, now, run := tup("event", 1), 0.0, 0
	if n := testing.AllocsPerRun(1, func() {
		// No StageDone: every input needs a record of its own, past the cap.
		for i := 0; i < 3*DefaultConfig().RecordsPerStrand; i++ {
			now++
			tr.Input(strands[run], ev, now)
		}
		run++
	}); n != 2 {
		t.Errorf("%d inputs on a new strand: %v allocs, want 2 (its records, their preconditions)", 3*DefaultConfig().RecordsPerStrand, n)
	}
	s := strands[1]
	b := tr.records[s]
	if len(b.recs) != DefaultConfig().RecordsPerStrand {
		t.Fatalf("records = %d, want the cap %d", len(b.recs), DefaultConfig().RecordsPerStrand)
	}
	if len(b.pre) != len(b.recs)*s.Stages {
		t.Fatalf("precondition block = %d slots, want %d records x %d stages", len(b.pre), len(b.recs), s.Stages)
	}
	// Each record's slots are its own: filling one's last stage must not
	// reach into the next one's first.
	for i := range b.recs {
		b.fill(i, s.Stages, s.Stages, precond{id: uint64(i + 1)})
	}
	for i := range b.recs {
		if b.filled(i, 1, s.Stages) || !b.filled(i, s.Stages, s.Stages) || b.pre[i*s.Stages+s.Stages-1].id != uint64(i+1) {
			t.Fatalf("record %d shares precondition slots with a neighbour: %+v %+v", i, b.recs[i], b.pre)
		}
	}
}

// TestMemoEntrySize makes the next field added to a live trace record a
// decision: the forensics workload keeps some 41 000 memo entries, 2 500
// exec records a node, 500 log records and a block of strand records
// live. The bounds are those of the compact layout; the strings, slice
// headers and flags it replaced made them 88, 80, 56, 64 and 24 bytes.
func TestMemoEntrySize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"memoEntry", unsafe.Sizeof(memoEntry{}), 48},
		{"slot[execRec]", unsafe.Sizeof(slot[execRec]{}), 40},
		{"slot[logRec]", unsafe.Sizeof(slot[logRec]{}), 24},
		{"record", unsafe.Sizeof(record{}), 40},
		{"precond", unsafe.Sizeof(precond{}), 16},
		// Emptied every task, so it keeps its strings.
		{"pendingProv", unsafe.Sizeof(pendingProv{}), 64},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.got, c.want)
		}
	}
}

// TestRecordsHoldNoPointers: the live trace records are pointer-free,
// so the collector never scans the rings, the memo's slots or the strand
// blocks, and a record holds no string a task might have lent it.
func TestRecordsHoldNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
			reflect.Func, reflect.Interface, reflect.Chan:
			t.Errorf("%s is a %s", path, ty.Kind())
		}
	}
	for _, v := range []any{memoEntry{}, slot[execRec]{}, slot[logRec]{}, record{}, precond{}} {
		ty := reflect.TypeOf(v)
		walk(ty.Name(), ty)
	}
}

// writePath drives a tracer the way the engine does on a strand without
// joins. Its tuples are laid out as the task arena lays them out: five
// fields aliasing one buffer that is overwritten when the task ends.
type writePath struct {
	tr    *Tracer
	s     *dataflow.Strand
	arena [10]tuple.Value
	id    uint64 // the next task's event; its head is id+1
	now   float64
}

// build lays a 5-field tuple out in the arena's slot (0 or 1).
func (w *writePath) build(slot int, name string, id uint64) tuple.Tuple {
	f := w.arena[5*slot : 5*slot+5 : 5*slot+5]
	f[0], f[1], f[2], f[3], f[4] = tuple.Str("n1"), tuple.ID(id), tuple.Int(int64(id)), tuple.Str(name), tuple.Float(1.5)
	return tuple.Tuple{Name: name, ID: id, Fields: f}
}

func (w *writePath) taskDone() {
	w.tr.TaskDone()
	for i := range w.arena {
		w.arena[i] = tuple.Str("overwritten")
	}
}

// step is one traced task: an event arrives, fires the rule, and the
// head it derives is inserted.
func (w *writePath) step() {
	in, out := w.build(0, "ev", w.id), w.build(1, "head", w.id+1)
	w.id += 2
	w.now += 0.001
	register(w.tr, in)
	w.tr.LogEvent("arrive", "ev", in.ID, w.now)
	w.tr.Input(w.s, in, w.now)
	register(w.tr, out)
	w.tr.Output(w.s, out, w.now)
	w.tr.StageDone(w.s, 0)
	w.tr.LogEvent("insert", "head", out.ID, w.now)
	w.taskDone()
}

// TestWritePathAllocations pins the write path's price: with a store
// attached and nobody reading the reflection tables, tracing allocates
// nothing in steady state — no tuple, no table row, no memo entry, no
// copy of a memoised tuple's fields.
func TestWritePathAllocations(t *testing.T) {
	tr, _, s := fixture(t, 0, DefaultConfig())
	w := &writePath{tr: tr, s: s, id: 100}
	if n := testing.AllocsPerRun(200, func() {
		register(tr, w.build(0, "noise", 42))
		w.taskDone()
	}); n != 0 {
		t.Errorf("Register+TaskDone of an unreferenced tuple: %v allocs, want 0 (the pending slice is reused)", n)
	}
	// One reference taken on a registered tuple and dropped: the pending
	// registration is promoted by value, the memo slot is recycled.
	tr.release(tr.addRef(7)) // the slot and the map's first bucket exist
	if n := testing.AllocsPerRun(200, func() {
		register(tr, w.build(0, "ev", 7))
		i := tr.addRef(7)
		w.taskDone()
		if name, _ := tr.Name(7); name != "ev" {
			t.Fatalf("memoised name after the task's buffer was overwritten = %q", name)
		}
		tr.release(i)
	}); n != 0 {
		t.Errorf("Register+addRef+release: %v allocs, want 0", n)
	}
	if tr.MemoSize() != 0 || tr.tuples.Count() != 0 {
		t.Errorf("cycle left %d memo entries, %d tupleTable rows", tr.MemoSize(), tr.tuples.Count())
	}

	// Steady state: rings full (both bounds reached), store segments
	// rotating. A window's columns are sized from the window before, so
	// only a seal allocates (tracestore.TestSealAllocs counts that); keep
	// seals out of the measured runs with a window longer than they take.
	tr.AttachStore(tracestore.New("n1", tracestore.Config{Enabled: true, WindowSeconds: 1e9, MaxSegments: 4}), nil)
	for i := 0; i < 3*DefaultConfig().RuleExecMax; i++ {
		w.step()
	}
	if n := testing.AllocsPerRun(2000, w.step); n != 0 {
		t.Errorf("steady-state Output+LogEvent, store attached, no reader: %v allocs per task, want 0", n)
	}
	for _, c := range []struct {
		id   uint64
		name string
	}{{w.id - 2, "ev"}, {w.id - 1, "head"}} {
		if name, ok := tr.Name(c.id); !ok || name != c.name {
			t.Errorf("Name(%d) = %q, %v after its task ended, want %q", c.id, name, ok, c.name)
		}
	}
	if got := tr.execs.tb.Count(); got != DefaultConfig().RuleExecMax {
		t.Errorf("ruleExec rows on first read = %d, want the bound %d", got, DefaultConfig().RuleExecMax)
	}
}

// BenchmarkWritePath is one steady-state traced task, TestWritePathAllocations'
// step, in ns and allocs per task: the rings are full, and the attached
// store seals a segment every 1 000 tasks and keeps four, so a long run
// stays in steady state and pays its share of the seals.
func BenchmarkWritePath(b *testing.B) {
	tr, _, s := fixture(b, 0, DefaultConfig())
	tr.AttachStore(tracestore.New("n1", tracestore.Config{Enabled: true, WindowSeconds: 1, MaxSegments: 4}), nil)
	w := &writePath{tr: tr, s: s, id: 100}
	for i := 0; i < 3*DefaultConfig().RuleExecMax; i++ {
		w.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.step()
	}
}

// TestReadBuildsOnlyNewRows pins what a read of a reflection table
// costs: it builds the rows of the records appended since the previous
// read — none for a second read in a row, and never more than the table
// can hold however much was traced in between.
func TestReadBuildsOnlyNewRows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RuleExecMax, cfg.TupleLogMax = 50, 20
	tr, store, s := fixture(t, 0, cfg)
	built := map[string]int{}
	for _, name := range []string{RuleExecTable, TupleTable, TupleLogTable} {
		store.Get(name).Subscribe(func(op table.Op, tp tuple.Tuple) {
			if op == table.OpInsert {
				built[tp.Name]++
			}
		})
	}
	id, now := uint64(1), 0.0
	trace := func(k int) {
		for i := 0; i < k; i++ {
			in, out := tup("ev", id), tup("head", id+1)
			id += 2
			now++
			register(tr, in)
			register(tr, out)
			tr.Input(s, in, now)
			tr.Output(s, out, now)
			tr.StageDone(s, 0)
			tr.LogEvent("insert", "head", out.ID, now)
			tr.TaskDone()
		}
	}
	read := func() {
		for _, name := range []string{RuleExecTable, TupleTable, TupleLogTable} {
			store.Get(name).Scan(now, func(tuple.Tuple) {})
		}
	}
	for _, c := range []struct{ appends, execs, tuples, events int }{
		{appends: 7, execs: 7, tuples: 14, events: 7},
		{appends: 0},
		{appends: 1, execs: 1, tuples: 2, events: 1},
		{appends: 1000, execs: 50, tuples: 100, events: 20}, // the bounds, not the traffic
		{appends: 0},
	} {
		clear(built)
		trace(c.appends)
		if len(built) != 0 {
			t.Fatalf("tracing %d activations with nobody reading built rows: %v", c.appends, built)
		}
		read()
		if built[RuleExecTable] != c.execs || built[TupleTable] != c.tuples || built[TupleLogTable] != c.events {
			t.Errorf("read after %d activations built %v, want %d ruleExec, %d tupleTable, %d tupleLog rows",
				c.appends, built, c.execs, c.tuples, c.events)
		}
	}
	if got := store.Get(RuleExecTable).Count(); got != 50 {
		t.Errorf("ruleExec holds %d rows, want the bound 50", got)
	}
}
