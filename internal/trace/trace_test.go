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
		pre, out := tup("prec", 2+2*i), tup("head", 3+2*i)
		register(tr, pre)
		register(tr, out)
		tr.Precond(s, 1, pre, 11)
		tr.Output(s, out, 12)
	}
	got := rows(t, store)
	if len(got) != 6 {
		t.Fatalf("ruleExec rows = %d, want 6 (2 per output)", len(got))
	}
	// Each output must pair with its own precondition.
	for i := uint64(0); i < 3; i++ {
		found := false
		for _, r := range got {
			if !r.Field(6).AsBool() && r.Field(2).AsID() == 2+2*i && r.Field(3).AsID() == 3+2*i {
				found = true
			}
		}
		if !found {
			t.Errorf("missing precondition link %d -> %d", 2+2*i, 3+2*i)
		}
	}
}

// TestPrecondFlushRule: §2.1.1 — observing a precondition in the middle
// of the strand flushes recorded fields to its right.
func TestPrecondFlushRule(t *testing.T) {
	tr, store, s := fixture(t, 2, DefaultConfig())
	ev := tup("event", 10)
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

// TestInputStartsRecord: the node runs one activation at a time, so an
// input starts the record afresh. Figure 3's second input, arriving
// while the first still produces stage-2 matches, cannot happen; an
// activation abandoned midway (an aggregate whose count-0 group fails)
// must not lend the next one its input or preconditions.
func TestInputStartsRecord(t *testing.T) {
	tr, store, s := fixture(t, 2, DefaultConfig())
	ev1, p1x, p2x, ev2, o1 := tup("event", 1), tup("p1", 2), tup("p2", 3), tup("event", 4), tup("head", 5)
	for _, x := range []tuple.Tuple{ev1, p1x, p2x, ev2, o1} {
		register(tr, x)
	}
	tr.Input(s, ev1, 1)
	tr.Precond(s, 1, p1x, 1.1)
	tr.Precond(s, 2, p2x, 1.2)
	tr.Input(s, ev2, 2)
	tr.Output(s, o1, 2.2)
	got := rows(t, store)
	if len(got) != 1 || got[0].Field(2).AsID() != 4 || !got[0].Field(6).AsBool() || got[0].Field(4).AsFloat() != 2 {
		t.Errorf("ruleExec = %v, want the one event edge 4 -> 5 at 2", got)
	}
}

// TestRecordCap: the tracer keeps one record, the activation's (a §3.4
// resource bound): inputs without outputs produce no rows, and once its
// precondition slots fit the widest strand they allocate nothing.
func TestRecordCap(t *testing.T) {
	tr, store, s := fixture(t, 3, DefaultConfig())
	narrow := &dataflow.Strand{Plan: &dataflow.Plan{RuleID: "r2", Stages: 1}}
	ev, p := tup("event", 100), tup("p", 0)
	tr.Input(s, ev, 0)
	now := 0.0
	if n := testing.AllocsPerRun(10, func() {
		now++
		tr.Input(narrow, ev, now)
		tr.Precond(narrow, 1, p, now)
		tr.Input(s, ev, now)
		tr.Precond(s, 3, p, now)
	}); n != 0 {
		t.Errorf("activations: %v allocs, want 0", n)
	}
	if got := len(tr.rec.pre); got != s.Stages {
		t.Errorf("record holds %d precondition slots, want the strand's %d", got, s.Stages)
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
	if removed := store.Get(RuleExecTable).Delete(pattern, 100); removed != 1 {
		t.Fatalf("removed %d rows", removed)
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

// TestTapEdgeCases: taps with no owning record, of another strand or
// at invalid stages are ignored rather than corrupting state, and a
// precondition with tuple ID 0 is recorded like any other.
func TestTapEdgeCases(t *testing.T) {
	tr, store, s := fixture(t, 2, DefaultConfig())
	other := &dataflow.Strand{Plan: &dataflow.Plan{RuleID: "r2", Stages: 2}}
	// Output with no active record: dropped.
	tr.Output(s, tup("head", 9), 1)
	if store.Get(RuleExecTable).Count() != 0 {
		t.Error("orphan output must not produce rows")
	}
	// Precondition before any input: dropped.
	tr.Precond(s, 1, tup("p", 1), 1)
	// Out-of-range stages and other strands' taps are ignored.
	ev := tup("event", 2)
	register(tr, ev)
	tr.Input(s, ev, 1)
	tr.Precond(s, 0, tup("p", 3), 1)
	tr.Precond(s, 99, tup("p", 4), 1)
	tr.Precond(other, 1, tup("p", 5), 1)
	tr.Output(other, tup("head", 6), 1)
	out := tup("head", 3)
	register(tr, out)
	tr.Output(s, out, 2)
	// Only the event edge exists (no valid preconditions recorded).
	if got := store.Get(RuleExecTable).Count(); got != 1 {
		t.Errorf("rows = %d, want 1", got)
	}
	// An epoch or reflection row carries ID 0; its slot is still filled.
	tr.Precond(s, 2, tup("nodeEpoch", 0), 3)
	out2 := tup("head", 4)
	register(tr, out2)
	tr.Output(s, out2, 3)
	var causes []uint64
	for _, r := range rows(t, store) {
		if r.Field(3).AsID() == 4 {
			causes = append(causes, r.Field(2).AsID())
		}
	}
	if len(causes) != 2 || causes[0]+causes[1] != 2 {
		t.Errorf("causes of head 4 = %v, want the input 2 and precondition 0", causes)
	}
	// The task's end ends the activation: its record no longer owns taps.
	tr.TaskDone()
	if tr.rec.s != nil {
		t.Error("the record still names its strand after TaskDone")
	}
	tr.Output(s, tup("head", 10), 4)
	if got := store.Get(RuleExecTable).Count(); got != 3 {
		t.Errorf("rows after TaskDone and an output = %d, want 3", got)
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

// TestResetNoResurrection pins that Reset (a restart with soft-state
// loss) purges the trace tables itself, not just the in-memory maps: a
// stale pre-crash ruleExec row left in the table would, when it later
// expired, release references on the memo entries it names. The test
// has the tracer see IDs 1 and 2 again after the restart, which a node
// never does, so that such a release would evict a live entry.
func TestResetNoResurrection(t *testing.T) {
	tr, store, s := fixture(t, 0, DefaultConfig()) // TTL 120
	// Pre-crash activity: IDs 1 and 2 referenced by a ruleExec row
	// inserted at t=10.5 (expires at 130.5).
	ev, out := tup("event", 1), tup("head", 2)
	register(tr, ev)
	register(tr, out)
	tr.Input(s, ev, 10)
	tr.Output(s, out, 10.5)
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

	// The same IDs again at t=130.
	ev2, out2 := tup("event", 1), tup("head", 2)
	register(tr, ev2)
	register(tr, out2)
	tr.Input(s, ev2, 130)
	tr.Output(s, out2, 130.5)
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

// TestResetPoolsRecords: Reset ends the activation under way, and the
// restarted node's first activation reuses the record's precondition
// slots instead of allocating them.
func TestResetPoolsRecords(t *testing.T) {
	tr, store, s := fixture(t, 2, DefaultConfig())
	ev := tup("event", 1)
	register(tr, ev)
	tr.Input(s, ev, 1)
	tr.Precond(s, 1, tup("p", 2), 1)
	old := &tr.rec.pre[0]
	tr.Reset(10)
	tr.Output(s, tup("head", 3), 10)
	if got := store.Get(RuleExecTable).Count(); got != 0 {
		t.Fatalf("an output after Reset made %d rows from the pre-restart record", got)
	}
	ev2 := tup("event", 4)
	register(tr, ev2)
	if n := testing.AllocsPerRun(1, func() { tr.Input(s, ev2, 20) }); n != 0 {
		t.Fatalf("first activation after Reset: %v allocs, want 0", n)
	}
	if &tr.rec.pre[0] != old {
		t.Fatal("the record's slots were allocated again instead of reused")
	}
	if r := tr.rec; r.s != s || r.inID != 4 || r.inTime != 20 || r.pre[0].filled || r.pre[1].filled {
		t.Fatalf("record = %+v, want input 4 at 20 with no precondition", r)
	}
}

// TestMemoEntrySize makes the next field added to a live trace record a
// decision: the forensics workload keeps some 41 000 memo entries, 2 500
// exec records a node and 500 log records live. The bounds are those of
// the compact layout; the strings, slice headers and flags it replaced
// made them 88, 80 and 56 bytes.
func TestMemoEntrySize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"memoEntry", unsafe.Sizeof(memoEntry{}), 48},
		{"slot[execRec]", unsafe.Sizeof(slot[execRec]{}), 40},
		{"slot[logRec]", unsafe.Sizeof(slot[logRec]{}), 24},
		// Emptied every task, so it keeps its strings.
		{"pendingProv", unsafe.Sizeof(pendingProv{}), 64},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.got, c.want)
		}
	}
}

// TestRecordsHoldNoPointers: the live trace records are pointer-free,
// so the collector never scans the rings or the memo's slots, and a
// record holds no string a task might have lent it.
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
	for _, v := range []any{memoEntry{}, slot[execRec]{}, slot[logRec]{}} {
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
	tr.AttachStore(tracestore.New("n1", tracestore.Config{WindowSeconds: 1e9, MaxSegments: 4}), nil)
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
	tr.AttachStore(tracestore.New("n1", tracestore.Config{WindowSeconds: 1, MaxSegments: 4}), nil)
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
