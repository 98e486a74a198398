package engine_test

import (
	"fmt"
	"testing"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/table"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

const borrowProgram = `
materialize(item, infinity, infinity, keys(1,2)).
materialize(low, infinity, infinity, keys(1)).
watch(item).
watch(low).
i1 item@N(K, V) :- put@N(K, V).
a1 low@N(min<V>) :- item@N(K, V).
c1 noise@N(K, V) :- churn@N(K, V).
`

// held is a tuple some keeper got hold of, with a deep copy of what it
// said at the time.
type held struct {
	via  string
	t    tuple.Tuple
	want tuple.Tuple
}

func hold(via string, t tuple.Tuple) held {
	return held{via, t, t.Clone()}
}

// TestBorrowedTuplesAreCopied: every tuple a task builds lives in an
// arena that is cleared when the task ends, so whatever outlives the
// task — a stored row, a listener's view of it, an aggregate
// accumulator's rows — must be a copy. OnWatch lends its tuple like the
// rest, so the watcher here keeps its Clone, as every keeper must
// (TestBorrowedTupleNotCopiedReadsNil keeps none). A stored row is the
// table's until it is removed, so the listener keeps a Clone of each row
// it sees removed (table.TestRemovedRowNotCopiedReadsNil keeps none).
// Tuples captured through each of those doors still say what they said
// after a thousand later tasks have reused the arena. (The tracer's memo
// outlives the task too, but keeps no fields: an ID, the predicate name
// and provenance.)
func TestBorrowedTuplesAreCopied(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			var kept []held
			n := engine.NewNode(engine.Config{Addr: "a", Seed: 1,
				OnWatch:     func(_ float64, tp tuple.Tuple) { kept = append(kept, hold("OnWatch", tp.Clone())) },
				OnRuleError: func(_ float64, rule string, err error) { t.Errorf("rule %s: %v", rule, err) },
			})
			if traced { // the rescan path; untraced, a1 is maintained incrementally
				if err := n.EnableTracing(trace.Config{RuleExecTTL: 1e9, RuleExecMax: 1 << 20}); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.InstallProgram(overlog.MustParse(borrowProgram)); err != nil {
				t.Fatal(err)
			}
			items := n.Store().Get("item")
			items.Subscribe(func(op table.Op, tp tuple.Tuple) {
				if op == table.OpDelete {
					// The table refills a removed row's fields once its
					// listeners have seen it go, so this keeper copies the
					// row, and the view it kept of the row's insert.
					for i := range kept {
						if kept[i].via == "Subscribe" && kept[i].t.ID == tp.ID {
							kept[i].t = kept[i].t.Clone()
						}
					}
					tp = tp.Clone()
				}
				kept = append(kept, hold("Subscribe", tp))
			})

			put := func(k int, v string) tuple.Tuple {
				return tuple.New("put", tuple.Str("a"), tuple.Int(int64(k)), tuple.Str(v))
			}
			for k := 0; k < 8; k++ {
				// Half arrive off the wire (decoded into the arena), half locally.
				if k%2 == 0 {
					n.HandleMessage(engine.Envelope{Src: "b", SrcTupleID: uint64(k + 1), Raw: tuple.Marshal(nil, put(k, fmt.Sprint("v", k)))})
				} else {
					n.HandleLocal(put(k, fmt.Sprint("v", k)))
				}
			}
			n.HandleLocal(put(3, "replaced")) // a replacement: delete + insert notifications
			items.Scan(0, func(tp tuple.Tuple) { kept = append(kept, hold("Scan", tp)) })
			// The tracer is not a door: its memo keeps a tuple's ID, name and
			// provenance and none of its fields, so there is nothing in it
			// that could alias the arena. What it keeps must still read right.
			memoNames := func(when string) (memo int) {
				for _, h := range kept {
					if name, ok := n.Tracer().Name(h.t.ID); ok && h.via == "OnWatch" {
						if name != h.want.Name { // its task is over: the memo is on its own already
							t.Errorf("%s: tracer memo of tuple %d is named %q, the watcher saw %v", when, h.t.ID, name, h.want)
						}
						memo++
					}
				}
				return memo
			}
			watched := 0
			if traced {
				if watched = memoNames("before the churn"); watched == 0 {
					t.Fatal("the tracer memoised none of the watched tuples")
				}
			}
			doors := map[string]int{}
			for _, h := range kept {
				doors[h.via]++
			}
			if doors["OnWatch"] < 9 || doors["Subscribe"] < 10 || doors["Scan"] != 8 {
				t.Errorf("captured %v, want every door used", doors)
			}

			for i := 0; i < 1000; i++ {
				n.HandleLocal(tuple.New("churn", tuple.Str("a"), tuple.Int(int64(i)), tuple.Str("overwritten")))
			}
			for _, h := range kept {
				if !h.t.Equal(h.want) {
					t.Errorf("tuple kept through %s now reads %v, was %v", h.via, h.t, h.want)
				}
			}
			if traced {
				if got := memoNames("after the churn"); got != watched {
					t.Errorf("%d watched tuples memoised after the churn, %d before (nothing expires here)", got, watched)
				}
			}
			// The accumulator (or the rescan) still sees the stored rows.
			n.HandleLocal(put(9, "a-first"))
			var low []tuple.Tuple
			n.Store().Get("low").Scan(0, func(tp tuple.Tuple) { low = append(low, tp) })
			if len(low) != 1 || !low[0].Equal(tuple.New("low", tuple.Str("a"), tuple.Str("a-first"))) {
				t.Errorf("low = %v, want the minimum over the stored rows", low)
			}
		})
	}
}

// TestBorrowedTupleNotCopiedReadsNil is the negative twin: a keeper that
// holds on to task storage without copying finds it cleared when the task
// has ended, a watcher that keeps its tuple without Clone finds its
// fields cleared too, and a Send that keeps env.Raw finds the next message
// in it.
func TestBorrowedTupleNotCopiedReadsNil(t *testing.T) {
	var raws [][]byte
	var lent []tuple.Tuple
	n := engine.NewNode(engine.Config{Addr: "a", Seed: 1,
		Send:    func(_ string, env engine.Envelope, _ float64) { raws = append(raws, env.Raw) },
		OnWatch: func(_ float64, tp tuple.Tuple) { lent = append(lent, tp) },
	})
	if err := n.InstallProgram(overlog.MustParse(`
watch(mid).
s0 mid@N(Other, K) :- in@N(Other, K).
s1 out@Other(N, K) :- mid@N(Other, K).
`)); err != nil {
		t.Fatal(err)
	}
	fields := n.HeadFields(2) // what a strand builds a head in
	fields[0], fields[1] = tuple.Str("a"), tuple.Str("kept without a copy")
	for k := int64(1); k <= 2; k++ {
		n.HandleLocal(tuple.New("in", tuple.Str("a"), tuple.Str("b"), tuple.Int(k)))
	}
	if !fields[0].IsNil() || !fields[1].IsNil() {
		t.Errorf("task storage survived the task: %v", fields)
	}
	if len(lent) != 2 || !lent[0].Fields[2].IsNil() {
		t.Errorf("a watched tuple kept without a copy reads %v, want its task's storage cleared", lent)
	}
	first, _, err := tuple.Unmarshal(raws[0])
	if err != nil || first.Field(2).AsInt() != 2 {
		t.Errorf("the first send's Raw, kept without a copy, decodes to %v (%v); want the second message", first, err)
	}
}
