package trace

import (
	"testing"

	"p2go/internal/table"
	"p2go/internal/tuple"
)

func countRows(store *table.Store, name string, now float64) int {
	n := 0
	store.Get(name).Scan(now, func(tuple.Tuple) { n++ })
	return n
}

// TestEvictionReleasesMemo is the long-churn regression test for the
// tracer's reference counting: a bounded ruleExec table under sustained
// activations must keep the tuple memo (and tupleTable) bounded too —
// every eviction releases its references — and expiring every ruleExec
// row must drain the memo to exactly zero.
func TestEvictionReleasesMemo(t *testing.T) {
	cfg := Config{RuleExecTTL: 1e6, RuleExecMax: 50, TupleLogMax: 0}
	tr, store, s := fixture(t, 0, cfg)

	const rounds = 10000
	id := uint64(1)
	maxMemo := 0
	for i := 0; i < rounds; i++ {
		now := float64(i)
		in, out := tup("ev", id), tup("head", id+1)
		id += 2
		register(tr, in)
		register(tr, out)
		tr.Input(s, in, now)
		tr.Output(s, out, now+0.1)
		tr.TaskDone()
		if m := tr.MemoSize(); m > maxMemo {
			maxMemo = m
		}
	}

	// Each surviving ruleExec row references two tuples, so the memo is
	// bounded by 2×RuleExecMax regardless of churn length.
	if maxMemo > 2*cfg.RuleExecMax {
		t.Fatalf("memo grew to %d entries over %d rounds; bound is %d",
			maxMemo, rounds, 2*cfg.RuleExecMax)
	}
	if got := countRows(store, RuleExecTable, 0); got > cfg.RuleExecMax {
		t.Fatalf("ruleExec holds %d rows, bound is %d", got, cfg.RuleExecMax)
	}
	if got, want := countRows(store, TupleTable, 0), tr.MemoSize(); got != want {
		t.Fatalf("tupleTable rows = %d, memo = %d; must stay in lockstep", got, want)
	}

	// Let every ruleExec row expire: the delete notifications must drive
	// every refcount to zero and empty both the memo and tupleTable.
	store.ExpireAll(float64(rounds) + cfg.RuleExecTTL + 1)
	if got := tr.MemoSize(); got != 0 {
		t.Fatalf("memo holds %d entries after full expiry, want 0", got)
	}
	if got := countRows(store, TupleTable, 0); got != 0 {
		t.Fatalf("tupleTable holds %d rows after full expiry, want 0", got)
	}
	if got := countRows(store, RuleExecTable, float64(rounds)+cfg.RuleExecTTL+2); got != 0 {
		t.Fatalf("ruleExec holds %d rows after full expiry, want 0", got)
	}
}
