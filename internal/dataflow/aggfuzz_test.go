package dataflow

import (
	"fmt"
	"testing"

	"p2go/internal/overlog"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

// aggFuzzOps and aggFuzzShapes are what the first byte of a FuzzAggMaint
// input picks from.
var aggFuzzOps = []string{"count", "sum", "avg", "min", "max"}

const (
	aggFuzzShapes   = 4
	aggFuzzBulk     = 1200 // rows one bulk op inserts: a group passes 1 000
	aggFuzzLifetime = 10   // the primary table's TTL, in seconds
	aggFuzzMaxOps   = 48
	aggFuzzMaxBulk  = 2 // bulk inserts per input, which bound its cost
)

// aggFuzzStrand hand-rolls the planner's compiled form of one of four
// maintainable rules over the primary table tab@N(K, G, V), keyed on K,
// and the secondary sec@N(G, X):
//
//	0  out@N(op<V>)    :- tab@N(K, G, V).
//	1  out@N(G, op<V>) :- tab@N(K, G, V).
//	2  out@N(G, op<V>) :- tab@N(K, G, V), sec@N(G, X).
//	3  out@N(X, op<V>) :- tab@N(K, G, V), sec@N(G, X).
//
// In shapes 2 and 3 a row makes one completion per sec row of its G: none,
// one or several, in one group (shape 2, so the row lists its group key
// more than once) or in several (shape 3).
func aggFuzzStrand(op string, shape int) *Strand {
	v := func(name string) overlog.Expr { return &overlog.Var{Name: name} }
	slot := 3
	if op == "count" {
		slot = -1
	}
	p := &Plan{
		RuleID:   "f1",
		Trigger:  Trigger{Kind: TriggerDelta, Name: "tab", FieldSlots: []int{0, -1, -1, -1}, FieldConsts: make([]tuple.Value, 4)},
		NumVars:  5,
		VarNames: []string{"N", "K", "G", "V", "X"},
		Ops: []Op{
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 2, 3}, FieldConsts: make([]tuple.Value, 4)},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{v("N"), &overlog.Agg{Op: op, Var: "V"}},
		Agg:      &AggSpec{Op: op, Slot: slot, ArgIndex: 1, EmitZero: op == "count"},
		AggPlan:  &AggPlan{Primary: "tab", Filter: []AggFilterPos{{GroupIdx: 0, Slot: 0}}},
		Stages:   1,
	}
	if shape >= 2 {
		p.Ops = append(p.Ops, &JoinOp{Table: "sec", Stage: 2, FieldSlots: []int{0, 2, 4}, FieldConsts: make([]tuple.Value, 3)})
		p.AggPlan.Secondaries = []string{"sec"}
		p.Stages = 2
	}
	switch shape {
	case 1, 2:
		p.Trigger.FieldSlots[2] = 2
		p.HeadArgs = []overlog.Expr{v("N"), v("G"), &overlog.Agg{Op: op, Var: "V"}}
		p.Agg.ArgIndex = 2
		p.AggPlan.Filter = append(p.AggPlan.Filter, AggFilterPos{GroupIdx: 1, Slot: 2})
	case 3:
		p.HeadArgs = []overlog.Expr{v("N"), v("X"), &overlog.Agg{Op: op, Var: "V"}}
		p.Agg.ArgIndex = 2
		p.Agg.EmitZero = false // X is not bound by the trigger
	}
	return strandOf(p)
}

// aggFuzzValue is a value with many ties: 0..15 as an int, as the float
// equal to it, or as a tenth, which sums with rounding.
func aggFuzzValue(b byte) tuple.Value {
	m := int64(b % 16)
	switch (b >> 4) % 4 {
	case 2:
		return tuple.Float(float64(m))
	case 3:
		return tuple.Float(float64(m) / 10)
	}
	return tuple.Int(m)
}

func aggFuzzRow(k, g int64, v tuple.Value) tuple.Tuple {
	return tuple.New("tab", tuple.Str("n1"), tuple.Int(k), tuple.Int(g), v)
}

// aggMaintBroken returns the first broken invariant of a valid
// accumulator's bookkeeping, or "". The emissions can stay right while
// the bookkeeping leaks, so the fuzzer checks both.
func aggMaintBroken(am *AggMaint) string {
	if !am.valid {
		return ""
	}
	free := 0
	for i := am.free; i != noRow; i = am.slab[i].next {
		if r := am.slab[i]; len(r.groups) != 0 || r.fields != nil {
			return fmt.Sprintf("free slot %d holds %v, keys %v", i, r.fields, r.groups)
		}
		free++
	}
	rows, keys := 0, 0
	for _, first := range am.rows {
		for i := first; i != noRow; i = am.slab[i].next {
			rows++
			keys += len(am.slab[i].groups)
		}
	}
	if rows+free != len(am.slab) {
		return fmt.Sprintf("%d chained and %d free slots in a slab of %d", rows, free, len(am.slab))
	}
	live := 0
	for _, g := range am.groups {
		n, first := 0, -1
		for i, c := range g.recs {
			if !c.dead {
				n++
				if first < 0 {
					first = i
				}
			}
		}
		if n == 0 || n != g.live || first != g.head {
			return fmt.Sprintf("group %v: %d live from %d, recorded %d from %d", g.vals, n, first, g.live, g.head)
		}
		if dead := len(g.recs) - n; dead > n/2 {
			return fmt.Sprintf("group %v: %d dead contributions to %d live", g.vals, dead, n)
		}
		n, lo, hi := 0, -1, -1
		for i, c := range g.byVal {
			if !c.dead {
				n++
				if lo < 0 {
					lo = i
				}
				hi = i + 1
			}
		}
		if n != g.vlive || (n > 0 && (lo != g.vlo || hi != g.vhi)) {
			return fmt.Sprintf("group %v: %d live values in [%d,%d), recorded %d in [%d,%d)", g.vals, n, lo, hi, g.vlive, g.vlo, g.vhi)
		}
		if dead := len(g.byVal) - n; dead > n/2 {
			return fmt.Sprintf("group %v: %d dead values to %d live", g.vals, dead, n)
		}
		live += g.live
	}
	if keys != live {
		return fmt.Sprintf("rows list %d group keys for %d live contributions", keys, live)
	}
	return ""
}

// FuzzAggMaint drives one maintained strand through random inserts,
// same-key replacements, deletes, TTL expiry, bulk clears of its primary
// table and changes to its secondary (whose rows expire too), and after every trigger demands
// the maintained emission equal the rescan's, field kinds and float bits
// included. After every op the accumulator's bookkeeping must hold
// (aggMaintBroken). The first byte picks the aggregate and the rule shape; each
// later op reads one byte and its operands:
//
//	0 k1 k2 v  insert one row (key k1 + 256·(k2 mod 5), group k2 mod 3)
//	1 s        insert 1 200 rows from seed s, replacing those with their keys
//	           (the first two bulk ops of an input; later ones are skipped)
//	2 k1 k2    delete one key
//	3 s        delete every (2 + s mod 5)-th key
//	4 d        advance the clock d mod 8 seconds (rows live 10)
//	5          clear the primary table (crash amnesia)
//	6 s        insert or delete one secondary row
//	7 g        trigger with group g mod 3
func FuzzAggMaint(f *testing.F) {
	for op := range aggFuzzOps {
		for shape := 0; shape < aggFuzzShapes; shape++ {
			f.Add([]byte{byte(op + len(aggFuzzOps)*shape),
				1, 42, 7, 0, 1, 43, 7, 1, 0, 9, 1, 0x2f, 7, 1, 2, 9, 1, 7, 0,
				3, 3, 7, 0, 4, 6, 7, 0, 6, 4, 7, 2, 0, 7, 2, 0x2e, 4, 5, 7, 0,
				5, 7, 0, 0, 1, 0, 0x3f, 2, 7, 2, 4, 11, 7, 0})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		op := aggFuzzOps[int(data[0])%len(aggFuzzOps)]
		shape := int(data[0]) / len(aggFuzzOps) % aggFuzzShapes
		s := aggFuzzStrand(op, shape)
		store := table.NewStore()
		tab, err := store.Materialize(table.Spec{Name: "tab", Lifetime: aggFuzzLifetime, MaxSize: table.Infinity, Keys: []int{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		sec, err := store.Materialize(table.Spec{Name: "sec", Lifetime: 3 * aggFuzzLifetime, MaxSize: table.Infinity, Keys: []int{1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		for _, gx := range [][2]int64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}} {
			sec.Insert(tuple.New("sec", tuple.Str("n1"), tuple.Int(gx[0]), tuple.Int(gx[1])), 0) //nolint:errcheck
		}
		// The engine's listener wiring: the primary maintains, a
		// secondary invalidates.
		ctx := &aggCtx{fakeCtx: fakeCtx{store: store}, am: NewAggMaint(s)}
		tab.Subscribe(func(op table.Op, tu tuple.Tuple) { ctx.am.Apply(ctx, op, tu) })
		if shape >= 2 {
			sec.Subscribe(func(table.Op, tuple.Tuple) { ctx.am.Invalidate() })
		}
		trigger := func(g byte) {
			runBoth(t, ctx, s, aggFuzzRow(0, int64(g%3), tuple.Int(0)))
		}
		rest := data[1:]
		next := func() byte {
			if len(rest) == 0 {
				return 0
			}
			b := rest[0]
			rest = rest[1:]
			return b
		}
		bulks := 0
		for n := 0; len(rest) > 0 && n < aggFuzzMaxOps; n++ {
			switch next() % 8 {
			case 0:
				k1, k2, v := next(), next(), next()
				tab.Insert(aggFuzzRow(int64(k1)+256*int64(k2%5), int64(k2%3), aggFuzzValue(v)), ctx.now) //nolint:errcheck
			case 1:
				x := uint32(next())*2654435761 + 1
				if bulks++; bulks > aggFuzzMaxBulk {
					break
				}
				base := int64(x>>8) % 4 * 100
				for k := base; k < base+aggFuzzBulk; k++ {
					x = x*1664525 + 1013904223
					g := int64(0)
					if k%8 == 0 {
						g = 1 + k/8%2
					}
					tab.Insert(aggFuzzRow(k, g, aggFuzzValue(byte(x>>24))), ctx.now) //nolint:errcheck
				}
			case 2:
				k1, k2 := next(), next()
				tab.DeleteKey(aggFuzzRow(int64(k1)+256*int64(k2%5), 0, tuple.Nil))
			case 3:
				b := next()
				step := int64(2 + b%5)
				for k := int64(b) % step; k < 1500; k += step {
					tab.DeleteKey(aggFuzzRow(k, 0, tuple.Nil))
				}
			case 4:
				ctx.now += float64(next() % 8)
			case 5:
				tab.Clear()
			case 6:
				b := next()
				row := tuple.New("sec", tuple.Str("n1"), tuple.Int(int64(b%3)), tuple.Int(int64(b/3%3)))
				if b&0x80 != 0 {
					sec.DeleteKey(row)
				} else {
					sec.Insert(row, ctx.now) //nolint:errcheck
				}
			case 7:
				trigger(next())
			}
			if msg := aggMaintBroken(ctx.am); msg != "" {
				t.Fatalf("after op %d: %s", n, msg)
			}
		}
		trigger(0)
		trigger(1)
	})
}

// TestAggMaintSecondaryExpiresMidInsert: a secondary row that expires
// while an insert's pipeline scans the secondary invalidates the
// accumulator in the middle of that insert. The insert must finish
// into storage the next rebuild resets, not into dropped maps (which
// panicked), and the next trigger must rebuild.
func TestAggMaintSecondaryExpiresMidInsert(t *testing.T) {
	s := aggFuzzStrand("count", 2)
	store := table.NewStore()
	tab, err := store.Materialize(table.Spec{Name: "tab", Lifetime: table.Infinity, MaxSize: table.Infinity, Keys: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sec, err := store.Materialize(table.Spec{Name: "sec", Lifetime: 5, MaxSize: table.Infinity, Keys: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &aggCtx{fakeCtx: fakeCtx{store: store}, am: NewAggMaint(s)}
	tab.Subscribe(func(op table.Op, tu tuple.Tuple) { ctx.am.Apply(ctx, op, tu) })
	sec.Subscribe(func(table.Op, tuple.Tuple) { ctx.am.Invalidate() })
	sec.Insert(tuple.New("sec", tuple.Str("n1"), tuple.Int(0), tuple.Int(0)), 0) //nolint:errcheck
	sec.Insert(tuple.New("sec", tuple.Str("n1"), tuple.Int(0), tuple.Int(1)), 3) //nolint:errcheck
	tab.Insert(aggFuzzRow(1, 0, tuple.Int(1)), 0)                                //nolint:errcheck
	trig := aggFuzzRow(0, 0, tuple.Int(0))
	if got := runBoth(t, ctx, s, trig); len(got) != 1 || got[0].Fields[2].AsInt() != 2 {
		t.Fatalf("before the expiry: %v, want one count of 2", got)
	}
	ctx.now = 6                                         // the first sec row expires when the insert's join scans sec
	tab.Insert(aggFuzzRow(2, 0, tuple.Int(1)), ctx.now) //nolint:errcheck
	if ctx.am.Valid() {
		t.Fatal("the secondary's expiry did not invalidate the accumulator")
	}
	if got := runBoth(t, ctx, s, trig); len(got) != 1 || got[0].Fields[2].AsInt() != 2 {
		t.Fatalf("after the expiry: %v, want one count of 2", got)
	}
}
