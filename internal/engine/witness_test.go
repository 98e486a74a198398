package engine_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"p2go/internal/engine"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// TestAggLineageWitness: on a traced node an aggregate's output records
// its input edge and, for min and max, the preconditions of its witness,
// the first binding to reach the extremum in the rescan's order, however
// many rows the rescan reads after it; a count, sum or avg output records
// its input edge alone.
func TestAggLineageWitness(t *testing.T) {
	s := func(g string, d int64) tuple.Tuple {
		return tuple.New("s", tuple.Str("n1"), tuple.Str(g), tuple.Int(d))
	}
	tr := func(x string) tuple.Tuple { return tuple.New("t", tuple.Str("n1"), tuple.Str(x)) }
	best := func(vs ...tuple.Value) string {
		return tuple.New("best", append([]tuple.Value{tuple.Str("n1")}, vs...)...).String()
	}
	causes := func(rows ...tuple.Tuple) []string {
		out := []string{"input"}
		for _, r := range rows {
			out = append(out, r.String())
		}
		return out
	}
	for _, c := range []struct {
		name, rule string
		rows       []tuple.Tuple
		want       map[string][]string // each output and its causes
	}{
		{"min", `r best@N(min<D>) :- ev@N(E), s@N(G, D).`,
			[]tuple.Tuple{s("a", 5), s("a", 1), s("a", 9)},
			map[string][]string{best(tuple.Int(1)): causes(s("a", 1))}},
		{"max", `r best@N(max<D>) :- ev@N(E), s@N(G, D).`,
			[]tuple.Tuple{s("a", 5), s("a", 9), s("a", 1)},
			map[string][]string{best(tuple.Int(9)): causes(s("a", 9))}},
		{"tie", `r best@N(min<D>) :- ev@N(E), s@N(G, D).`,
			[]tuple.Tuple{s("a", 3), s("b", 1), s("c", 1), s("d", 7)},
			map[string][]string{best(tuple.Int(1)): causes(s("b", 1))}},
		{"max tie", `r best@N(max<D>) :- ev@N(E), s@N(G, D).`,
			[]tuple.Tuple{s("a", 3), s("b", 8), s("c", 8), s("d", 7)},
			map[string][]string{best(tuple.Int(8)): causes(s("b", 8))}},
		{"groups", `r best@N(G, min<D>) :- ev@N(E), s@N(G, D).`,
			[]tuple.Tuple{s("a", 4), s("b", 8), s("a", 2), s("b", 6), s("a", 3), s("b", 7)},
			map[string][]string{
				best(tuple.Str("a"), tuple.Int(2)): causes(s("a", 2)),
				best(tuple.Str("b"), tuple.Int(6)): causes(s("b", 6)),
			}},
		{"two joins", `r best@N(min<D>) :- ev@N(E), t@N(X), s@N(X, D).`,
			[]tuple.Tuple{tr("a"), tr("b"), s("a", 5), s("b", 1), s("a", 9), s("b", 4)},
			map[string][]string{best(tuple.Int(1)): causes(tr("b"), s("b", 1))}},
		{"count", `r best@N(count<*>) :- ev@N(E), s@N(G, D).`,
			[]tuple.Tuple{s("a", 5), s("a", 1), s("a", 9)},
			map[string][]string{best(tuple.Int(3)): causes()}},
		{"sum", `r best@N(sum<D>) :- ev@N(E), s@N(G, D).`,
			[]tuple.Tuple{s("a", 5), s("a", 1), s("a", 9)},
			map[string][]string{best(tuple.Float(15)): causes()}},
		{"avg", `r best@N(avg<D>) :- ev@N(E), s@N(G, D).`,
			[]tuple.Tuple{s("a", 5), s("a", 1), s("a", 9)},
			map[string][]string{best(tuple.Float(5)): causes()}},
	} {
		n := engine.NewNode(engine.Config{Addr: "n1", OnRuleError: func(_ float64, _ string, err error) {
			t.Errorf("%s: %v", c.name, err)
		}})
		if err := n.EnableTracing(trace.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		if err := n.InstallProgram(mustProg(t, `
materialize(s, infinity, infinity, keys(1,2,3)).
materialize(t, infinity, infinity, keys(1,2)).
materialize(best, infinity, infinity, keys(1,2,3)).
`+c.rule)); err != nil {
			t.Fatal(err)
		}
		for _, r := range c.rows {
			n.HandleLocal(r)
		}
		n.HandleLocal(tuple.New("ev", tuple.Str("n1"), tuple.Int(0)))

		rows := map[uint64]string{}
		for _, name := range []string{"s", "t", "best"} {
			n.Table(name).Scan(0, func(r tuple.Tuple) { rows[r.ID] = r.String() })
		}
		got := map[string][]string{}
		n.Table(trace.RuleExecTable).Scan(0, func(r tuple.Tuple) {
			out, ok := rows[r.Field(3).AsID()]
			if r.Field(1).AsStr() != "r" || !ok {
				return
			}
			cause := "input"
			if !r.Field(6).AsBool() {
				if cause, ok = rows[r.Field(2).AsID()]; !ok {
					cause = fmt.Sprintf("#%d", r.Field(2).AsID())
				}
			}
			got[out] = append(got[out], cause)
		})
		for _, cs := range got {
			slices.Sort(cs)
		}
		for _, cs := range c.want {
			slices.Sort(cs)
		}
		if !maps.EqualFunc(got, c.want, slices.Equal) {
			t.Errorf("%s: outputs and their causes\n%v\nwant\n%v", c.name, got, c.want)
		}
	}
}
