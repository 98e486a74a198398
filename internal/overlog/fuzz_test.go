package overlog

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"p2go/internal/tuple"
)

// TestParseNeverPanics: arbitrary byte soup must produce an error or a
// program, never a panic (property-based robustness).
func TestParseNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseTokenSoup: random sequences of valid tokens must not panic
// either (they exercise deeper parser paths than byte soup).
func TestParseTokenSoup(t *testing.T) {
	tokens := []string{
		"foo", "Bar", "_", "42", "3.5", `"str"`, "(", ")", "[", "]",
		",", ".", "@", ":-", ":=", "+", "-", "*", "/", "%", "==", "!=",
		"<", ">", "<=", ">=", "<<", "&&", "||", "in", "count", "min",
		"materialize", "watch", "delete", "keys", "infinity", "periodic",
		"f_now",
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		n := 1 + r.Intn(20)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteString(tokens[r.Intn(len(tokens))])
			b.WriteByte(' ')
		}
		src := b.String()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic on token soup %q: %v", src, rec)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// TestRoundTripStability: every statement that parses prints to a form
// that reparses to the same print (idempotent pretty-printing), checked
// over generated rules.
func TestRoundTripStability(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	heads := []string{"a@N(X)", "b@N(X, Y)", "c@M(count<*>)", "d@N(X, min<Y>)"}
	bodies := []string{
		"e@N(X)", "f@N(X, Y)", "g@M(Y)", "X != 3", `Y := f_now()`,
		"X in (1, 5]", "periodic@N(E, 5)",
	}
	for i := 0; i < 500; i++ {
		var parts []string
		parts = append(parts, bodies[r.Intn(2)]) // ensure a binding predicate
		for j := 0; j < r.Intn(3); j++ {
			parts = append(parts, bodies[r.Intn(len(bodies))])
		}
		src := heads[r.Intn(len(heads))] + " :- " + strings.Join(parts, ", ") + "."
		prog, err := Parse(src)
		if err != nil {
			continue // some combinations are legitimately invalid
		}
		out1 := prog.Statements[0].String()
		prog2, err := Parse(out1)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", out1, src, err)
		}
		if out2 := prog2.Statements[0].String(); out2 != out1 {
			t.Fatalf("unstable print: %q -> %q", out1, out2)
		}
	}
}

// FuzzParse: native fuzzing entry — arbitrary source must never panic,
// and any program that parses must pretty-print to a reparsable form.
func FuzzParse(f *testing.F) {
	f.Add(`materialize(link, 100, 5, keys(1)).`)
	f.Add(`p1 path@B(C, [B, A] + P, W1 + W2) :- link@A(B, W1), path@A(C, P, W2).`)
	f.Add(`cs9 consistency@N(P, C) :- periodic@N(E, 20), t@N(P, T, L), T < f_now() - 20, m@N(P, R), C := (R * 1.0) / L.`)
	f.Add(`d delete x@N(K, V) :- drop@N(K).`)
	f.Add(`a out@N(K, count<*>) :- ev@N(K), tab@N(K, D).`)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		for _, st := range prog.Statements {
			out := st.String()
			if _, err := Parse(out); err != nil {
				t.Fatalf("printed form %q does not reparse: %v", out, err)
			}
		}
	})
}

// StockPrograms are the programs this repo ships (Chord, the §3.1
// monitor suite, snapshot, chainrep, the aggregation-tree rewrite):
// FuzzCompile seeds its corpus with every expression in them. This
// package cannot import the packages that define them, so
// stock_test.go (package overlog_test) fills it in before any test runs.
var StockPrograms []*Program

// FuzzCompile holds the compiled evaluator to the tree walk it replaced
// (evalref_test.go): an expression parsed from src, its variables bound
// from binds to int, id, float, string or list values, to a nil slot or
// to no slot at all, must give the same kind, an equal value and the
// same error text both ways.
func FuzzCompile(f *testing.F) {
	var seeds []string
	for _, prog := range StockPrograms {
		for _, r := range prog.Rules() {
			for _, a := range r.Head.AllArgs() {
				if _, isAgg := a.(*Agg); !isAgg {
					seeds = append(seeds, a.String())
				}
			}
			for _, term := range r.Body {
				switch t := term.(type) {
				case *Cond:
					seeds = append(seeds, t.Expr.String())
				case *Assign:
					seeds = append(seeds, t.Expr.String())
				}
			}
		}
	}
	for _, c := range slices.Concat(evalCases, moreEvalCases) {
		seeds = append(seeds, c.src)
	}
	seeds = append(seeds, slices.Concat(evalErrorCases, moreEvalErrorCases)...)
	for _, src := range seeds {
		f.Add(src, []byte(nil))                              // every variable without a slot
		f.Add(src, []byte{1, 0, 1, 0, 1, 0})                 // nil slots
		f.Add(src, []byte{3, 200, 3, 7, 3, 90, 2, 5, 3, 40}) // ids and an int
		f.Add(src, []byte{2, 3, 4, 9, 5, 1, 6, 2, 2, 250})   // one of each
	}
	f.Fuzz(func(t *testing.T, src string, binds []byte) {
		if len(src) > 4096 {
			return
		}
		prog, err := Parse(`x@N(V) :- y@N(A), V := ` + src + `.`)
		if err != nil || len(prog.Rules()) != 1 {
			return
		}
		r := prog.Rules()[0]
		if len(r.Body) != 2 {
			return
		}
		a, ok := r.Body[1].(*Assign)
		if !ok {
			return
		}
		names, env := bindings(a.Expr, binds)
		lookup := func(name string) (tuple.Value, bool) {
			if i := slices.Index(names, name); i >= 0 {
				return env[i], !env[i].IsNil()
			}
			return tuple.Nil, false
		}
		want, werr := Eval(a.Expr, lookup, testCtx{})
		got, gerr := Compile(a.Expr, func(name string) int { return slices.Index(names, name) })(env, testCtx{})
		switch {
		case (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error():
			t.Fatalf("%s: compiled error %v, reference %v", src, gerr, werr)
		case werr == nil && (got.Kind() != want.Kind() || !got.Equal(want) && got.String() != want.String()):
			t.Fatalf("%s: compiled %v (%s), reference %v (%s)", src, got, got.Kind(), want, want.Kind())
		}
	})
}

// bindings lays out the variables of e in sorted order from data: per
// variable one byte picks no slot, a nil slot, or an int, id, float,
// string or list value, and the next byte picks the value. Variables
// past the end of data get no slot.
func bindings(e Expr, data []byte) (names []string, env []tuple.Value) {
	var vars []string
	for name := range Vars(e) {
		vars = append(vars, name)
	}
	slices.Sort(vars)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for _, name := range vars {
		var v tuple.Value
		switch kind, n := next()%7, next(); kind {
		case 0:
			continue
		case 1:
			// A slot left nil: unbound at run time.
		case 2:
			v = tuple.Int(int64(int8(n)))
		case 3:
			v = tuple.ID(uint64(n)<<56 | uint64(n))
		case 4:
			v = tuple.Float(float64(int8(n)) / 4)
		case 5:
			v = tuple.Str(string(rune('a' + n%26)))
		case 6:
			v = tuple.List(tuple.Int(int64(n%4)), tuple.Str("x"))
		}
		names = append(names, name)
		env = append(env, v)
	}
	return names, env
}
