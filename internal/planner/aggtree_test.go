package planner

import (
	"strings"
	"testing"

	"p2go/internal/overlog"
)

func parseRule(t *testing.T, src string) *overlog.Rule {
	t.Helper()
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	rules := prog.Rules()
	if len(rules) != 1 {
		t.Fatalf("parse %q: %d rules", src, len(rules))
	}
	return rules[0]
}

func statsEnv(names ...string) Env {
	mat := map[string]bool{"nodeStats": true, "hostLoad": true}
	for _, n := range names {
		mat[n] = true
	}
	return EnvFunc(func(name string) bool { return mat[name] })
}

func TestAnalyzeClusterAggEligible(t *testing.T) {
	cases := []struct {
		src               string
		op, value, locVar string
	}{
		{`r1 busyTotal@M(sum<V>) :- nodeStats@N(Ep, C, V), C == "BusySeconds".`, "sum", "V", "N"},
		{`r2 liveNodes@M(count<*>) :- nodeStats@N(Ep, C, V), C == "BusySeconds".`, "count", "", "N"},
		{`r3 minLoad@M(min<L>) :- hostLoad@N(L).`, "min", "L", "N"},
		{`r4 avgLoad@M(avg<L>) :- hostLoad@N(L), L >= 0.`, "avg", "L", "N"},
		{`r5 peak@M(max<S>) :- hostLoad@N(L), S := L * 2.`, "max", "S", "N"},
	}
	for _, c := range cases {
		a, err := AnalyzeClusterAgg(parseRule(t, c.src), statsEnv())
		if err != nil {
			t.Errorf("%s: unexpected ineligibility: %v", c.src, err)
			continue
		}
		if a.Op != c.op || a.Value != c.value || a.LocVar != c.locVar || a.RootVar != "M" {
			t.Errorf("%s: analysis = %+v", c.src, a)
		}
	}
}

func TestAnalyzeClusterAggIneligible(t *testing.T) {
	cases := []struct {
		src    string
		reason string // substring of the returned error
	}{
		{`r1 out@n1(sum<V>) :- nodeStats@N(Ep, C, V).`, "variable location"},
		{`r1 out@M(Ep, sum<V>) :- nodeStats@N(Ep, C, V).`, "group-by"},
		{`r1 out@M(V) :- nodeStats@N(Ep, C, V).`, "not an aggregate"},
		{`r1 out@M(count<*>) :- C := 1 + 2.`, "no predicates"},
		{`r1 out@M(count<*>) :- ping@N(X).`, "not a materialized table"},
		{`r1 out@M(sum<V>) :- nodeStats@N(Ep, C, V), hostLoad@P(L).`, "two location"},
		{`r1 out@M(sum<V>) :- nodeStats@N(Ep, C, V), T := f_now().`, "impure"},
		{`r1 out@M(sum<W>) :- nodeStats@N(Ep, C, V).`, "not bound"},
		{`r1 out@N(sum<V>) :- nodeStats@N(Ep, C, V).`, "bound in the body"},
		{`r1 out@M(count<*>) :- periodic@N(E, 5).`, "periodic"},
	}
	for _, c := range cases {
		a, err := AnalyzeClusterAgg(parseRule(t, c.src), statsEnv())
		if err == nil {
			t.Errorf("%s: unexpectedly eligible: %+v", c.src, a)
			continue
		}
		if !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s: reason %q, want substring %q", c.src, err, c.reason)
		}
	}
}

// planProgram compiles every generated rule the way a node would at
// install time: generated tables materialize first, then each rule is
// planned against them.
func planProgram(t *testing.T, src string) *overlog.Program {
	t.Helper()
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, src)
	}
	mat := map[string]bool{
		"nodeStats": true, "hostLoad": true,
		NodeEpochTable: true, TreeParentTable: true,
	}
	for _, m := range prog.Materializations() {
		mat[m.Name] = true
	}
	env := EnvFunc(func(name string) bool { return mat[name] })
	n := 0
	gen := func() string { n++; return "auto" + strings.Repeat("x", n) }
	for _, r := range prog.Rules() {
		if _, err := CompileRule(r, env, gen); err != nil {
			t.Errorf("generated rule does not plan: %v\n%s", err, r)
		}
	}
	return prog
}

func TestRewriteTreeModePlans(t *testing.T) {
	a, err := AnalyzeClusterAgg(parseRule(t,
		`r1 busyTotal@M(sum<V>) :- nodeStats@N(Ep, C, V), C == "BusySeconds".`), statsEnv())
	if err != nil {
		t.Fatal(err)
	}
	src, err := a.Rewrite(SplitConfig{Tag: "busy", Period: 5})
	if err != nil {
		t.Fatal(err)
	}
	prog := planProgram(t, src)
	if got := len(prog.Rules()); got != 8 {
		t.Errorf("tree rewrite emitted %d rules, want 8\n%s", got, src)
	}
	if !strings.Contains(src, TreeParentTable) {
		t.Errorf("tree rewrite does not route on %s:\n%s", TreeParentTable, src)
	}
	for _, want := range []string{"aggPart_busy", "aggSelfW_busy", "aggSubC_busy", "busyTotal@AggN(AggVal)"} {
		if !strings.Contains(src, want) {
			t.Errorf("tree rewrite missing %q:\n%s", want, src)
		}
	}
	// The count merge must install before the weight merge so each tick
	// leaves a consistent (W, C) pair for the upward strands.
	if strings.Index(src, "agg_busy_mc") > strings.Index(src, "agg_busy_mw") {
		t.Errorf("count merge must precede weight merge:\n%s", src)
	}

	// avg finalizes as a guarded float division of the (sum, count) pair.
	a, err = AnalyzeClusterAgg(parseRule(t, `r1 avgLoad@M(avg<L>) :- hostLoad@N(L).`), statsEnv())
	if err != nil {
		t.Fatal(err)
	}
	if src, err = a.Rewrite(SplitConfig{Tag: "load", Period: 2}); err != nil {
		t.Fatal(err)
	}
	planProgram(t, src)
	if !strings.Contains(src, "AggC > 0") || !strings.Contains(src, "1.0 * AggW") {
		t.Errorf("avg finalize missing guard or division:\n%s", src)
	}
}

func TestRewriteFlatCollect(t *testing.T) {
	// Group-by makes this ineligible for the split; the collect
	// fallback mirrors raw rows and runs the rule at the collector.
	rule := parseRule(t, `r1 peaks@M(C, max<V>) :- nodeStats@N(_, C, V), V >= 0.`)
	if _, err := AnalyzeClusterAgg(rule, statsEnv()); err == nil {
		t.Fatal("group-by rule unexpectedly splittable")
	}
	src, err := RewriteFlatCollect(rule, statsEnv(), SplitConfig{Tag: "peaks", Period: 3, Root: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	prog := planProgram(t, src)
	if got := len(prog.Rules()); got != 3 {
		t.Errorf("collect rewrite emitted %d rules, want 3\n%s", got, src)
	}
	for _, want := range []string{`aggRaw_peaks@"n1"`, "peaks@M(C, max<V>)", "aggRaw_peaks@M(N,"} {
		if !strings.Contains(src, want) {
			t.Errorf("collect rewrite missing %q:\n%s", want, src)
		}
	}
	// Multi-predicate bodies are out of scope for raw collection.
	multi := parseRule(t, `r1 out@M(sum<V>) :- nodeStats@N(Ep, C, V), hostLoad@P(L).`)
	if _, err := RewriteFlatCollect(multi, statsEnv(), SplitConfig{Tag: "x", Period: 3, Root: "n1"}); err == nil {
		t.Error("multi-predicate collect unexpectedly succeeded")
	}
}

func TestRewriteValidation(t *testing.T) {
	a, err := AnalyzeClusterAgg(parseRule(t,
		`r1 out@M(count<*>) :- hostLoad@N(L).`), statsEnv())
	if err != nil {
		t.Fatal(err)
	}
	bad := []SplitConfig{
		{Tag: "x y", Period: 5},
		{Tag: "ok", Period: 0},
	}
	for _, cfg := range bad {
		if _, err := a.Rewrite(cfg); err == nil {
			t.Errorf("Rewrite(%+v) unexpectedly succeeded", cfg)
		}
	}
	collide := *a
	collide.Head = "aggPart_ok"
	if _, err := collide.Rewrite(SplitConfig{Tag: "ok", Period: 5}); err == nil {
		t.Error("head/table collision not rejected")
	}
}

// TestRewriteLeafOnTick: a leaf partial whose body reads a table filled
// on read runs on the refresh tick, since that table has no deltas; one
// over an ordinary table is delta-maintained.
func TestRewriteLeafOnTick(t *testing.T) {
	env := EnvFunc(func(string) bool { return true })
	for _, tc := range []struct {
		body   string
		onTick bool
	}{
		{`nodeStats@N(Ep, C, V)`, true},
		{`ruleTable@N(Q, R, Trig, V)`, true},
		{`ruleExec@N(R, In, V, InT, OutT, Ev)`, true},
		{`hostLoad@N(V)`, false},
	} {
		a, err := AnalyzeClusterAgg(parseRule(t, `r1 out@M(count<*>) :- `+tc.body+`.`), env)
		if err != nil {
			t.Fatal(err)
		}
		src, err := a.Rewrite(SplitConfig{Tag: "x", Period: 5})
		if err != nil {
			t.Fatal(err)
		}
		leaf := ":- aggTick_x@N(AggE), " + tc.body + "."
		if got := strings.Contains(src, leaf); got != tc.onTick {
			t.Errorf("%s: leaf on the tick = %v, want %v\n%s", tc.body, got, tc.onTick, src)
		}
	}
}
