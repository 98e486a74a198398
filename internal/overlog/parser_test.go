package overlog

import (
	"slices"
	"strings"
	"testing"

	"p2go/internal/tuple"
)

func parseOne(t *testing.T, src string) Stmt {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if len(prog.Statements) != 1 {
		t.Fatalf("Parse(%q): %d statements", src, len(prog.Statements))
	}
	return prog.Statements[0]
}

func TestParseMaterialize(t *testing.T) {
	m := parseOne(t, `materialize(path, 100, 5, keys(1,2)).`).(*Materialize)
	if m.Name != "path" || m.Lifetime != 100 || m.MaxSize != 5 {
		t.Errorf("got %+v", m)
	}
	if len(m.Keys) != 2 || m.Keys[0] != 1 || m.Keys[1] != 2 {
		t.Errorf("keys = %v", m.Keys)
	}
	m = parseOne(t, `materialize(oscill, 120, infinity, keys(2,3)).`).(*Materialize)
	if m.MaxSize != -1 {
		t.Errorf("infinity size = %d", m.MaxSize)
	}
	m = parseOne(t, `materialize(node, infinity, 1, keys(1)).`).(*Materialize)
	if m.Lifetime != -1 {
		t.Errorf("infinity lifetime = %v", m.Lifetime)
	}
}

func TestParseWatch(t *testing.T) {
	w := parseOne(t, `watch(lookupResults).`).(*Watch)
	if w.Name != "lookupResults" {
		t.Errorf("watch name = %q", w.Name)
	}
}

func TestParseSimpleRule(t *testing.T) {
	r := parseOne(t, `path(B,C,P,W) :- link(A,B,W2), path(A,C,P,W3).`).(*Rule)
	if r.Label != "" || r.Delete {
		t.Errorf("label/delete: %+v", r)
	}
	if r.Head.Name != "path" || len(r.Head.AllArgs()) != 4 {
		t.Errorf("head = %v", r.Head)
	}
	if len(r.Predicates()) != 2 {
		t.Errorf("predicates = %d", len(r.Predicates()))
	}
}

func TestParseLabeledRuleWithLocSpec(t *testing.T) {
	r := parseOne(t, `rp2 respBestSucc@ReqAddr(NAddr, SAddr) :- reqBestSucc@NAddr(ReqAddr), bestSucc@NAddr(SID, SAddr).`).(*Rule)
	if r.Label != "rp2" {
		t.Errorf("label = %q", r.Label)
	}
	if r.Head.Loc == nil {
		t.Fatal("head must have explicit location")
	}
	if v, ok := r.Head.Loc.(*Var); !ok || v.Name != "ReqAddr" {
		t.Errorf("head loc = %v", r.Head.Loc)
	}
	all := r.Head.AllArgs()
	if len(all) != 3 {
		t.Errorf("head AllArgs = %d", len(all))
	}
}

func TestParseDeleteRule(t *testing.T) {
	r := parseOne(t, `cs10 delete lookupCluster@NAddr(ProbeID, T, Count) :- consistency@NAddr(ProbeID, Consistency).`).(*Rule)
	if !r.Delete || r.Label != "cs10" {
		t.Errorf("got %+v", r)
	}
}

func TestParseAggregates(t *testing.T) {
	r := parseOne(t, `os3 countOscill@NAddr(OscillAddr, count<*>) :- periodic@NAddr(E, 60), oscill@NAddr(OscillAddr, Time).`).(*Rule)
	if !r.HasAggregate() {
		t.Fatal("rule must have aggregate")
	}
	agg := r.Head.Args[1].(*Agg)
	if agg.Op != "count" || agg.Var != "" {
		t.Errorf("agg = %+v", agg)
	}
	r = parseOne(t, `l2 bestLookupDist@NAddr(K, R, E, min<D>) :- node@NAddr(NID), lookup@NAddr(K, R, E), finger@NAddr(FPos, FID, FAddr), D := K - FID - 1, FID in (NID, K).`).(*Rule)
	agg = r.Head.Args[3].(*Agg)
	if agg.Op != "min" || agg.Var != "D" {
		t.Errorf("agg = %+v", agg)
	}
	if _, err := Parse(`bad@N(count<*>, max<X>) :- t@N(X).`); err == nil {
		t.Error("two aggregates must be rejected")
	}
}

func TestParseConditionsAndAssignments(t *testing.T) {
	r := parseOne(t, `os1 oscill@NAddr(SAddr, T) :- faultyNode@NAddr(SAddr, T1), sendPred@NAddr(SID, SAddr), T := f_now().`).(*Rule)
	if len(r.Body) != 3 {
		t.Fatalf("body len = %d", len(r.Body))
	}
	a, ok := r.Body[2].(*Assign)
	if !ok || a.Var != "T" {
		t.Fatalf("assign = %v", r.Body[2])
	}
	if _, ok := a.Expr.(*Call); !ok {
		t.Errorf("assign expr = %v", a.Expr)
	}

	r = parseOne(t, `sr11 channelState@NAddr(Src, E, "Done") :- haveSnap@NAddr(Src, E, C), backPointer@NAddr(Remote), (C > 0) || (Src == Remote).`).(*Rule)
	c, ok := r.Body[2].(*Cond)
	if !ok {
		t.Fatalf("cond = %v", r.Body[2])
	}
	b, ok := c.Expr.(*Binary)
	if !ok || b.Op != "||" {
		t.Errorf("cond expr = %v", c.Expr)
	}
}

func TestParseRangeExpr(t *testing.T) {
	r := parseOne(t, `l1 lookupResults@R(K, SID, SAddr, E, RespAddr) :- node@NAddr(NID), lookup@NAddr(K, R, E), bestSucc@NAddr(SID, SAddr), K in (NID, SID].`).(*Rule)
	c := r.Body[3].(*Cond)
	rng, ok := c.Expr.(*RangeExpr)
	if !ok {
		t.Fatalf("expected range, got %v", c.Expr)
	}
	if !rng.LoOpen || rng.HiOpen {
		t.Errorf("interval openness: %+v", rng)
	}
	// Closed-low open-high form.
	r = parseOne(t, `x@N(K) :- y@N(K, A, B), K in [A, B).`).(*Rule)
	rng = r.Body[1].(*Cond).Expr.(*RangeExpr)
	if rng.LoOpen || !rng.HiOpen {
		t.Errorf("interval openness: %+v", rng)
	}
}

func TestParseArithHeadAndPrecedence(t *testing.T) {
	r := parseOne(t, `ri4 countWraps@NAddr(SAddr, E, SrcAddr, SID, Wraps + 1) :- ordering@NAddr(E, SrcAddr, MyID, Wraps), bestSucc@NAddr(SAddr, SID), MyID >= SID.`).(*Rule)
	b, ok := r.Head.Args[4].(*Binary)
	if !ok || b.Op != "+" {
		t.Fatalf("head arith = %v", r.Head.Args[4])
	}
	// Precedence: 1 + 2 * 3 == 7.
	r = parseOne(t, `x@N(V) :- y@N(A), V := 1 + 2 * 3.`).(*Rule)
	v, err := evalExpr(r.Body[1].(*Assign).Expr, nil)
	if err != nil || v.AsInt() != 7 {
		t.Errorf("1+2*3 = %v (%v)", v, err)
	}
	// Shift binds tighter than comparison: K := NID + (1 << I).
	r = parseOne(t, `ff@N(K) :- node@N(NID, I), K := NID + (1 << I).`).(*Rule)
	if _, ok := r.Body[1].(*Assign); !ok {
		t.Error("expected assignment")
	}
}

func TestParseListLiteral(t *testing.T) {
	r := parseOne(t, `path(B, C, P2, W) :- link(A, B, W1), path(A, C, P, W2), P2 := [B, A] + P, W := W1 + W2.`).(*Rule)
	a := r.Body[2].(*Assign)
	add := a.Expr.(*Binary)
	if _, ok := add.L.(*ListExpr); !ok {
		t.Errorf("list literal = %v", add.L)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`x@N(A) :- y@N(A)`,                        // missing dot
		`x@N(A) :- .`,                             // empty body term
		`materialize(x, 10, 5).`,                  // missing keys
		`x@N(A) :- y@N(A + 1).`,                   // expr in body predicate arg
		`x@N(count<*>) :- y@N(A), delete z@N(A).`, // delete misplaced
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

func TestParserRoundTripStrings(t *testing.T) {
	srcs := []string{
		`rp4 inconsistentPred@NAddr() :- stabilizeRequest@NAddr(SomeID, SomeAddr), pred@NAddr(PID, PAddr), SomeAddr != PAddr.`,
		`materialize(succ, 30, 16, keys(2)).`,
		`watch(lookup).`,
	}
	for _, src := range srcs {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		out := prog.Statements[0].String()
		// The printed form must itself parse and print identically.
		prog2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse of %q: %v", out, err)
		}
		if prog2.Statements[0].String() != out {
			t.Errorf("unstable print: %q vs %q", out, prog2.Statements[0].String())
		}
	}
}

// testCtx is a trivial Context for expression tests.
type testCtx struct{}

func (testCtx) Now() float64      { return 42.5 }
func (testCtx) Rand64() uint64    { return 7 }
func (testCtx) LocalAddr() string { return "n1" }

// evalExpr compiles e against a layout holding vars and evaluates it:
// how the expression tests read a value.
func evalExpr(e Expr, vars map[string]tuple.Value) (tuple.Value, error) {
	var names []string
	var env []tuple.Value
	for name, v := range vars {
		names = append(names, name)
		env = append(env, v)
	}
	return Compile(e, func(name string) int { return slices.Index(names, name) })(env, testCtx{})
}

// evalSrc holds a case's expression and value; the expression tests
// and FuzzCompile's seed corpus share these tables.
type evalSrc struct {
	src  string
	want tuple.Value
}

// evalCases are read with A=10, S="x", K=id 5 bound.
var evalCases = []evalSrc{
	{`A + 5`, tuple.Int(15)},
	{`A - 3 * 2`, tuple.Int(4)},
	{`S + "y"`, tuple.Str("xy")},
	{`A == 10`, tuple.Bool(true)},
	{`A != 10`, tuple.Bool(false)},
	{`(A > 5) && (S == "x")`, tuple.Bool(true)},
	{`(A < 5) || (S == "x")`, tuple.Bool(true)},
	{`f_now()`, tuple.Float(42.5)},
	{`f_rand()`, tuple.ID(7)},
	{`f_localAddr()`, tuple.Str("n1")},
	{`K in (3, 8]`, tuple.Bool(true)},
	{`K in (5, 8]`, tuple.Bool(false)},
	{`f_size([1, 2, 3])`, tuple.Int(3)},
	{`f_first([9, 2])`, tuple.Int(9)},
	{`f_last([9, 2])`, tuple.Int(2)},
	{`f_member([9, 2], 2)`, tuple.Bool(true)},
	{`-A`, tuple.Int(-10)},
	{`1 << 4`, tuple.ID(16)},
}

var evalErrorCases = []string{
	`Unbound + 1`,
	`f_nope()`,
	`f_now(1)`,
	`f_now(1 / 0)`, // the argument's error, not the arity's
	`f_first([])`,
	`1 / 0`,
}

// moreEvalCases are read with L=[1, 2] bound.
var moreEvalCases = []evalSrc{
	{`f_tostr(7)`, tuple.Str("7")},
	{`f_size("abc")`, tuple.Int(3)},
	{`f_member(L, 3)`, tuple.Bool(false)},
	{`f_hash("x") == f_hash("x")`, tuple.Bool(true)},
	{`7 % 3`, tuple.Int(1)},
	{`2 <= 2`, tuple.Bool(true)},
	{`3 >= 4`, tuple.Bool(false)},
	{`(1 < 2) && (2 < 1)`, tuple.Bool(false)},
	{`(1 < 2) || (2 < 1)`, tuple.Bool(true)},
}

var moreEvalErrorCases = []string{
	`7 % 0`,
	`1 << "x"`,
	`f_size(3)`,
	`f_member(3, 3)`,
	`f_last([])`,
	`true - 1`,
	`true * 2`,
	`"a" / 2`,
	`-"a"`,
}

func TestEval(t *testing.T) {
	vars := map[string]tuple.Value{"A": tuple.Int(10), "S": tuple.Str("x"), "K": tuple.ID(5)}
	for _, c := range evalCases {
		// Wrap in a rule so the expression parser is exercised as used.
		prog, err := Parse(`x@N(V) :- y@N(A), V := ` + c.src + `.`)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		e := prog.Statements[0].(*Rule).Body[1].(*Assign).Expr
		got, err := evalExpr(e, vars)
		if err != nil {
			t.Errorf("Eval(%q): %v", c.src, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	for _, src := range evalErrorCases {
		prog, err := Parse(`x@N(V) :- y@N(A), V := ` + src + `.`)
		if err != nil {
			continue // parse error also acceptable for f_nope-style cases
		}
		e := prog.Statements[0].(*Rule).Body[1].(*Assign).Expr
		if _, err := evalExpr(e, nil); err == nil {
			t.Errorf("Eval(%q) must fail", src)
		}
	}
}

// TestParsePaperCorpus parses every OverLog snippet quoted in the paper
// (adapted only for variable hygiene) to pin the grammar down.
func TestParsePaperCorpus(t *testing.T) {
	corpus := `
materialize(link, 100, 5, keys(1)).
materialize(path, 100, 5, keys(1,2)).

rp1 reqBestSucc@PAddr(NAddr) :- periodic@NAddr(E, 10), pred@NAddr(PID, PAddr), PAddr != "-".
rp2 respBestSucc@ReqAddr(NAddr, SAddr) :- reqBestSucc@NAddr(ReqAddr), bestSucc@NAddr(SID, SAddr).
rp3 inconsistentPred@NAddr() :- respBestSucc@NAddr(PAddr, Successor), pred@NAddr(PID, PAddr), Successor != NAddr.
rp4 inconsistentPred@NAddr() :- stabilizeRequest@NAddr(SomeID, SomeAddr), pred@NAddr(PID, PAddr), SomeAddr != PAddr.

ri1 closerID@NAddr(ResltNodeID, ResltNodeAddr) :- lookupResults@NAddr(Key, ResltNodeID, ResltNodeAddr, ReqNo, RespAddr), pred@NAddr(PID, PAddr), bestSucc@NAddr(SID, SAddr), ResltNodeID in (PID, SID).
ri2 ordering@NAddr(E, NAddr, NID, 0) :- orderingEvent@NAddr(E), node@NAddr(NID).
ri3 countWraps@NAddr(SAddr, E, SrcAddr, SID, Wraps) :- ordering@NAddr(E, SrcAddr, MyID, Wraps), bestSucc@NAddr(SID, SAddr), MyID < SID.
ri4 countWraps@NAddr(SAddr, E, SrcAddr, SID, Wraps + 1) :- ordering@NAddr(E, SrcAddr, MyID, Wraps), bestSucc@NAddr(SID, SAddr), MyID >= SID.
ri5 ordering@SAddr(E, SrcAddr, SID, Wraps) :- countWraps@NAddr(SAddr, E, SrcAddr, SID, Wraps), SAddr != SrcAddr.
ri6 orderingProblem@SAddr(E, SrcAddr, SID, Wraps) :- countWraps@NAddr(SAddr, E, SAddr, SID, Wraps), Wraps != 1.

sb4 succ@NAddr(SID, SAddr) :- sendPred@NAddr(SID, SAddr).
sb7 succ@NAddr(SID, SAddr) :- returnSucc@NAddr(SID, SAddr).

os1 oscill@NAddr(SAddr, T) :- faultyNode@NAddr(SAddr, T1), sendPred@NAddr(SID, SAddr), T := f_now().
os2 oscill@NAddr(SAddr, T) :- faultyNode@NAddr(SAddr, T1), returnSucc@NAddr(SID, SAddr), T := f_now().

materialize(oscill, 120, infinity, keys(2,3)).
os3 countOscill@NAddr(OscillAddr, count<*>) :- periodic@NAddr(E, 60), oscill@NAddr(OscillAddr, Time).
os4 repeatOscill@NAddr(OscillAddr) :- countOscill@NAddr(OscillAddr, Count), Count >= 3.

materialize(nbrOscill, 120, infinity, keys(2,3)).
os5 nbrOscill@NAddr(OscillAddr, NAddr) :- repeatOscill@NAddr(OscillAddr).
os6 nbrOscill@SAddr(OscillAddr, NAddr) :- repeatOscill@NAddr(OscillAddr), succ@NAddr(SID, SAddr).
os7 nbrOscill@PAddr(OscillAddr, NAddr) :- repeatOscill@NAddr(OscillAddr), pred@NAddr(PID, PAddr).
os8 nbrOscillCount@NAddr(OscillAddr, count<*>) :- nbrOscill@NAddr(OscillAddr, ReporterAddr).
os9 chaotic@NAddr(OscillAddr) :- nbrOscillCount@NAddr(OscillAddr, Count), Count > 3.

cs1 conProbe@NAddr(ProbeID, K, T) :- periodic@NAddr(ProbeID, 40), K := f_randID(), T := f_now().
cs2 conLookup@NAddr(ProbeID, K, FAddr, ReqID, T) :- conProbe@NAddr(ProbeID, K, T), uniqueFinger@NAddr(FAddr, FID), ReqID := f_rand().
cs3 conLookupTable@NAddr(ProbeID, ReqID, T) :- conLookup@NAddr(ProbeID, K, SrcAddr, ReqID, T).
cs4 lookup@SrcAddr(K, NAddr, ReqID) :- conLookup@NAddr(ProbeID, K, SrcAddr, ReqID, T).
cs5 conRespTable@NAddr(ProbeID, ReqID, SAddr) :- lookupResults@NAddr(K, SID, SAddr, ReqID, Responder), conLookupTable@NAddr(ProbeID, ReqID, T).
cs6 respCluster@NAddr(ProbeID, SAddr, count<*>) :- conRespTable@NAddr(ProbeID, ReqID, SAddr).
cs7 maxCluster@NAddr(ProbeID, max<Count>) :- respCluster@NAddr(ProbeID, SAddr, Count).
cs8 lookupCluster@NAddr(ProbeID, T, count<*>) :- conLookupTable@NAddr(ProbeID, ReqID, T).
cs9 consistency@NAddr(ProbeID, RespCount / LookupCount) :- periodic@NAddr(E, 20), lookupCluster@NAddr(ProbeID, T, LookupCount), T < f_now() - 20, maxCluster@NAddr(ProbeID, RespCount).
cs10 delete lookupCluster@NAddr(ProbeID, T, Count) :- consistency@NAddr(ProbeID, Consistency).
cs11 delete conLookupTable@NAddr(ProbeID, ReqID, T) :- consistency@NAddr(ProbeID, Consistency), conLookupTable@NAddr(ProbeID, ReqID, T).
cs12 consAlarm@NAddr(PrID) :- consistency@NAddr(PrID, Cons), Cons < 0.5.

ep1 trav@NAddr(TupleID, TupleID, TupleTime, 0, 0, 0) :- traceResp@NAddr(TupleID, TupleTime).
ep2 ruleBack@SrcAddr(ID, Curr, LastT, RuleT, NetT, LocalT, Local) :- trav@NAddr(ID, Curr, LastT, RuleT, NetT, LocalT), tupleTable@NAddr(Curr, SrcAddr, SrcTID, LocSpec), Local := (LocSpec == SrcAddr).
ep5 trav@NAddr(ID, Curr, LastT, RuleT, NetT, LocalT) :- forward@NAddr(ID, Curr, LastT, RuleT, NetT, LocalT, Rule), Rule != "cs2".
ep6 report@NAddr(ID, RuleT, NetT, LocalT) :- forward@NAddr(ID, Curr, LastT, RuleT, NetT, LocalT, "cs2").

bp1 backPointer@NAddr(RemoteAddr) :- pingReq@NAddr(RemoteAddr).
bp2 numBackPointers@NAddr(count<*>) :- backPointer@NAddr(RemoteAddr).

sr1 snap@NAddr(I + 1) :- periodic@NAddr(E, 30), snapState@NAddr(I, State).
sr2 snapState@NAddr(I, "Snapping") :- snap@NAddr(I).
sr8 haveSnap@NAddr(SrcAddr, I, count<*>) :- snapState@NAddr(I, State), marker@NAddr(SrcAddr, I).
sr9 snap@NAddr(I) :- haveSnap@NAddr(Src, I, 0).
sr10 channelState@NAddr(Remote + E, Remote, E, "Start") :- haveSnap@NAddr(Src, E, 0), backPointer@NAddr(Remote), Remote != Src.
sr11 channelState@NAddr(Src, E, "Done") :- haveSnap@NAddr(Src, E, C), backPointer@NAddr(Remote), (C > 0) || (Src == Remote).
sr13 snapState@NAddr(E, "Done") :- snapState@NAddr(E, "Snapping"), doneChannels@NAddr(E, C), numBackPointers@NAddr(C).

l1 lookupResults@ReqAddr(K, SID, SAddr, E, RespAddr) :- node@NAddr(NID), lookup@NAddr(K, ReqAddr, E), bestSucc@NAddr(SAddr, SID), K in (NID, SID].
l2 bestLookupDist@NAddr(K, ReqAddr, E, min<D>) :- node@NAddr(NID), lookup@NAddr(K, ReqAddr, E), finger@NAddr(FPos, FID, FAddr), D := K - FID - 1, FID in (NID, K).
l3 lookup@FAddr(K, ReqAddr, E) :- node@NAddr(NID), bestLookupDist@NAddr(K, ReqAddr, E, D), finger@NAddr(FPos, FID, FAddr), D == K - FID - 1, FID in (NID, K).
`
	prog, err := Parse(corpus)
	if err != nil {
		t.Fatalf("paper corpus must parse: %v", err)
	}
	rules := prog.Rules()
	if len(rules) < 40 {
		t.Errorf("parsed only %d rules", len(rules))
	}
	if len(prog.Materializations()) != 4 {
		t.Errorf("materializations = %d", len(prog.Materializations()))
	}
	// Every rule re-prints to parseable OverLog.
	var b strings.Builder
	for _, r := range rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	if _, err := Parse(b.String()); err != nil {
		t.Errorf("printed corpus must reparse: %v", err)
	}
}

func TestEvalMoreBuiltinsAndErrors(t *testing.T) {
	vars := map[string]tuple.Value{"L": tuple.List(tuple.Int(1), tuple.Int(2))}
	for _, c := range moreEvalCases {
		prog, err := Parse(`x@N(V) :- y@N(A), V := ` + c.src + `.`)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		e := prog.Statements[0].(*Rule).Body[1].(*Assign).Expr
		got, err := evalExpr(e, vars)
		if err != nil || !got.Equal(c.want) {
			t.Errorf("Eval(%q) = %v (%v), want %v", c.src, got, err, c.want)
		}
	}
	for _, src := range moreEvalErrorCases {
		prog, err := Parse(`x@N(V) :- y@N(A), V := ` + src + `.`)
		if err != nil {
			continue
		}
		e := prog.Statements[0].(*Rule).Body[1].(*Assign).Expr
		if _, err := evalExpr(e, vars); err == nil {
			t.Errorf("Eval(%q) must fail", src)
		}
	}
}

func TestProgramAccessors(t *testing.T) {
	prog := MustParse(`
materialize(t, 10, 5, keys(1)).
watch(x).
r1 a@N(B) :- t@N(B).
`)
	if len(prog.Rules()) != 1 || len(prog.Materializations()) != 1 {
		t.Errorf("accessors: %d rules, %d materializations",
			len(prog.Rules()), len(prog.Materializations()))
	}
	r := prog.Rules()[0]
	if r.HasAggregate() {
		t.Error("HasAggregate false positive")
	}
	if got := prog.Statements[1].String(); got != "watch(x)." {
		t.Errorf("watch print = %q", got)
	}
	if got := prog.Statements[0].String(); got != "materialize(t, 10, 5, keys(1))." {
		t.Errorf("materialize print = %q", got)
	}
}
