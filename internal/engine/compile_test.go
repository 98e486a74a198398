package engine_test

import (
	"testing"

	"p2go/internal/chord"
	"p2go/internal/dataflow"
	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/simnet"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

func newBareNode(t testing.TB) *engine.Node {
	t.Helper()
	return newNode(t, nil)
}

// newNode builds node "a" on a fresh network, traced when tc is set.
func newNode(t testing.TB, tc *trace.Config) *engine.Node {
	t.Helper()
	sim := simnet.NewSim()
	net := simnet.NewNetwork(sim, simnet.Config{Seed: 1, Tracing: tc})
	n, err := net.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sameStrands reports whether n runs exactly plans, by pointer.
func sameStrands(n *engine.Node, plans []*dataflow.Plan) bool {
	got := n.Plans()
	if len(got) != len(plans) || len(got) == 0 {
		return false
	}
	for i := range got {
		if got[i] != plans[i] {
			return false
		}
	}
	return true
}

// mustInstall installs src on n under id.
func mustInstall(t *testing.T, n *engine.Node, id, src string) {
	t.Helper()
	if _, err := n.InstallQuery(id, overlog.MustParse(src)); err != nil {
		t.Fatal(err)
	}
}

func mustCompile(t *testing.T, src string) *engine.CompiledQuery {
	t.Helper()
	cq, err := engine.CompileQuery(overlog.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return cq
}

const sharedProg = `
materialize(stateT, infinity, infinity, keys(1,2)).
s1 out@X(V) :- in@X(V), stateT@X(V).
`

// TestInstallCompiledShares checks the fast path: a compatible node
// installs the compiled query's plans by reference.
func TestInstallCompiledShares(t *testing.T) {
	cq := mustCompile(t, sharedProg)
	n := newBareNode(t)
	if _, err := n.InstallCompiledQuery("q", cq); err != nil {
		t.Fatal(err)
	}
	got, want := n.Plans(), cq.Plans()
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("installed %d plans, compiled %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("plan %d was copied, want shared instance", i)
		}
	}
}

// TestInstallCompiledEnvMismatchFallsBack checks the correctness
// fallback: the compiled query saw predicate "ext" as an event, so a
// node where ext is a table must compile the program itself (there the
// rule joins the table) rather than accept the mismatched shared plans.
func TestInstallCompiledEnvMismatchFallsBack(t *testing.T) {
	// With ext an event this plans as an event-triggered strand; with
	// ext a table it plans as a delta rule. Same source, different plan.
	src := `e1 out@X(V) :- ext@X(V).`
	cq := mustCompile(t, src)

	fresh := newBareNode(t)
	if _, err := fresh.InstallCompiledQuery("q", cq); err != nil {
		t.Fatal(err)
	}
	if fresh.Plans()[0] != cq.Plans()[0] {
		t.Fatal("fresh node should share the compiled plans")
	}

	withExt := newBareNode(t)
	if _, err := withExt.InstallQuery("base", overlog.MustParse(
		"materialize(ext, infinity, infinity, keys(1,2)).")); err != nil {
		t.Fatal(err)
	}
	if _, err := withExt.InstallCompiledQuery("q", cq); err != nil {
		t.Fatal(err)
	}
	plans := withExt.Plans()
	for _, p := range plans {
		for _, sp := range cq.Plans() {
			if p == sp {
				t.Fatal("node with ext materialized accepted shared plans compiled for an ext-less environment")
			}
		}
	}
	// The node's own plan must actually treat ext as a table: seed a row
	// and confirm it landed.
	withExt.SeedLocal(tuple.New("ext", tuple.Str("a"), tuple.Int(7)))
	var rows []tuple.Tuple
	withExt.Store().Get("ext").Scan(withExt.Now(), func(tp tuple.Tuple) { rows = append(rows, tp) })
	if len(rows) != 1 {
		t.Fatalf("ext table holds %d rows, want 1", len(rows))
	}
}

// TestInstallCompiledLabelCounterFallsBack checks the second
// compatibility input: a query whose compilation generated rule labels
// must not share onto a node whose label counter has already advanced
// (the generated IDs would differ from the node's own compilation's).
func TestInstallCompiledLabelCounterFallsBack(t *testing.T) {
	unlabeled := `out@X(V) :- in@X(V).`
	cq := mustCompile(t, unlabeled)

	n := newBareNode(t)
	if _, err := n.InstallQuery("first", overlog.MustParse(`other@X(V) :- ping@X(V).`)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.InstallCompiledQuery("second", cq); err != nil {
		t.Fatal(err)
	}
	plans := n.Plans()
	if len(plans) != 2 {
		t.Fatalf("%d plans installed, want 2", len(plans))
	}
	if plans[1] == cq.Plans()[0] {
		t.Fatal("label-consuming query shared onto a node with an advanced label counter")
	}
	if plans[0].RuleID == plans[1].RuleID {
		t.Fatalf("generated labels collided: %q", plans[0].RuleID)
	}
}

// TestInstallCompiledLabelCounterAdvances checks that a shared install
// consumes the same label numbers compiling on the node would, so later
// installs continue the sequence without collisions.
func TestInstallCompiledLabelCounterAdvances(t *testing.T) {
	cq := mustCompile(t, `out@X(V) :- in@X(V).`)
	n := newBareNode(t)
	if _, err := n.InstallCompiledQuery("first", cq); err != nil {
		t.Fatal(err)
	}
	if n.Plans()[0] != cq.Plans()[0] {
		t.Fatal("fresh node should share the compiled plans")
	}
	if _, err := n.InstallQuery("second", overlog.MustParse(`other@X(V) :- ping@X(V).`)); err != nil {
		t.Fatal(err)
	}
	plans := n.Plans()
	if plans[0].RuleID == plans[1].RuleID {
		t.Fatalf("shared install did not advance the label counter: both rules are %q", plans[0].RuleID)
	}
}

// TestCompileQueryJoinsNodeEpoch checks that CompileQuery sees every
// table a fresh node has: nodeEpoch is one, so a rule joining it to an
// event compiles, and shares onto a bare node.
func TestCompileQueryJoinsNodeEpoch(t *testing.T) {
	cq := mustCompile(t, `e1 seen@X(E) :- ping@X(V), nodeEpoch@X(E).`)
	n := newBareNode(t)
	if _, err := n.InstallCompiledQuery("q", cq); err != nil {
		t.Fatal(err)
	}
	if !sameStrands(n, cq.Plans()) {
		t.Fatal("bare node did not share the plans compiled on a fresh node")
	}
}

// labelAt returns a bare node whose label counter stands at k: it has
// installed k single-rule unlabeled queries.
func labelAt(t *testing.T, k int) *engine.Node {
	t.Helper()
	n := newBareNode(t)
	for i := 0; i < k; i++ {
		mustInstall(t, n, "", `other@X(V) :- ping@X(V).`)
	}
	return n
}

// TestInstallCompiledLabelCounterMatches checks the generalised label
// rule: a label-consuming query compiled on a node whose counter is at
// k shares onto another node at k, and a node at k' != k compiles it
// itself, with labels that do not collide with its earlier ones.
func TestInstallCompiledLabelCounterMatches(t *testing.T) {
	const unlabeled = `out@X(V) :- in@X(V).`
	cq, err := labelAt(t, 2).Compile(overlog.MustParse(unlabeled))
	if err != nil {
		t.Fatal(err)
	}

	same := labelAt(t, 2)
	if _, err := same.InstallCompiledQuery("q", cq); err != nil {
		t.Fatal(err)
	}
	if got := same.Plans()[2]; got != cq.Plans()[0] {
		t.Fatalf("node at the compile counter did not share: got %s", got.RuleID)
	}

	other := labelAt(t, 1)
	if _, err := other.InstallCompiledQuery("q", cq); err != nil {
		t.Fatal(err)
	}
	plans := other.Plans()
	if plans[1] == cq.Plans()[0] {
		t.Fatal("label-consuming query shared onto a node at a different counter")
	}
	if plans[0].RuleID == plans[1].RuleID {
		t.Fatalf("generated labels collided: %q", plans[0].RuleID)
	}
}

// TestInstallCompiledTracedAndUntraced checks a program joining the
// tracer's ruleExec table with one of its own: compiled on a traced
// node, where ruleExec fills on read and only the program's table
// triggers, it shares onto a second traced node, and an untraced node,
// where ruleExec is an event, compiles it itself and installs it
// without error.
func TestInstallCompiledTracedAndUntraced(t *testing.T) {
	tc := &trace.Config{RuleExecTTL: 60, RuleExecMax: 1000, TupleLogMax: 100}
	cq, err := newNode(t, tc).Compile(overlog.MustParse(`
materialize(probe, infinity, infinity, keys(1)).
x1 hot@X(R) :- probe@X(P), ruleExec@X(R, I, O, S, A, B, C).`))
	if err != nil {
		t.Fatal(err)
	}
	if ps := cq.Plans(); len(ps) != 1 || ps[0].Trigger.Name != "probe" {
		t.Fatalf("traced compilation planned %d strands, want 1 on probe's delta", len(ps))
	}
	traced := newNode(t, tc)
	if _, err := traced.InstallCompiledQuery("q", cq); err != nil {
		t.Fatal(err)
	}
	if !sameStrands(traced, cq.Plans()) {
		t.Fatal("second traced node did not share the traced compilation")
	}
	untraced := newBareNode(t)
	if _, err := untraced.InstallCompiledQuery("q", cq); err != nil {
		t.Fatal(err)
	}
	ps := untraced.Plans()
	if len(ps) != 1 || ps[0] == cq.Plans()[0] {
		t.Fatal("untraced node accepted plans compiled against a ruleExec table")
	}
	if ps[0].Trigger.Kind != dataflow.TriggerEvent {
		t.Fatalf("untraced node's ruleExec trigger is %v, want an event", ps[0].Trigger.Kind)
	}
}

// BenchmarkInstall installs the Chord program onto a bare node: shared
// instantiates chord.Compiled()'s plans, compile plans it on the node.
func BenchmarkInstall(b *testing.B) {
	cq, err := chord.Compiled()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			n := newBareNode(b)
			b.StartTimer()
			if _, err := n.InstallCompiledQuery(chord.QueryID, cq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		prog := chord.Program()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			n := newBareNode(b)
			b.StartTimer()
			if _, err := n.InstallQuery(chord.QueryID, prog); err != nil {
				b.Fatal(err)
			}
		}
	})
}
