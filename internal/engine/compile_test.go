package engine_test

import (
	"testing"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/simnet"
	"p2go/internal/tuple"
)

func newBareNode(t *testing.T) *engine.Node {
	t.Helper()
	sim := simnet.NewSim()
	net := simnet.NewNetwork(sim, simnet.Config{Seed: 1})
	n, err := net.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	return n
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

// TestInstallCompiledKillSwitch checks engine.DisableSharedPlans: with
// sharing disabled the node plans privately.
func TestInstallCompiledKillSwitch(t *testing.T) {
	saved := engine.DisableSharedPlans
	engine.DisableSharedPlans = true
	defer func() { engine.DisableSharedPlans = saved }()
	cq := mustCompile(t, sharedProg)
	n := newBareNode(t)
	if _, err := n.InstallCompiledQuery("q", cq); err != nil {
		t.Fatal(err)
	}
	got, want := n.Plans(), cq.Plans()
	if len(got) != len(want) {
		t.Fatalf("installed %d plans, compiled %d", len(got), len(want))
	}
	for i := range got {
		if got[i] == want[i] {
			t.Fatalf("plan %d shared despite the kill switch", i)
		}
	}
}

// TestInstallCompiledEnvMismatchFallsBack checks the correctness
// fallback: the compiled query saw predicate "ext" as an event, so a
// node where ext is a table must plan privately (there the rule joins
// the table) rather than accept the mismatched shared plans.
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
	// The private plan must actually treat ext as a table: seed a row
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
// (the generated IDs would differ from private planning's).
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
// consumes the same label numbers private planning would, so later
// private installs continue the sequence without collisions.
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
