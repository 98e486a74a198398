package engine_test

import (
	"slices"
	"testing"

	"p2go/internal/engine"
	"p2go/internal/tuple"
)

// numberingNode is a node that records what it emits to watches and the
// rule errors it reports.
func numberingNode(t *testing.T) (n *engine.Node, watched, errs *[]string) {
	t.Helper()
	watched, errs = new([]string), new([]string)
	n = engine.NewNode(engine.Config{
		Addr:        "n1",
		OnWatch:     func(_ float64, tp tuple.Tuple) { *watched = append(*watched, tp.String()) },
		OnRuleError: func(_ float64, rule string, err error) { *errs = append(*errs, rule+": "+err.Error()) },
	})
	return n, watched, errs
}

// installChecked installs src on n under id and checks n's relation
// records.
func installChecked(t *testing.T, n *engine.Node, id, src string) {
	t.Helper()
	mustInstall(t, n, id, src)
	if err := engine.CheckRelations(n); err != nil {
		t.Fatalf("after installing %s: %v", id, err)
	}
}

// TestUninstallWithQueuedHeads: a cascade that uninstalls a query while
// heads of that query are still queued processes them by name, as if
// they had arrived. A head whose relation record the uninstall released,
// and an install then made anew, reaches the new query's strand; a
// delete from a table the uninstall dropped is a rule error.
func TestUninstallWithQueuedHeads(t *testing.T) {
	n, watched, errs := numberingNode(t)
	installChecked(t, n, "qa", `
materialize(kept, infinity, infinity, keys(1,2)).
a1 uninstallProgram@N(Q) :- go@N(X), Q := "qa".
a2 installProgram@N(P, Q) :- go@N(X), P := "watch(seen). w1 seen@N(X) :- h@N(X).", Q := "qb".
a3 h@N(X) :- go@N(X).
a4 delete kept@N(X) :- go@N(X).
`)
	n.HandleLocal(tuple.New("kept", tuple.Str("n1"), tuple.Int(1)))
	n.HandleLocal(tuple.New("go", tuple.Str("n1"), tuple.Int(1)))
	if want := []string{"seen@n1(1)"}; !slices.Equal(*watched, want) {
		t.Errorf("watched %v, want %v", *watched, want)
	}
	if want := []string{"engine: delete from unmaterialized table kept"}; !slices.Equal(*errs, want) {
		t.Errorf("rule errors %v, want %v", *errs, want)
	}
	if got := n.Queries(); !slices.Equal(got, []string{"qb"}) {
		t.Errorf("queries %v, want [qb]", got)
	}
	if err := engine.CheckRelations(n); err != nil {
		t.Error(err)
	}
}

// TestJoinSeesLaterMaterialize: a join reaches its table through the
// relation record its query resolved at install, so it sees the table
// an uninstall drops (a rule error) and the one a later install
// materializes under the same name.
func TestJoinSeesLaterMaterialize(t *testing.T) {
	n, watched, errs := numberingNode(t)
	const decl = `materialize(late, infinity, infinity, keys(1,2)).`
	installChecked(t, n, "t1", decl)
	installChecked(t, n, "qj", `
watch(out).
j1 out@N(X, Y) :- ev@N(X), late@N(X, Y).
`)
	ev := tuple.New("ev", tuple.Str("n1"), tuple.Int(1))
	if err := n.UninstallQuery("t1"); err != nil {
		t.Fatal(err)
	}
	if err := engine.CheckRelations(n); err != nil {
		t.Fatal(err)
	}
	n.HandleLocal(ev)
	if want := []string{"j1: join against unmaterialized table late"}; !slices.Equal(*errs, want) {
		t.Errorf("rule errors %v, want %v", *errs, want)
	}
	installChecked(t, n, "t2", decl)
	n.HandleLocal(tuple.New("late", tuple.Str("n1"), tuple.Int(1), tuple.Int(2)))
	n.HandleLocal(ev)
	if want := []string{"out@n1(1, 2)"}; !slices.Equal(*watched, want) {
		t.Errorf("watched %v, want %v", *watched, want)
	}
	if len(*errs) != 1 {
		t.Errorf("rule errors %v, want the first alone", *errs)
	}
}
