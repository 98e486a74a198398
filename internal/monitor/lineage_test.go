package monitor

import (
	"regexp"
	"strings"
	"testing"

	"p2go/internal/chord"
	"p2go/internal/overlog"
	"p2go/internal/trace"
)

// TestLineageOfConsistencyLookup reconstructs the full causal DAG of a
// consistency-probe response across nodes: the traversal must surface
// the event chain (l1 <- lookup <- ... <- cs4 <- cs2 <- cs1) AND the
// precondition edges (the bestSucc/finger/uniqueFinger rows that allowed
// each rule to fire), which the §3.2 profiler ignores.
func TestLineageOfConsistencyLookup(t *testing.T) {
	tcfg := trace.DefaultConfig()
	tcfg.RuleExecTTL = 300
	tcfg.RuleExecMax = 20000
	r, err := chord.NewRing(chord.RingConfig{
		N: 6, Seed: 77, Tracing: &tcfg,
		ExtraPrograms: []*overlog.Program{
			overlog.MustParse(LineageRules(12)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(240)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("ring not converged: %v", bad)
	}
	prober := r.Node("n6")
	if err := prober.InstallProgram(ConsistencyProgram(15)); err != nil {
		t.Fatal(err)
	}
	r.Run(40)

	var root uint64
	for _, row := range RuleExecRows(prober) {
		if row.Rule == "cs5" && row.IsEvent {
			root = row.In
		}
	}
	if root == 0 {
		t.Fatal("no traced consistency response")
	}
	if err := r.Net.Inject("n6", TraceLineageEvent("n6", root)); err != nil {
		t.Fatal(err)
	}
	r.Run(10)

	var edges []LineageEdge
	for _, w := range r.Watched {
		if w.T.Name != "lineage" {
			continue
		}
		e, err := ParseLineage(w.T)
		if err != nil {
			t.Fatal(err)
		}
		if e.Root == root {
			edges = append(edges, e)
		}
	}
	if len(edges) == 0 {
		t.Fatalf("no lineage edges (errors: %v)", r.Errors)
	}
	rules := map[string]bool{}
	sawPrecond, sawEvent, sawRemote := false, false, false
	for _, e := range edges {
		rules[e.Rule] = true
		if e.IsEvent {
			sawEvent = true
		} else {
			sawPrecond = true
		}
		if e.Node != "n6" {
			sawRemote = true
		}
	}
	// The event chain must reach back to the probe rules on the origin
	// and l1 on the responder.
	for _, want := range []string{"l1", "cs4", "cs2", "cs1"} {
		if !rules[want] {
			t.Errorf("lineage misses rule %s (got %v)", want, rules)
		}
	}
	if !sawEvent || !sawPrecond {
		t.Errorf("lineage must contain both event and precondition edges (event=%v precond=%v)",
			sawEvent, sawPrecond)
	}
	if !sawRemote {
		t.Error("lineage never crossed the network")
	}
	// The summary names a cause the origin memoised (cs4's triggering
	// conLookup: the line ends in the predicate name) and leaves another
	// node's as a bare ID: tuple IDs are node-local, so n6's memo says
	// nothing about them.
	summary := LineageSummary(prober, edges)
	lines := strings.Split(strings.TrimSuffix(summary, "\n"), "\n")
	if len(lines) != len(edges) {
		t.Fatalf("summary has %d lines for %d edges:\n%s", len(lines), len(edges), summary)
	}
	bareID := regexp.MustCompile(`<- (event|precond) \d+$`)
	named, bare := false, false
	for _, line := range lines {
		line = strings.TrimLeft(line, " ")
		switch {
		case strings.HasPrefix(line, "n6: "):
			named = named || strings.HasSuffix(line, " conLookup")
		case bareID.MatchString(line):
			bare = true
		default:
			t.Errorf("remote cause resolved through the origin's memo: %q", line)
		}
	}
	if !named || !bare {
		t.Errorf("summary must name an origin cause (%v) and print a remote one bare (%v):\n%s", named, bare, summary)
	}
}

// TestLineageDepthBound: the traversal stops at the configured depth.
func TestLineageDepthBound(t *testing.T) {
	tcfg := trace.DefaultConfig()
	r, err := chord.NewRing(chord.RingConfig{
		N: 3, Seed: 9, Tracing: &tcfg,
		ExtraPrograms: []*overlog.Program{
			overlog.MustParse(LineageRules(2)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(60)
	prober := r.Node("n3")
	var root uint64
	for _, row := range RuleExecRows(prober) {
		if row.IsEvent {
			root = row.Out
		}
	}
	if root == 0 {
		t.Skip("no traced executions yet")
	}
	if err := r.Net.Inject("n3", TraceLineageEvent("n3", root)); err != nil {
		t.Fatal(err)
	}
	r.Run(5)
	for _, w := range r.Watched {
		if w.T.Name != "lineage" {
			continue
		}
		e, _ := ParseLineage(w.T)
		if e.Depth >= 2 {
			t.Errorf("edge beyond depth bound: %+v", e)
		}
	}
}
