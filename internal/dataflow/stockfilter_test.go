package dataflow_test

import (
	"fmt"
	"slices"
	"testing"

	"p2go/internal/chainrep"
	"p2go/internal/chord"
	"p2go/internal/dataflow"
	"p2go/internal/engine"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
	"p2go/internal/trace"
)

// stockPrograms are the programs this repo ships, as planner.FuzzCompile's
// corpus lists them, each with the node it runs on: the monitors run
// beside Chord or chain replication, and after the programs before them,
// and read their tables.
func stockPrograms(t *testing.T) (progs []*overlog.Program, hosts []int) {
	t.Helper()
	add := func(host int, ps ...*overlog.Program) {
		for _, p := range ps {
			progs, hosts = append(progs, p), append(hosts, host)
		}
	}
	const ch, cr = 0, 1
	add(ch, chord.Program(), chord.TreeProgram(chord.TreeConfig{}),
		monitor.SnapshotProgram(),
		monitor.SnapshotInitiatorProgram(30),
		monitor.SnapshotLookupProgram(),
		monitor.SnapshotConsistencyProgram(40),
		monitor.StatsProfilerProgram(10),
		overlog.MustParse(monitor.LineageRules(4)),
		overlog.MustParse(monitor.ProfilerRules("cs2")))
	add(cr, chainrep.Program(), chainrep.MonitorProgram())
	for _, d := range monitor.Detectors(10, 40) {
		add(ch, d.Program)
	}
	suite, err := monitor.ClusterSuite(10, "n1")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range suite {
		add(ch, overlog.MustParse(q.Source))
	}
	return progs, hosts
}

// TestStockRowFilters lists, for every stock rule with a ring-interval
// condition, whether its join answers the condition itself
// (JoinOp.RowFilter) and why not when it does not, so a change
// in what the planner filters is a visible one.
func TestStockRowFilters(t *testing.T) {
	filtered := map[string]string{
		"l2": "finger: FID in (NID, K)",
		"l4": "finger: FID in (NID, K)",
	}
	unfiltered := map[string]string{
		"l2s": "snapUniqFingers is probed on SnapID too, and a ring index answers the location alone",
		"l1":  "K is the trigger's, not a field of the bestSucc row",
		"l1s": "K is the trigger's, not a field of the snapBestSucc row",
		"l5":  "K is the trigger's, not a field of the bestSucc row",
		"l3":  "FID's join is followed by the node join and D == K - FID - 1",
		"l3s": "FID's join is followed by the node join and D == K - FID - 1",
		"ri1": "ResltNodeID is the trigger's, and a second join comes between",
		"nt2": "NID2 is the trigger's, and the interval sits inside an ||",
		"ff6": "K2 is an assignment's, read by no join",
	}
	progs, hosts := stockPrograms(t)
	nodes := []*engine.Node{engine.NewNode(engine.Config{Addr: "a", Seed: 1}), engine.NewNode(engine.Config{Addr: "a", Seed: 1})}
	// The lineage rules read the tracer's tables.
	if err := nodes[0].EnableTracing(trace.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, p := range progs {
		n := nodes[hosts[i]]
		cq, err := n.Compile(p)
		if err == nil {
			_, err = n.InstallCompiledQuery("", cq)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range cq.Plans() {
			var got []string
			ranged := false
			for _, op := range pl.Ops {
				switch o := op.(type) {
				case *dataflow.JoinOp:
					if o.RowFilter() != nil {
						got = append(got, fmt.Sprintf("%s: %s", o.Table, o.RowFilter()))
					}
				case *dataflow.CondOp:
					ranged = ranged || hasRange(o.Expr)
				}
			}
			if !ranged {
				continue
			}
			seen[pl.RuleID] = true
			want, ok := filtered[pl.RuleID]
			switch {
			case ok && !slices.Equal(got, []string{want}):
				t.Errorf("%s: joins answer %q, want %q", pl.RuleID, got, want)
			case !ok && len(got) > 0:
				t.Errorf("%s: joins answer %q, want none", pl.RuleID, got)
			case !ok && unfiltered[pl.RuleID] == "":
				t.Errorf("%s has an interval condition no join answers; say why in this test", pl.RuleID)
			}
		}
	}
	for id := range filtered {
		if !seen[id] {
			t.Errorf("no stock rule %s", id)
		}
	}
	for id := range unfiltered {
		if !seen[id] {
			t.Errorf("no stock rule %s", id)
		}
	}
}

func hasRange(e overlog.Expr) bool {
	switch x := e.(type) {
	case *overlog.RangeExpr:
		return true
	case *overlog.Binary:
		return hasRange(x.L) || hasRange(x.R)
	case *overlog.Unary:
		return hasRange(x.X)
	}
	return false
}
