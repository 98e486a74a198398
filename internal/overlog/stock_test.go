package overlog_test

import (
	"p2go/internal/chainrep"
	"p2go/internal/chord"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
)

// init hands FuzzCompile the stock programs, which package overlog's own
// tests cannot import.
func init() {
	progs := []*overlog.Program{
		chord.Program(),
		chord.TreeProgram(chord.TreeConfig{}),
		chainrep.Program(),
		chainrep.MonitorProgram(),
		monitor.SnapshotProgram(),
		monitor.SnapshotInitiatorProgram(30),
		monitor.SnapshotLookupProgram(),
		monitor.SnapshotConsistencyProgram(40),
		monitor.StatsProfilerProgram(10),
		overlog.MustParse(monitor.LineageRules(4)),
		overlog.MustParse(monitor.ProfilerRules("cs2")),
	}
	for _, d := range monitor.Detectors(10, 40) {
		progs = append(progs, d.Program)
	}
	suite, err := monitor.ClusterSuite(10, "n1")
	if err != nil {
		panic(err)
	}
	for _, q := range suite {
		progs = append(progs, overlog.MustParse(q.Source))
	}
	overlog.StockPrograms = progs
}
