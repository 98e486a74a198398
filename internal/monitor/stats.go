package monitor

import (
	"fmt"

	"p2go/internal/overlog"
)

// StatsProfilerRules implement the §3.2 performance profiler as a pure
// OverLog query over the engine's queryable performance counters: these
// two rules periodically read the nodeStats and queryStats system
// tables, which the engine fills from its counters as they are read —
// no Go inspection API involved.
//
//	pf1  emits profile(NAddr, Counter, Value) for every node counter,
//	pf2  emits profQuery(NAddr, QueryID, Counter, Value) for every
//	     per-query bill — the ACME-style "how much is each monitoring
//	     query costing me" report.
//
// The rules trigger on their own periodic (period seconds) and join the
// stats tables, so every sweep reports the full counter set as it stands
// when the sweep runs; the read itself is billed to the profiler's own
// query.
func StatsProfilerRules(period float64) string {
	return fmt.Sprintf(`
pf1 profile@NAddr(NAddr, Counter, Value) :- periodic@NAddr(E, %[1]g), nodeStats@NAddr(Ep, Counter, Value).
pf2 profQuery@NAddr(NAddr, QueryID, Counter, Value) :- periodic@NAddr(E, %[1]g), queryStats@NAddr(Ep, QueryID, Counter, Value).

watch(profile).
watch(profQuery).
`, period)
}

// StatsProfilerProgram parses the stats profiler with the given sweep
// period.
func StatsProfilerProgram(period float64) *overlog.Program {
	return overlog.MustParse(StatsProfilerRules(period))
}

// ProfilerDetector wraps the stats profiler as a deployable detector
// (query ID "mon:profiler"). It is not part of the default Detectors
// suite: profiling is an on-demand forensic tool, deployed when an
// operator wants per-node and per-query cost visibility, and its own
// cost is itself visible in queryStats under "mon:profiler".
func ProfilerDetector(period float64) Detector {
	return Detector{Name: "profiler", Program: StatsProfilerProgram(period)}
}
