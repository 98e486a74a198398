package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"p2go/internal/chord"
	"p2go/internal/engine"
	"p2go/internal/metrics"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// Output file names for the trace experiment (created in the directory
// passed to TraceExport).
const (
	TraceChromeFile = "TRACE_chrome.json"
	TracePromFile   = "TRACE_metrics.prom"
)

// TraceResult summarizes one TraceExport run: what was written and how
// much causal structure the trace captured.
type TraceResult struct {
	// Nodes is the ring size the trace covers.
	Nodes int
	// At is the virtual time of the export.
	At float64
	// Stats is the exporter's own summary (activations, flows, nodes
	// participating in flows).
	Stats trace.ChromeStats
	// ChromeBytes / PromBytes are the written file sizes.
	ChromeBytes int
	PromBytes   int
	// ChromePath / PromPath are the written file paths.
	ChromePath string
	PromPath   string
}

// TraceExport runs a traced Chord ring, injects lookups from the
// measured node so multi-hop causal chains cross the network, and
// exports the accumulated trace twice: as Chrome trace-event JSON
// (chrome://tracing, Perfetto) and as a Prometheus text scrape of the
// measured node. quick shrinks the run to CI size (4 nodes, tight
// tracer bounds); the full run uses the §4 deployment. Everything runs
// in virtual time, so output for a fixed seed is byte-stable.
func TraceExport(seed int64, quick bool, outDir string) (TraceResult, error) {
	n, converge, settle := Nodes, float64(ConvergeTime), 30.0
	tcfg := trace.DefaultConfig()
	if quick {
		n, converge, settle = 4, 60, 15
		tcfg = trace.Config{RuleExecTTL: 30, RuleExecMax: 80, RecordsPerStrand: 8, TupleLogMax: 100}
	}
	measured := fmt.Sprintf("n%d", n)

	r, err := chord.NewRing(chord.RingConfig{
		N: n, Seed: seed, Tracing: &tcfg,
	})
	if err != nil {
		return TraceResult{}, err
	}
	r.Run(converge)
	// Lookups from the measured node hop around the ring, so the trace
	// ends with fresh multi-node request chains on top of the steady
	// maintenance traffic.
	for i := uint64(0); i < 8; i++ {
		if err := r.Lookup(measured, i*0x2000_0000_0000_0000/4+i, i); err != nil {
			return TraceResult{}, err
		}
	}
	r.Run(settle)

	res := TraceResult{Nodes: n, At: r.Sim.Now()}
	exports := make([]trace.ExportNode, 0, n)
	for _, a := range r.Addrs {
		exports = append(exports, trace.ExportNode{
			Addr: a, Store: r.Node(a).Store(), Now: r.Sim.Now(),
		})
	}

	res.ChromePath = filepath.Join(outDir, TraceChromeFile)
	cf, err := os.Create(res.ChromePath)
	if err != nil {
		return res, err
	}
	res.Stats, err = trace.ExportChrome(cf, exports)
	if cerr := cf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	raw, err := os.ReadFile(res.ChromePath)
	if err != nil {
		return res, err
	}
	if !json.Valid(raw) {
		return res, fmt.Errorf("bench: chrome export is not valid JSON")
	}
	res.ChromeBytes = len(raw)

	res.PromPath = filepath.Join(outDir, TracePromFile)
	pf, err := os.Create(res.PromPath)
	if err != nil {
		return res, err
	}
	mn := r.Node(measured)
	hists := mn.Hists()
	err = metrics.WritePrometheus(pf, measured, mn.Metrics(), mn.QueryMetrics(), &hists, mn.ObsCounters()...)
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	praw, err := os.ReadFile(res.PromPath)
	if err != nil {
		return res, err
	}
	res.PromBytes = len(praw)
	if len(r.Errors) > 0 {
		return res, fmt.Errorf("bench: trace run raised rule errors: %s", r.Errors[0])
	}
	return res, nil
}

// FormatTrace renders the trace-export summary.
func FormatTrace(res TraceResult) string {
	return fmt.Sprintf(
		"Trace export: %d-node traced ring at t=%.0fs\n"+
			"  rule activations exported: %d\n"+
			"  cross-node flow arrows   : %d spanning %d nodes %v\n"+
			"  %s (%d bytes), %s (%d bytes)\n",
		res.Nodes, res.At, res.Stats.RuleExecs,
		res.Stats.Flows, len(res.Stats.FlowNodes), res.Stats.FlowNodes,
		res.ChromePath, res.ChromeBytes, res.PromPath, res.PromBytes)
}

// StatsOverheadResult compares two identical churn runs, without and
// with the §3.2 profiler (monitor.ProfilerDetector) on every node: what
// reading the engine's own counters through queries costs. Nothing is
// paid until a query reads them.
type StatsOverheadResult struct {
	// Period is the profiler's sweep period (seconds).
	Period float64
	// BaseBusy / StatsBusy are the total BusySeconds summed over every
	// node for the runs without and with the profiler.
	BaseBusy  float64
	StatsBusy float64
	// OverheadPercent is the relative BusySeconds increase.
	OverheadPercent float64
	// ProfilerBusy is the profiler query's bill summed over every node:
	// its sweeps, and the stats-table fills its reads cause.
	ProfilerBusy float64
	// NodeStatsRows / QueryStatsRows count the stats-table rows the
	// measured node holds when read at the end of the profiled run.
	NodeStatsRows  int
	QueryStatsRows int
	// AccountingErr records a violated per-query accounting invariant
	// on the measured node of the profiled run ("" = bills sum to
	// totals).
	AccountingErr string
}

// StatsOverhead measures the introspection tax: it repeats the §4 churn
// experiment without and with the stats profiler (period 5 s) on all
// nodes and reports the BusySeconds delta. A read of the stats tables
// bills the reading query, so the delta lands in the profiler's bucket
// and per-query accounting must still sum — CheckQueryAccounting gates
// that.
func StatsOverhead(seed int64) (StatsOverheadResult, error) {
	const period = 5.0
	detectors := churnDetectors()
	profiler := chord.ExtraQueryID(len(detectors))
	run := func(detectors []*overlog.Program) (*chord.Ring, float64, error) {
		r, _, err := chord.RunChurn(chord.ChurnConfig{
			N: Nodes, Seed: seed, Converge: ConvergeTime, End: 480,
			Detectors:  detectors,
			AlarmNames: churnAlarms,
		})
		if err != nil {
			return nil, 0, err
		}
		var busy float64
		for _, a := range r.Addrs {
			busy += r.Node(a).Metrics().BusySeconds
		}
		return r, busy, nil
	}

	res := StatsOverheadResult{Period: period}
	var err error
	if _, res.BaseBusy, err = run(detectors); err != nil {
		return res, err
	}
	r, statsBusy, err := run(append(detectors, monitor.ProfilerDetector(period).Program))
	if err != nil {
		return res, err
	}
	res.StatsBusy = statsBusy
	if res.BaseBusy > 0 {
		res.OverheadPercent = 100 * (res.StatsBusy - res.BaseBusy) / res.BaseBusy
	}
	for _, a := range r.Addrs {
		res.ProfilerBusy += r.Node(a).QueryMetrics()[profiler].BusySeconds
	}
	mn := r.Node(Measured)
	res.NodeStatsRows = countRows(r, Measured, engine.NodeStatsTableName)
	res.QueryStatsRows = countRows(r, Measured, engine.QueryStatsTableName)
	if err := CheckQueryAccounting(mn); err != nil {
		res.AccountingErr = err.Error()
	}
	return res, nil
}

// FormatStatsOverhead renders the profiler-overhead comparison.
func FormatStatsOverhead(res StatsOverheadResult) string {
	return fmt.Sprintf(
		"Profiler: stats profiler (period %gs, all %d nodes) over the churn run\n"+
			"  BusySeconds off : %10.4f\n"+
			"  BusySeconds on  : %10.4f  (%+.2f%%)\n"+
			"  profiler bill   : %10.4f\n"+
			"  stats tables on %s: %d nodeStats rows, %d queryStats rows\n"+
			"  accounting      : %s\n",
		res.Period, Nodes, res.BaseBusy, res.StatsBusy, res.OverheadPercent,
		res.ProfilerBusy, Measured, res.NodeStatsRows, res.QueryStatsRows,
		formatAccounting(res.AccountingErr))
}

func formatAccounting(err string) string {
	if err == "" {
		return "per-query bills sum to node totals"
	}
	return "VIOLATED: " + err
}

func countRows(r *chord.Ring, addr, table string) int {
	tb := r.Node(addr).Store().Get(table)
	if tb == nil {
		return 0
	}
	n := 0
	tb.Scan(r.Sim.Now(), func(tuple.Tuple) { n++ })
	return n
}
