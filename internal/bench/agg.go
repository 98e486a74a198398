package bench

import (
	"fmt"
	"sort"
	"strings"

	"p2go/internal/chord"
	"p2go/internal/dataflow"
	"p2go/internal/overlog"
)

// AggResult is the -exp agg table: the cost of aggregate strands under
// per-delta rescans versus incremental maintenance, plus the
// incremental|rescan determinism check.
type AggResult struct {
	// Rows is the feeder's key domain (the backing table converges to
	// roughly this many live rows, the N each rescan pays).
	Rows int
	// RescanBusy / IncrBusy are the aggregate query's metered
	// BusySeconds on the measured node over the window, with the kill
	// switch on (per-delta rescans) and off (incremental maintenance).
	RescanBusy float64
	IncrBusy   float64
	// Speedup is RescanBusy / IncrBusy.
	Speedup float64
	// AggApplies counts incremental accumulator applications on the
	// measured node during the incremental run (0 would mean the
	// eligibility analysis silently regressed).
	AggApplies int64
	// EmissionsIdentical reports whether the incremental and the rescan
	// run produced byte-identical watched-emission streams.
	EmissionsIdentical bool
	// Emissions is the per-run watched-tuple count (identical runs
	// agree on it).
	Emissions int
	// AccountingErr records a violated per-query accounting invariant
	// on the measured node ("" = bills sum to node totals).
	AccountingErr string
}

// aggFeederProgram keeps a bounded table churning: every tick replaces
// one row of load (keys collide over a fixed domain), so each delta
// forces every aggregate rule over load to refresh. The 0.23s period
// stays clear of the table's TTL and of whole-second boundaries.
func aggFeederProgram(rows int) string {
	return fmt.Sprintf(`
materialize(load, 45, infinity, keys(1,2)).
fd1 load@N(K, G, V) :- periodic@N(E, 0.23), K := f_rand() %% %d, G := K %% 4, V := f_rand() %% 1000.
`, rows)
}

// aggQueryProgram is the measured aggregate query: every maintainable
// op, grouped and ungrouped, over the churning load table (declared by
// the feeder query).
const aggQueryProgram = `
materialize(loadCnt, infinity, infinity, keys(1,2)).
materialize(loadSum, infinity, infinity, keys(1)).
materialize(loadAvg, infinity, infinity, keys(1)).
materialize(loadMin, infinity, infinity, keys(1)).
materialize(loadMax, infinity, infinity, keys(1)).
watch(loadCnt).
watch(loadSum).
watch(loadAvg).
watch(loadMin).
watch(loadMax).
ag1 loadCnt@N(G, count<*>) :- load@N(K, G, V).
ag2 loadSum@N(sum<V>) :- load@N(K, G, V).
ag3 loadAvg@N(avg<V>) :- load@N(K, G, V).
ag4 loadMin@N(min<V>) :- load@N(K, G, V).
ag5 loadMax@N(max<V>) :- load@N(K, G, V).
`

// AggMaintenance measures the tentpole: for an aggregate query over a
// churning table, incremental accumulator maintenance must cut the
// query's BusySeconds by well over 2x relative to per-delta rescans
// while emitting a bit-identical stream. quick shrinks the domain and
// windows for CI smoke use.
func AggMaintenance(seed int64, quick bool) (AggResult, error) {
	rows, nNodes := 400, 5
	warm, win := 40.0, 90.0
	if quick {
		rows, warm, win = 80, 15.0, 30.0
	}
	res := AggResult{Rows: rows}

	feeder, err := overlog.Parse(aggFeederProgram(rows))
	if err != nil {
		return res, err
	}
	aggs, err := overlog.Parse(aggQueryProgram)
	if err != nil {
		return res, err
	}

	type runOut struct {
		busy    float64
		applies int64
		fp      string
		count   int
	}
	prev := dataflow.DisableIncrementalAggs
	defer func() { dataflow.DisableIncrementalAggs = prev }()

	run := func(incremental bool) (runOut, error) {
		dataflow.DisableIncrementalAggs = !incremental
		r, err := chord.NewRing(chord.RingConfig{
			N: nNodes, Seed: seed,
			ExtraPrograms: []*overlog.Program{feeder, aggs},
		})
		if err != nil {
			return runOut{}, err
		}
		measured := r.Addrs[len(r.Addrs)-1]
		n := r.Node(measured)
		aggQID := chord.ExtraQueryID(1)
		r.Run(warm)
		qBefore := n.QueryMetrics()[aggQID]
		mBefore := n.Metrics()
		r.Run(win)
		q := n.QueryMetrics()[aggQID].Sub(qBefore)
		applies := n.Metrics().Sub(mBefore).AggApplies
		if len(r.Errors) > 0 {
			return runOut{}, fmt.Errorf("bench: agg run raised rule errors: %s", r.Errors[0])
		}
		if err := CheckQueryAccounting(n); err != nil && res.AccountingErr == "" {
			res.AccountingErr = err.Error()
		}
		// Fingerprint the emission stream: per-node, in observation
		// order, name + fields. Timestamps are deliberately excluded —
		// the two cost models legitimately shift the virtual
		// micro-clock; what must match is what each node said and in
		// which order (stimuli sit well clear of TTL and periodic
		// boundaries, so micro-clock drift cannot reorder them).
		byNode := map[string][]string{}
		for _, w := range r.Watched {
			byNode[w.Node] = append(byNode[w.Node], w.T.String())
		}
		nodes := make([]string, 0, len(byNode))
		for a := range byNode {
			nodes = append(nodes, a)
		}
		sort.Strings(nodes)
		var b strings.Builder
		for _, a := range nodes {
			fmt.Fprintf(&b, "%s(%d):\n%s\n", a, len(byNode[a]), strings.Join(byNode[a], "\n"))
		}
		return runOut{busy: q.BusySeconds, applies: applies, fp: b.String(), count: len(r.Watched)}, nil
	}

	incr, err := run(true)
	if err != nil {
		return res, err
	}
	rescan, err := run(false)
	if err != nil {
		return res, err
	}

	res.IncrBusy = incr.busy
	res.RescanBusy = rescan.busy
	if res.IncrBusy > 0 {
		res.Speedup = res.RescanBusy / res.IncrBusy
	}
	res.AggApplies = incr.applies
	res.Emissions = incr.count
	res.EmissionsIdentical = incr.fp == rescan.fp
	return res, nil
}

// FormatAgg renders the aggregate-maintenance table.
func FormatAgg(res AggResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Aggregates: %d-row churning table, count/sum/avg/min/max query measured per-delta\n", res.Rows)
	fmt.Fprintf(&b, "  %-28s %14s\n", "mode", "query-busy(s)")
	fmt.Fprintf(&b, "  %-28s %14.4f\n", "per-delta rescan", res.RescanBusy)
	fmt.Fprintf(&b, "  %-28s %14.4f  (applies=%d)\n", "incremental maintenance", res.IncrBusy, res.AggApplies)
	fmt.Fprintf(&b, "  speedup: %.1fx\n", res.Speedup)
	if res.EmissionsIdentical {
		fmt.Fprintf(&b, "  emissions: %d tuples, bit-identical across incremental|rescan\n", res.Emissions)
	} else {
		fmt.Fprintf(&b, "  EMISSION DIVERGENCE: rescan diverges from incremental\n")
	}
	if res.AccountingErr != "" {
		fmt.Fprintf(&b, "  ACCOUNTING VIOLATION: %s\n", res.AccountingErr)
	} else {
		fmt.Fprintf(&b, "  per-query accounting: bills sum to node totals\n")
	}
	return b.String()
}
