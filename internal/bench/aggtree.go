package bench

import (
	"fmt"
	"strings"

	"p2go/internal/chord"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// The aggtree experiment: what in-network aggregation buys cluster-wide
// monitoring. A flat collector answering "count/sum/min/max over every
// member" receives one tuple per member per refresh — O(N) fan-in at
// one node. The tree split bounds every node's inbound monitoring
// traffic by the overlay fanout while converging to the same value,
// exactly, for the distributive aggregates. Flat collection is the same
// split over an overlay of fanout N, where every member's parent is the
// root. This experiment runs the same four cluster queries both ways at
// AggTreeHosts members and gates on:
//
//   - value equality: tree results == flat results == the closed-form
//     oracle (count == N; sum/min/max over a seeded per-host weight
//     table computed independently in Go), exact, no tolerance;
//   - fan-in: max inbound partials at any tree node <= fanout + 1,
//     versus ~N at the flat collector, at least
//     AggTreeMinFanInReduction times smaller;
//   - determinism: at AggTreeFPHosts the converged results are
//     identical across tree|flat. Full-table identity across modes is
//     not a goal — routing partials along a deeper tree necessarily
//     consumes different per-link RNG streams than flat collection;
//   - accounting: the tree's forwarding work is billed to the
//     monitoring query (interior nodes show busy-time under
//     mon:cluster:*), and per-query bills still sum to node totals.
const (
	AggTreeHosts = 1000
	// AggTreeFanout is the overlay fanout K; inbound partials per tree
	// node per refresh are gated at K+1 (the +1 absorbs a child mid-way
	// through a grandparent fallback).
	AggTreeFanout = 8
	// AggTreeMinFanInReduction is the minimum flat/tree fan-in ratio.
	AggTreeMinFanInReduction = 10.0
	// AggTreeFPHosts sizes the determinism cells.
	AggTreeFPHosts = 100
)

// AggTreeRun is one measured ring (tree, or flat collection at fanout
// N).
type AggTreeRun struct {
	Mode  string
	Hosts int
	// Count/Sum/Min/Max are the converged head values at the collector.
	Count, Sum, Min, Max float64
	// MaxFanIn is the max over nodes and cluster queries of partials
	// received from other nodes (rows in an aggPart inbox whose child
	// is not the node itself).
	MaxFanIn int
	// BilledBusy is the total BusySeconds billed to the livecount
	// query across every node — the cost of the monitoring traffic,
	// attributed to the query that caused it.
	BilledBusy float64
}

// AggTreeResult is the full experiment.
type AggTreeResult struct {
	Quick          bool
	Hosts, Fanout  int
	Period         float64
	OracleSum      float64
	OracleMin      float64
	OracleMax      float64
	Tree, Flat     AggTreeRun
	ValuesOK       bool
	FanInBound     int
	FanInOK        bool
	FanInReduction float64
	// Determinism cells.
	FPHosts       int
	ResultFPEqual bool
	// AccountingErr records a violated per-query accounting invariant
	// at the collector or an interior node ("" = bills still sum).
	AccountingErr string
}

// aggTreeWeightProgram declares the static per-host weight table the
// sum/min/max queries aggregate; rows are seeded per node so the bench
// holds a closed-form oracle.
const aggTreeWeightProgram = `
materialize(hostWeight, infinity, 1, keys(1)).
`

// aggTreeWeight is host rank i's seeded weight: co-prime stride over a
// prime modulus, so min/max/sum are non-trivial and rank-determined.
func aggTreeWeight(rank int) int64 { return int64(rank*37%101 + 1) }

// aggTreeSpecs are the measured cluster queries: the member count over
// the stats publications plus sum/min/max over the seeded weights.
func aggTreeSpecs(period float64) []monitor.ClusterSpec {
	weights := []string{"hostWeight"}
	return []monitor.ClusterSpec{
		{Name: "livecount", Period: period, Root: "n1", Source: `
r1 clusterLive@M(count<*>) :- nodeStats@N(Ep, C, V), C == "BusySeconds".`},
		{Name: "wsum", Period: period, Root: "n1", Tables: weights, Source: `
r1 clusterWSum@M(sum<W>) :- hostWeight@N(W).`},
		{Name: "wmin", Period: period, Root: "n1", Tables: weights, Source: `
r1 clusterWMin@M(min<W>) :- hostWeight@N(W).`},
		{Name: "wmax", Period: period, Root: "n1", Tables: weights, Source: `
r1 clusterWMax@M(max<W>) :- hostWeight@N(W).`},
	}
}

var aggTreeHeads = map[string]string{
	"livecount": "clusterLive",
	"wsum":      "clusterWSum",
	"wmin":      "clusterWMin",
	"wmax":      "clusterWMax",
}

func aggTreeValue(r *chord.Ring, addr, tab string) (float64, bool) {
	tb := r.Node(addr).Store().Get(tab)
	if tb == nil {
		return 0, false
	}
	v, ok := 0.0, false
	tb.Scan(r.Sim.Now(), func(t tuple.Tuple) {
		f := t.Field(1)
		if f.Kind() == tuple.KindFloat {
			v = f.AsFloat()
		} else {
			v = float64(f.AsInt())
		}
		ok = true
	})
	return v, ok
}

// runAggTree deploys the four cluster queries on an h-host ring whose
// overlay has the given fanout (h for flat collection) and measures
// converged values, fan-in and billing. accErr receives the first
// accounting violation.
func runAggTree(seed int64, h, fanout int, simSecs, period float64, accErr *string) (AggTreeRun, error) {
	run := AggTreeRun{Mode: "tree", Hosts: h}
	if fanout >= h-1 {
		run.Mode = "flat"
	}
	// NoChord: the bench measures the monitoring stack's own traffic and
	// exactness, so it runs on quiet hosts. At these ring sizes the Chord
	// substrate enters its distressed regime (load-delayed pings read as
	// failures → repair storm) and saturated hosts starve the monitoring
	// strands queued behind it; the tree overlay is rank-based and does
	// not need Chord.
	r, err := chord.NewRing(chord.RingConfig{
		N: h, Seed: seed, StatsPeriod: 2, NoChord: true,
		Tree:          &chord.TreeConfig{Fanout: fanout, Heartbeat: 2},
		ExtraPrograms: []*overlog.Program{overlog.MustParse(aggTreeWeightProgram)},
	})
	if err != nil {
		return run, err
	}

	// Build once, shared-compile once, instantiate everywhere.
	tags := make([]string, 0, len(aggTreeHeads))
	for _, spec := range aggTreeSpecs(period) {
		q, err := monitor.BuildCluster(spec)
		if err != nil {
			return run, err
		}
		if q.Mode != monitor.ClusterTree {
			return run, fmt.Errorf("bench: aggtree query %s planned as %s, want %s", spec.Name, q.Mode, monitor.ClusterTree)
		}
		cq, err := r.Node(r.Addrs[0]).Compile(q.Detector.Program)
		if err != nil {
			return run, fmt.Errorf("bench: aggtree compile %s: %w", spec.Name, err)
		}
		for _, a := range r.Addrs {
			if _, err := r.Node(a).InstallCompiledQuery(q.Detector.QueryID(), cq); err != nil {
				return run, fmt.Errorf("bench: aggtree deploy %s on %s: %w", spec.Name, a, err)
			}
		}
		tags = append(tags, spec.Name)
	}
	for i, a := range r.Addrs {
		r.Node(a).SeedLocal(tuple.New("hostWeight", tuple.Str(a), tuple.Int(aggTreeWeight(i+1))))
	}
	r.Run(simSecs)
	if len(r.Errors) > 0 {
		return run, fmt.Errorf("bench: aggtree %s run raised rule errors: %s", run.Mode, r.Errors[0])
	}

	var vals [4]float64
	for i, tag := range []string{"livecount", "wsum", "wmin", "wmax"} {
		v, ok := aggTreeValue(r, "n1", aggTreeHeads[tag])
		if !ok {
			return run, fmt.Errorf("bench: aggtree %s: no %s row at the collector", run.Mode, aggTreeHeads[tag])
		}
		vals[i] = v
	}
	run.Count, run.Sum, run.Min, run.Max = vals[0], vals[1], vals[2], vals[3]

	now := r.Sim.Now()
	for _, a := range r.Addrs {
		n := r.Node(a)
		for _, tag := range tags {
			tb := n.Store().Get("aggPart_" + tag)
			if tb == nil {
				continue
			}
			recv := 0
			tb.Scan(now, func(t tuple.Tuple) {
				if t.Field(1).AsStr() != a {
					recv++
				}
			})
			if recv > run.MaxFanIn {
				run.MaxFanIn = recv
			}
		}
		run.BilledBusy += n.QueryMetrics()["mon:cluster:livecount"].BusySeconds
	}
	for _, a := range []string{"n1", "n2"} {
		if err := CheckQueryAccounting(r.Node(a)); err != nil && *accErr == "" {
			*accErr = fmt.Sprintf("%s (%s): %s", a, run.Mode, err)
		}
	}
	return run, nil
}

// AggTree runs the experiment. quick shrinks the rings to CI smoke
// size; the gates are identical.
func AggTree(seed int64, quick bool) (*AggTreeResult, error) {
	hosts, fpHosts := AggTreeHosts, AggTreeFPHosts
	period := 3.0
	simSecs, fpSecs := 45.0, 36.0
	if quick {
		hosts, fpHosts = 150, 60
		simSecs, fpSecs = 36.0, 30.0
	}
	res := &AggTreeResult{
		Quick: quick, Hosts: hosts, Fanout: AggTreeFanout, Period: period,
		FanInBound: AggTreeFanout + 1, FPHosts: fpHosts,
	}
	res.OracleMin = float64(aggTreeWeight(1))
	res.OracleMax = res.OracleMin
	for i := 1; i <= hosts; i++ {
		w := float64(aggTreeWeight(i))
		res.OracleSum += w
		if w < res.OracleMin {
			res.OracleMin = w
		}
		if w > res.OracleMax {
			res.OracleMax = w
		}
	}

	var err error
	if res.Tree, err = runAggTree(seed, hosts, AggTreeFanout, simSecs, period, &res.AccountingErr); err != nil {
		return nil, err
	}
	if res.Flat, err = runAggTree(seed, hosts, hosts, simSecs, period, &res.AccountingErr); err != nil {
		return nil, err
	}

	exact := func(r AggTreeRun) bool {
		return r.Count == float64(hosts) && r.Sum == res.OracleSum &&
			r.Min == res.OracleMin && r.Max == res.OracleMax
	}
	res.ValuesOK = exact(res.Tree) && exact(res.Flat)
	if res.Tree.MaxFanIn > 0 {
		res.FanInReduction = float64(res.Flat.MaxFanIn) / float64(res.Tree.MaxFanIn)
	}
	res.FanInOK = res.Tree.MaxFanIn <= res.FanInBound &&
		res.FanInReduction >= AggTreeMinFanInReduction

	// Determinism cells: tree|flat at fpHosts.
	tree, err := runAggTree(seed, fpHosts, AggTreeFanout, fpSecs, period, &res.AccountingErr)
	if err != nil {
		return nil, fmt.Errorf("tree cell: %w", err)
	}
	flat, err := runAggTree(seed, fpHosts, fpHosts, fpSecs, period, &res.AccountingErr)
	if err != nil {
		return nil, fmt.Errorf("flat cell: %w", err)
	}
	res.ResultFPEqual = tree.Count == flat.Count && tree.Sum == flat.Sum &&
		tree.Min == flat.Min && tree.Max == flat.Max
	return res, nil
}

// FormatAggTree renders the experiment table.
func FormatAggTree(res *AggTreeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Aggtree: %d-host cluster queries, tree (fanout %d) vs flat collection, refresh %gs\n",
		res.Hosts, res.Fanout, res.Period)
	fmt.Fprintf(&b, "  oracle: count=%d sum=%g min=%g max=%g\n",
		res.Hosts, res.OracleSum, res.OracleMin, res.OracleMax)
	for _, r := range []AggTreeRun{res.Tree, res.Flat} {
		fmt.Fprintf(&b, "  %-5s: count=%g sum=%g min=%g max=%g  max-fan-in=%d  billed-busy=%.4fs\n",
			r.Mode, r.Count, r.Sum, r.Min, r.Max, r.MaxFanIn, r.BilledBusy)
	}
	fmt.Fprintf(&b, "  values exact: %v\n", res.ValuesOK)
	fmt.Fprintf(&b, "  fan-in: tree %d <= bound %d, flat %d (%.0fx reduction, gate >= %.0fx): %v\n",
		res.Tree.MaxFanIn, res.FanInBound, res.Flat.MaxFanIn,
		res.FanInReduction, AggTreeMinFanInReduction, res.FanInOK)
	fmt.Fprintf(&b, "  %d-host determinism: results equal across tree|flat=%v\n",
		res.FPHosts, res.ResultFPEqual)
	fmt.Fprintf(&b, "  per-query accounting: %s\n", formatAccounting(res.AccountingErr))
	return b.String()
}
