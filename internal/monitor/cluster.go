package monitor

import (
	"fmt"
	"log"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/planner"
)

// mon:cluster queries: the paper's global monitoring questions ("how
// busy is the cluster", "max queue anywhere") phrased as one OverLog
// aggregate over every member's stats tables, deployed through the
// planner's cluster-aggregate split so the answer assembles in-network
// along the chord tree overlay instead of funneling O(N) rows into one
// collector. A query the split cannot take (group-by, multi-location
// bodies) still deploys — as raw flat collection — with the
// ineligibility reason logged. Flat collection of partials is the tree
// mode over an overlay whose fanout covers every member.
// To share one plan across a fleet, compile the detector program on a
// member that already runs the overlay (engine.Node.Compile) and
// install the result everywhere with InstallCompiledQuery.

// ClusterSpec is one cluster-wide aggregate monitoring query.
type ClusterSpec struct {
	// Name identifies the query; it deploys as "mon:cluster:<Name>"
	// and tags the generated tables, so it must be identifier
	// characters and unique among deployed cluster queries.
	Name string
	// Source is a single-rule program "head@Root(op<V>) :- body." —
	// the body reads node-local tables, the head location is the free
	// collector variable.
	Source string
	// Period is the refresh cadence in seconds.
	Period float64
	// Root is the collector address: the tree root's address in tree
	// mode (rank 1 of the overlay), the mirror's destination in collect
	// mode.
	Root string
	// Tables names non-system materialized tables the body reads
	// (nodeStats/queryStats/nodeEpoch are admitted automatically).
	Tables []string
}

// ClusterMode says how a cluster query was planned.
type ClusterMode string

const (
	// ClusterTree: split into leaf partials merged up the tree overlay.
	ClusterTree ClusterMode = "tree"
	// ClusterCollect: raw rows mirrored to the collector, original
	// rule evaluated there (the non-splittable fallback).
	ClusterCollect ClusterMode = "collect"
)

// ClusterQuery is a built cluster query ready to Deploy.
type ClusterQuery struct {
	Detector Detector
	Mode     ClusterMode
	// Reason explains a non-tree Mode ("" when Mode is ClusterTree).
	Reason string
	// Source is the generated OverLog program text (the installed
	// rewrite, not the spec's input rule).
	Source string
}

// BuildCluster analyzes and rewrites the spec into a deployable
// detector. The fallback is logged, not fatal: an ineligible aggregate
// becomes a flat raw collection.
func BuildCluster(spec ClusterSpec) (ClusterQuery, error) {
	if spec.Name == "" {
		return ClusterQuery{}, fmt.Errorf("monitor: cluster query needs a name")
	}
	prog, err := overlog.Parse(spec.Source)
	if err != nil {
		return ClusterQuery{}, fmt.Errorf("monitor: cluster %s: %w", spec.Name, err)
	}
	rules := prog.Rules()
	if len(rules) != 1 {
		return ClusterQuery{}, fmt.Errorf("monitor: cluster %s: want exactly one rule, got %d", spec.Name, len(rules))
	}
	extra := make(map[string]bool, len(spec.Tables))
	for _, t := range spec.Tables {
		extra[t] = true
	}
	env := planner.EnvFunc(func(name string) bool {
		return extra[name] || engine.IsSystemTable(name)
	})
	cfg := planner.SplitConfig{Tag: spec.Name, Period: spec.Period, Root: spec.Root}

	q := ClusterQuery{Mode: ClusterTree}
	var src string
	a, aerr := planner.AnalyzeClusterAgg(rules[0], env)
	if aerr == nil {
		if src, err = a.Rewrite(cfg); err != nil {
			return ClusterQuery{}, fmt.Errorf("monitor: cluster %s: %w", spec.Name, err)
		}
	} else {
		q.Mode, q.Reason = ClusterCollect, aerr.Error()
		if src, err = planner.RewriteFlatCollect(rules[0], env, cfg); err != nil {
			return ClusterQuery{}, fmt.Errorf("monitor: cluster %s: not splittable (%s) and not collectable: %w", spec.Name, aerr, err)
		}
		log.Printf("monitor: cluster query %s deploying as %s collection: %s", spec.Name, q.Mode, q.Reason)
	}
	p, err := overlog.Parse(src)
	if err != nil {
		return ClusterQuery{}, fmt.Errorf("monitor: cluster %s: generated program: %w", spec.Name, err)
	}
	q.Detector = Detector{Name: "cluster:" + spec.Name, Program: p}
	q.Source = src
	return q, nil
}

// ClusterSuite returns the stock cluster-wide stats queries over the
// counter tables: live member count, total cluster busy-seconds, the
// max tuples processed by any node, and total rule fires billed to the
// chord substrate. period/root parameterize every query alike. Rings
// deploy these with the tree overlay installed; each leaf partial reads
// its node's counters on the refresh tick.
func ClusterSuite(period float64, root string) ([]ClusterQuery, error) {
	specs := []ClusterSpec{
		{Name: "livecount", Period: period, Root: root, Source: `
r1 clusterLive@M(count<*>) :- nodeStats@N(Ep, C, V), C == "BusySeconds".`},
		{Name: "busysum", Period: period, Root: root, Source: `
r1 clusterBusy@M(sum<V>) :- nodeStats@N(Ep, C, V), C == "BusySeconds".`},
		{Name: "maxtuples", Period: period, Root: root, Source: `
r1 clusterMaxTuples@M(max<V>) :- nodeStats@N(Ep, C, V), C == "TuplesProcessed".`},
		{Name: "chordfires", Period: period, Root: root, Source: `
r1 clusterChordFires@M(sum<V>) :- queryStats@N(Ep, Q, C, V), Q == "chord", C == "RuleFires".`},
	}
	out := make([]ClusterQuery, 0, len(specs))
	for _, s := range specs {
		q, err := BuildCluster(s)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}
