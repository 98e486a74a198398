package planner

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"p2go/internal/overlog"
)

// Cluster-aggregate splitting: rewrite an eligible aggregate query over
// every node's local state into an in-network aggregation program. The
// paper computes cluster-wide monitoring values (section 3.2's
// aggregates over distributed state) by collecting every row at one
// node; at scale that gives the collector O(N) inbound tuples per
// refresh. The split keeps the aggregate's value while bounding fan-in:
// each node maintains a local partial aggregate, periodically pushes it
// one hop up an aggregation tree, and interior nodes merge child
// partials so no node ever receives more than its tree fan-in per
// refresh. Flat collection is the same program over a tree whose fanout
// covers every member: each one's parent is the root.
//
// The split is exact for the distributive aggregates (count, sum, min,
// max) and algebraic avg, which travels as a (sum, count) pair and is
// divided only at the root. Partials are uniform across ops: every
// upward tuple is aggPart_<tag>(Parent, Child, Epoch, W, C) where W is
// the op-specific weight (count or sum or min or max over the subtree)
// and C is the subtree's contributing-row count. Carrying C for every
// op costs one field and buys a single tuple layout plus a free
// node-coverage diagnostic.
//
// Liveness under churn is TTL-based, mirroring the overlay tables: a
// parent's inbox row for a child expires PartTTLFactor refresh periods
// after the child last pushed, so a crashed subtree ages out of the
// aggregate without any explicit retraction protocol. Rows also carry
// the child's nodeEpoch incarnation so forensic queries can tell a
// fresh-epoch row from a stale pre-crash one.

const (
	// NodeEpochTable is the engine-owned incarnation table
	// (engine.NodeEpochTableName) generated refresh rules join so every
	// partial carries its origin's epoch.
	NodeEpochTable = "nodeEpoch"
	// TreeParentTable is the overlay's parent-selection table
	// (chord.TreeParentTableName); tree-mode rewrites route partials
	// along it. The root is the node whose treeParent row names itself.
	TreeParentTable = "treeParent"
	// PartTTLFactor scales the refresh period into the partial-inbox
	// TTL: a child missing this many refreshes ages out of its parent's
	// merge, which is how the aggregate sheds crashed subtrees.
	PartTTLFactor = 2.5
)

// ClusterAgg is the analysis of one splittable cluster aggregate: a
// rule head @Root(op<V>) whose body reads only local materialized state
// at a single location variable, with the head location free — i.e. "a
// value computed from every node's tables, delivered somewhere else".
type ClusterAgg struct {
	// Head is the result predicate name; the rewrite materializes it
	// (one row) at the collector.
	Head string
	// RootVar is the head's free location variable (the collector).
	RootVar string
	// Op is the aggregate: count, sum, min, max or avg.
	Op string
	// Value is the aggregated body variable ("" for count<*>).
	Value string
	// LocVar is the body's shared location variable.
	LocVar string
	// Body is the re-rendered body source, reused verbatim by the
	// generated leaf rules.
	Body   string
	onTick bool // the body reads a table filled on read
}

// mergeOp maps each splittable aggregate to the operator that combines
// child W partials; avg travels as a sum and divides at the root.
var mergeOp = map[string]string{
	"count": "sum",
	"sum":   "sum",
	"min":   "min",
	"max":   "max",
	"avg":   "sum",
}

// AnalyzeClusterAgg decides whether rule r can be split into leaf
// partial-aggregates plus merge strands. The returned error is the
// human-readable ineligibility reason callers log when they fall back
// to flat collection of raw rows.
func AnalyzeClusterAgg(r *overlog.Rule, env Env) (*ClusterAgg, error) {
	if r.Delete {
		return nil, fmt.Errorf("delete rules cannot be split")
	}
	rootVar, ok := r.Head.Loc.(*overlog.Var)
	if !ok {
		return nil, fmt.Errorf("head needs an explicit variable location (@Root)")
	}
	if len(r.Head.Args) != 1 {
		return nil, fmt.Errorf("head must carry exactly one aggregate column (group-by is not splittable)")
	}
	agg, ok := r.Head.Args[0].(*overlog.Agg)
	if !ok {
		return nil, fmt.Errorf("head column is not an aggregate")
	}
	if _, ok := mergeOp[agg.Op]; !ok {
		return nil, fmt.Errorf("aggregate %s has no distributive merge", agg.Op)
	}
	preds := r.Predicates()
	if len(preds) == 0 {
		return nil, fmt.Errorf("body has no predicates")
	}
	locVar := ""
	onTick := false
	bound := map[string]bool{}
	for _, p := range preds {
		onTick = onTick || FilledOnRead(p.Name)
		if p.Name == "periodic" {
			return nil, fmt.Errorf("periodic bodies are not splittable (the rewrite owns the refresh clock)")
		}
		lv, ok := p.Loc.(*overlog.Var)
		if !ok {
			return nil, fmt.Errorf("body predicate %s needs a variable location", p.Name)
		}
		if locVar == "" {
			locVar = lv.Name
		} else if lv.Name != locVar {
			return nil, fmt.Errorf("body spans two location variables (%s and %s)", locVar, lv.Name)
		}
		if !env.IsMaterialized(p.Name) {
			return nil, fmt.Errorf("body predicate %s is not a materialized table (leaf partials are delta-maintained)", p.Name)
		}
		for _, arg := range p.AllArgs() {
			if v, ok := arg.(*overlog.Var); ok {
				bound[v.Name] = true
			}
		}
	}
	for _, t := range r.Body {
		switch x := t.(type) {
		case *overlog.Cond:
			if !pureExpr(x.Expr) {
				return nil, fmt.Errorf("condition %s uses an impure builtin", x)
			}
		case *overlog.Assign:
			if !pureExpr(x.Expr) {
				return nil, fmt.Errorf("assignment %s uses an impure builtin", x)
			}
			bound[x.Var] = true
		}
	}
	if bound[rootVar.Name] {
		return nil, fmt.Errorf("head location %s is bound in the body (not a free collector)", rootVar.Name)
	}
	if agg.Var != "" && !bound[agg.Var] {
		return nil, fmt.Errorf("aggregated variable %s is not bound by the body", agg.Var)
	}
	body := make([]string, len(r.Body))
	for i, t := range r.Body {
		body[i] = t.String()
	}
	return &ClusterAgg{
		Head:    r.Head.Name,
		RootVar: rootVar.Name,
		Op:      agg.Op,
		Value:   agg.Var,
		LocVar:  locVar,
		Body:    strings.Join(body, ", "),
		onTick:  onTick,
	}, nil
}

// SplitConfig parameterizes the generated program.
type SplitConfig struct {
	// Tag suffixes every generated table and rule label, so several
	// split queries coexist on one node. Identifier characters only.
	Tag string
	// Period is the refresh cadence in seconds: how often each node
	// pushes its (re-merged) partial one hop up.
	Period float64
	// Root is the collector address RewriteFlatCollect mirrors rows to.
	// Rewrite ignores it: its root is wherever the overlay's treeParent
	// self-loop lands, by construction the same node.
	Root string
}

var tagRE = regexp.MustCompile(`^[A-Za-z0-9_]+$`)

// Rewrite generates the OverLog split program for the analyzed
// aggregate: leaf rules maintaining the local partial (delta strands
// over the original body, so the incremental-aggregate path applies;
// on the tick when the body reads a table filled on read), a per-query
// refresh clock, and tick-driven merge/upward strands.
//
// Propagation is deliberately tick-paced rather than delta-cascaded:
// emissions land after the tick's strands finish, so each refresh moves
// partials exactly one level and a depth-d tree converges d+2 ticks
// after its leaves stabilize (d+3 for a leaf on the tick). In exchange
// every row in every partial inbox is re-pushed (and so TTL-refreshed) every period even when
// values are static — liveness never depends on values changing. The
// count-merge strand installs before the weight-merge strand on
// purpose: both fire on the same tick, so the root and upward strands
// always read a (W, C) pair from the same refresh.
//
// The same program text installs on every node; rules that only matter
// at interior nodes or the root simply never fire elsewhere.
func (a *ClusterAgg) Rewrite(cfg SplitConfig) (string, error) {
	if !tagRE.MatchString(cfg.Tag) {
		return "", fmt.Errorf("split tag %q must be identifier characters", cfg.Tag)
	}
	if cfg.Period <= 0 {
		return "", fmt.Errorf("split period must be positive, got %g", cfg.Period)
	}
	tag := cfg.Tag
	selfW, selfC := "aggSelfW_"+tag, "aggSelfC_"+tag
	part, subW, subC := "aggPart_"+tag, "aggSubW_"+tag, "aggSubC_"+tag
	tick := "aggTick_" + tag
	for _, n := range []string{selfW, selfC, part, subW, subC, tick} {
		if n == a.Head {
			return "", fmt.Errorf("head table %s collides with a generated table", a.Head)
		}
	}
	leaf := a.Op + "<" + a.Value + ">"
	switch a.Op {
	case "count":
		leaf = "count<*>"
	case "avg":
		leaf = "sum<" + a.Value + ">"
	}
	period := strconv.FormatFloat(cfg.Period, 'g', -1, 64)
	ttl := strconv.FormatFloat(PartTTLFactor*cfg.Period, 'g', -1, 64)

	var b strings.Builder
	w := func(format string, args ...any) {
		fmt.Fprintf(&b, format+"\n", args...)
	}
	// Partial inboxes are keyed by child (field 2), so a re-push
	// replaces the child's previous row and a silent child expires.
	w("materialize(%s, infinity, 1, keys(1)).", selfW)
	w("materialize(%s, infinity, 1, keys(1)).", selfC)
	w("materialize(%s, %s, infinity, keys(2)).", part, ttl)
	w("materialize(%s, infinity, 1, keys(1)).", subW)
	w("materialize(%s, infinity, 1, keys(1)).", subC)
	w("materialize(%s, infinity, 1, keys(1)).", a.Head)
	// Leaf partials: the original body, aggregated locally.
	body := a.Body
	if a.onTick {
		body = tick + "@" + a.LocVar + "(AggE), " + body
	}
	w("agg_%s_lw %s@%s(%s) :- %s.", tag, selfW, a.LocVar, leaf, body)
	w("agg_%s_lc %s@%s(count<*>) :- %s.", tag, selfC, a.LocVar, body)
	// Refresh clock.
	w("agg_%s_tk %s@AggN(AggE) :- periodic@AggN(AggE, %s).", tag, tick, period)
	// Self partial into the local inbox.
	w("agg_%s_sf %s@AggN(AggN, AggEp, AggW, AggC) :- %s@AggN(AggE), %s@AggN(AggW), %s@AggN(AggC), %s@AggN(AggEp).",
		tag, part, tick, selfW, selfC, NodeEpochTable)
	// Subtree merge; count first so the weight strand's readers see a
	// consistent pair (see the tick-pacing note above).
	w("agg_%s_mc %s@AggN(sum<AggC>) :- %s@AggN(AggE), %s@AggN(AggChild, AggEp, AggW, AggC).",
		tag, subC, tick, part)
	w("agg_%s_mw %s@AggN(%s<AggW>) :- %s@AggN(AggE), %s@AggN(AggChild, AggEp, AggW, AggC).",
		tag, subW, mergeOp[a.Op], tick, part)
	// Upward push to the parent.
	w("agg_%s_up %s@AggP(AggN, AggEp, AggW, AggC) :- %s@AggN(AggE), %s@AggN(AggW), %s@AggN(AggC), %s@AggN(AggEp), %s@AggN(AggP), AggP != AggN.",
		tag, part, tick, subW, subC, NodeEpochTable, TreeParentTable)
	// Root finalize: the whole-cluster merge becomes the original head.
	finalize := "AggVal := AggW"
	if a.Op == "avg" {
		finalize = "AggC > 0, AggVal := (1.0 * AggW) / AggC"
	}
	w("agg_%s_rt %s@AggN(AggVal) :- %s@AggN(AggE), %s@AggN(AggW), %s@AggN(AggC), %s@AggN(AggP), AggP == AggN, %s.",
		tag, a.Head, tick, subW, subC, TreeParentTable, finalize)
	return b.String(), nil
}

// RewriteFlatCollect is the fallback for rules AnalyzeClusterAgg
// rejects (group-by columns, most commonly): every node periodically
// ships its matching raw rows to the collector, where the original
// rule runs unchanged over the mirrored copies. No partial aggregation
// — the collector's fan-in is O(cluster), which is exactly what the
// split avoids — so deployers log the ineligibility reason when they
// take this path. The mirror is a TTL'd set keyed on whole rows:
// superseded rows linger up to one inbox TTL, so aggregates over
// fast-moving values are window-approximate here (the split path has
// no such lag). Single-predicate bodies only.
func RewriteFlatCollect(r *overlog.Rule, env Env, cfg SplitConfig) (string, error) {
	if !tagRE.MatchString(cfg.Tag) {
		return "", fmt.Errorf("split tag %q must be identifier characters", cfg.Tag)
	}
	if cfg.Period <= 0 {
		return "", fmt.Errorf("split period must be positive, got %g", cfg.Period)
	}
	if cfg.Root == "" {
		return "", fmt.Errorf("flat collection needs a collector root address")
	}
	if r.Delete {
		return "", fmt.Errorf("delete rules cannot be collected")
	}
	if _, ok := r.Head.Loc.(*overlog.Var); !ok {
		return "", fmt.Errorf("head needs an explicit variable location (@Root)")
	}
	preds := r.Predicates()
	if len(preds) != 1 {
		return "", fmt.Errorf("flat collection supports a single body predicate, got %d", len(preds))
	}
	src := preds[0]
	locVar, ok := src.Loc.(*overlog.Var)
	if !ok {
		return "", fmt.Errorf("body predicate %s needs a variable location", src.Name)
	}
	if !env.IsMaterialized(src.Name) {
		return "", fmt.Errorf("body predicate %s is not a materialized table", src.Name)
	}
	for _, v := range ruleVars(r) {
		if strings.HasPrefix(v, "AggFw") {
			return "", fmt.Errorf("variable %s collides with generated names", v)
		}
	}
	tag := cfg.Tag
	mirror, tick := "aggRaw_"+tag, "aggTick_"+tag
	if mirror == r.Head.Name || tick == r.Head.Name {
		return "", fmt.Errorf("head table %s collides with a generated table", r.Head.Name)
	}
	// Forward pattern: the source pattern with wildcards named, so the
	// head can re-emit every matched field. The mirrored row keeps the
	// origin's address as its first data field.
	fresh := 0
	pat := make([]string, len(src.Args))
	fwd := make([]string, len(src.Args))
	for i, arg := range src.Args {
		if _, ok := arg.(*overlog.Wildcard); ok {
			fresh++
			pat[i] = fmt.Sprintf("AggFw%d", fresh)
		} else {
			pat[i] = arg.String()
		}
		fwd[i] = pat[i]
	}
	arity := 2 + len(src.Args) // collector, origin, fields...
	keys := make([]string, arity)
	for i := range keys {
		keys[i] = strconv.Itoa(i + 1)
	}
	period := strconv.FormatFloat(cfg.Period, 'g', -1, 64)
	ttl := strconv.FormatFloat(PartTTLFactor*cfg.Period, 'g', -1, 64)

	var b strings.Builder
	w := func(format string, args ...any) {
		fmt.Fprintf(&b, format+"\n", args...)
	}
	w("materialize(%s, %s, infinity, keys(%s)).", mirror, ttl, strings.Join(keys, ","))
	w("agg_%s_tk %s@%s(AggFwE) :- periodic@%s(AggFwE, %s).", tag, tick, locVar.Name, locVar.Name, period)
	w("agg_%s_fw %s@%q(%s) :- %s@%s(AggFwE), %s@%s(%s).",
		tag, mirror, cfg.Root,
		strings.Join(append([]string{locVar.Name}, fwd...), ", "),
		tick, locVar.Name, src.Name, locVar.Name, strings.Join(pat, ", "))
	// The original rule, re-rooted: its body predicate becomes the
	// mirror (origin address re-bound to the old location variable) and
	// its head location binds to the collector.
	rootVar := r.Head.Loc.(*overlog.Var).Name
	body := make([]string, 0, len(r.Body))
	for _, t := range r.Body {
		if p, ok := t.(*overlog.Pred); ok && p.Name == src.Name {
			body = append(body, fmt.Sprintf("%s@%s(%s)",
				mirror, rootVar, strings.Join(append([]string{locVar.Name}, argStrings(p.Args)...), ", ")))
			continue
		}
		body = append(body, t.String())
	}
	w("agg_%s_rt %s :- %s.", tag, r.Head.String(), strings.Join(body, ", "))
	return b.String(), nil
}

// ruleVars lists every variable name occurring in the rule.
func ruleVars(r *overlog.Rule) []string {
	seen := map[string]bool{}
	var walk func(e overlog.Expr)
	walk = func(e overlog.Expr) {
		switch x := e.(type) {
		case *overlog.Var:
			seen[x.Name] = true
		case *overlog.Unary:
			walk(x.X)
		case *overlog.Binary:
			walk(x.L)
			walk(x.R)
		case *overlog.Call:
			for _, a := range x.Args {
				walk(a)
			}
		case *overlog.ListExpr:
			for _, el := range x.Elems {
				walk(el)
			}
		case *overlog.RangeExpr:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		}
	}
	for _, a := range r.Head.AllArgs() {
		walk(a)
	}
	for _, t := range r.Body {
		switch x := t.(type) {
		case *overlog.Pred:
			for _, a := range x.AllArgs() {
				walk(a)
			}
		case *overlog.Cond:
			walk(x.Expr)
		case *overlog.Assign:
			seen[x.Var] = true
			walk(x.Expr)
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	return out
}

func argStrings(args []overlog.Expr) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = a.String()
	}
	return out
}
