// Shared query compilation: plan a program once, instantiate it on N
// identical nodes. At ring scale (1k-10k simulated hosts running the
// same Chord program) per-node planning dominated install time and
// per-node plans dominated steady-state memory — every node held its own
// parsed rule ASTs and op pipelines. CompileQuery produces one immutable
// set of dataflow.Plans; InstallCompiledQuery wraps each in a
// lightweight per-node Strand (scratch state only).
//
// Correctness contract: a shared install must be bit-identical to a
// private install. Compilation depends on exactly two node-local inputs:
// the materialization environment (which predicate names are tables) and
// the generated-label counter. CompileQuery records every environment
// answer it observed and the number of labels it consumed;
// InstallCompiledQuery re-derives both on the target node and silently
// falls back to private planning on any mismatch.
package engine

import (
	"fmt"
	"sort"

	"p2go/internal/dataflow"
	"p2go/internal/overlog"
	"p2go/internal/planner"
	"p2go/internal/table"
)

// DisableSharedPlans forces InstallCompiledQuery back to per-node
// private planning, mirroring DisableIncrementalAggs. It exists for the
// scale benchmark's private-plan baseline and the differential tests
// that use private planning as their reference; production code never
// sets it. Not safe to flip while nodes run.
var DisableSharedPlans bool

// envCheck is one materialization answer the compile-time environment
// gave the planner. A target node replays these against its own store
// before accepting the shared plans.
type envCheck struct {
	name         string
	materialized bool
}

// CompiledQuery is a program planned once against a reference
// environment. It is immutable after CompileQuery returns and safe to
// install on any number of nodes, concurrently.
type CompiledQuery struct {
	prog       *overlog.Program
	plans      []*dataflow.Plan
	watches    []string
	declares   map[string]bool
	checks     []envCheck
	labelsUsed int
}

// Program returns the compiled program.
func (cq *CompiledQuery) Program() *overlog.Program { return cq.prog }

// NumPlans returns how many rule strands the program compiled into.
func (cq *CompiledQuery) NumPlans() int { return len(cq.plans) }

// Declares reports whether the program declares name as a table.
func (cq *CompiledQuery) Declares(name string) bool { return cq.declares[name] }

// DeclaredTables returns the table names the program declares, sorted.
// Callers compiling follow-on programs against this one use these to
// build the base environment for CompileQueryEnv.
func (cq *CompiledQuery) DeclaredTables() []string {
	out := make([]string, 0, len(cq.declares))
	for name := range cq.declares {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Plans returns the compiled rule plans. The slice and the plans are
// immutable; callers may instantiate per-node strands from them but
// must not modify them.
func (cq *CompiledQuery) Plans() []*dataflow.Plan { return cq.plans }

// freshNodeTable reports whether name is a reflection table every node
// materializes at birth (NewNode). The trace tables are deliberately
// excluded: only tracing-enabled nodes have them, so a program that
// references one compiles against the untraced environment and traced
// nodes fall back to private planning via the recorded checks.
func freshNodeTable(name string) bool {
	switch name {
	case RuleTableName, TableTableName, QueryTableName,
		NodeStatsTableName, QueryStatsTableName:
		return true
	}
	return false
}

// CompileQuery plans prog once against the environment of a fresh node:
// the program's own declarations plus the built-in reflection tables.
// Programs that join tables owned by an already-installed query should
// use CompileQueryEnv with that query's environment instead.
func CompileQuery(prog *overlog.Program) (*CompiledQuery, error) {
	return CompileQueryEnv(prog, nil)
}

// CompileQueryEnv plans prog against a fresh node extended by base:
// base answers materialization queries for tables some earlier install
// (for example the Chord substrate) is expected to have created on the
// target nodes. Every environment answer is recorded; nodes whose store
// disagrees at install time get private planning instead, so a wrong
// base can never corrupt an install — it only loses the sharing.
func CompileQueryEnv(prog *overlog.Program, base planner.Env) (*CompiledQuery, error) {
	cq := &CompiledQuery{prog: prog, declares: make(map[string]bool)}
	declared := make(map[string]table.Spec)
	for _, m := range prog.Materializations() {
		spec := table.Spec{Name: m.Name, Lifetime: m.Lifetime, MaxSize: m.MaxSize, Keys: m.Keys}
		if prev, ok := declared[m.Name]; ok {
			if err := prev.Conflicts(spec); err != nil {
				return nil, fmt.Errorf("engine: %w", err)
			}
			continue
		}
		declared[m.Name] = spec
		cq.declares[m.Name] = true
	}
	seen := make(map[string]bool)
	env := planner.EnvFunc(func(name string) bool {
		mat := cq.declares[name] || freshNodeTable(name) ||
			(base != nil && base.IsMaterialized(name))
		if !seen[name] {
			seen[name] = true
			cq.checks = append(cq.checks, envCheck{name: name, materialized: mat})
		}
		return mat
	})
	gen := func() string {
		cq.labelsUsed++
		return fmt.Sprintf("rule_%d", cq.labelsUsed)
	}
	for _, st := range prog.Statements {
		switch s := st.(type) {
		case *overlog.Watch:
			cq.watches = append(cq.watches, s.Name)
		case *overlog.Rule:
			ps, err := planner.CompileRule(s, env, gen)
			if err != nil {
				return nil, err
			}
			cq.plans = append(cq.plans, ps...)
		}
	}
	return cq, nil
}

// planCompatible reports whether installing cq's shared plans on this
// node is bit-identical to planning cq's program privately here: every
// recorded environment answer must replay identically against the
// node's store, and any compile-generated labels must land on the same
// counter values private planning would generate.
func (n *Node) planCompatible(cq *CompiledQuery) bool {
	if cq.labelsUsed > 0 && n.labelCounter != 0 {
		return false
	}
	for _, c := range cq.checks {
		mat := cq.declares[c.name] || n.store.Get(c.name) != nil
		if mat != c.materialized {
			return false
		}
	}
	return true
}

// InstallCompiledQuery installs a compiled program under the given ID
// (empty = generate one), sharing its immutable plans with every other
// node that installed the same CompiledQuery. When sharing is disabled
// or the node's environment differs from the compile-time reference,
// the program is planned privately instead — the two paths produce
// identical strands, emissions, and reflection rows either way.
func (n *Node) InstallCompiledQuery(id string, cq *CompiledQuery) (string, error) {
	if DisableSharedPlans || !n.planCompatible(cq) {
		return n.installQuery(id, cq.prog, nil)
	}
	return n.installQuery(id, cq.prog, cq)
}

// Plans returns the distinct compiled plans backing the node's
// installed strands, in installation order. Shared-plan installs
// surface the same *Plan pointers on every node; private installs
// surface per-node copies.
func (n *Node) Plans() []*dataflow.Plan {
	var out []*dataflow.Plan
	for _, id := range n.queryOrder {
		for _, s := range n.queries[id].strands {
			out = append(out, s.Plan)
		}
	}
	return out
}
