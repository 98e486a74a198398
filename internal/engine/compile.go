// Query compilation: every install plans its program on a node and then
// instantiates the plans, and a compilation made on one node can be
// instantiated on others ("plan once, instantiate N times"). At ring
// scale (1k-10k simulated hosts running the same Chord program)
// per-node planning dominated install time and per-node plans dominated
// steady-state memory. Node.Compile produces one immutable set of
// dataflow.Plans; InstallCompiledQuery wraps each in a lightweight
// per-node Strand (the plan pointer and the node's query record).
//
// Correctness contract: planning depends on exactly two node-local
// inputs, the materialization environment (which predicate names are
// tables in the node's store) and the generated-label counter.
// Compile records every environment answer the compiling node's store
// gave and the counter value it started at. InstallCompiledQuery replays
// both on the target node and recompiles there on any mismatch, so a
// shared install is bit-identical to compiling on the target itself.
package engine

import (
	"fmt"
	"slices"

	"p2go/internal/dataflow"
	"p2go/internal/overlog"
	"p2go/internal/planner"
	"p2go/internal/table"
)

// envCheck is one materialization answer the compiling node's store
// gave the planner. A target node replays these against its own store
// before accepting the shared plans.
type envCheck struct {
	name         string
	materialized bool
}

// CompiledQuery is a program planned on one node. It is immutable after
// Compile returns and safe to install on any number of nodes,
// concurrently.
type CompiledQuery struct {
	prog  *overlog.Program
	plans []*dataflow.Plan
	names *queryNames
	// specs are the program's table declarations, deduplicated, in
	// declaration order; declared indexes them by name.
	specs      []table.Spec
	declared   map[string]table.Spec
	checks     []envCheck
	labelStart int
	labelsUsed int
}

// queryNames is what an installed query keeps of its compilation, shared
// by every install of it: the relations its plans number
// (dataflow.Number), the tables it owns (its declarations but the system
// tables) and its watches.
type queryNames struct{ rels, tables, watches []string }

// Program returns the compiled program.
func (cq *CompiledQuery) Program() *overlog.Program { return cq.prog }

// Plans returns the compiled rule plans. The slice and the plans are
// immutable; callers may instantiate per-node strands from them but
// must not modify them.
func (cq *CompiledQuery) Plans() []*dataflow.Plan { return cq.plans }

// CompileQuery compiles prog on a fresh node: the program's own
// declarations plus the tables NewNode materializes. Programs that join
// tables an earlier install creates should be compiled with Node.Compile
// on a node that has that install.
func CompileQuery(prog *overlog.Program) (*CompiledQuery, error) {
	return NewNode(Config{}).Compile(prog)
}

// Compile plans prog against this node's store as it stands, plus the
// program's own declarations. Declarations are checked against each
// other; whether they fit the store is checked at install. Compile
// leaves the node unchanged: generated labels continue from the node's
// counter, which the install of the result advances.
func (n *Node) Compile(prog *overlog.Program) (*CompiledQuery, error) {
	cq := &CompiledQuery{prog: prog, names: new(queryNames), declared: make(map[string]table.Spec), labelStart: n.labelCounter}
	for _, m := range prog.Materializations() {
		spec := table.Spec{Name: m.Name, Lifetime: m.Lifetime, MaxSize: m.MaxSize, Keys: m.Keys}
		if prev, ok := cq.declared[m.Name]; ok {
			// Duplicate declaration inside one program: identical is a
			// no-op, conflicting rejects the whole program.
			if err := prev.Conflicts(spec); err != nil {
				return nil, fmt.Errorf("engine: %w", err)
			}
			continue
		}
		cq.declared[m.Name] = spec
		cq.specs = append(cq.specs, spec)
		if !IsSystemTable(m.Name) {
			cq.names.tables = append(cq.names.tables, m.Name)
		}
	}
	seen := make(map[string]bool)
	env := planner.EnvFunc(func(name string) bool {
		mat := cq.materialized(n, name)
		if !seen[name] {
			seen[name] = true
			cq.checks = append(cq.checks, envCheck{name: name, materialized: mat})
		}
		return mat
	})
	gen := func() string {
		cq.labelsUsed++
		return ruleLabel(cq.labelStart + cq.labelsUsed)
	}
	for _, st := range prog.Statements {
		switch s := st.(type) {
		case *overlog.Watch:
			cq.names.watches = append(cq.names.watches, s.Name)
		case *overlog.Rule:
			ps, err := planner.CompileRule(s, env, gen)
			if err != nil {
				return nil, err
			}
			rule, trigger := ps[0].RuleID, ps[0].Trigger.Name
			// A delta strand on a table filled on read would never fire.
			ps = slices.DeleteFunc(ps, func(p *dataflow.Plan) bool {
				return p.Trigger.Kind == dataflow.TriggerDelta && planner.FilledOnRead(p.Trigger.Name)
			})
			if len(ps) == 0 {
				return nil, fmt.Errorf("engine: rule %s has no trigger: %s changes only when read; join a periodic or an event",
					rule, trigger)
			}
			cq.plans = append(cq.plans, ps...)
		}
	}
	cq.names.rels = dataflow.Number(cq.plans)
	return cq, nil
}

// materialized answers the planner's environment question on node n:
// name is a table the program declares or one n's store holds.
func (cq *CompiledQuery) materialized(n *Node, name string) bool {
	_, declared := cq.declared[name]
	return declared || n.store.Get(name) != nil
}

// planCompatible reports whether installing cq's plans on this node is
// bit-identical to compiling cq's program here: every recorded
// environment answer must replay identically against the node's store,
// and any generated labels must continue the node's counter from the
// value the compilation started at.
func (n *Node) planCompatible(cq *CompiledQuery) bool {
	if cq.labelsUsed > 0 && n.labelCounter != cq.labelStart {
		return false
	}
	for _, c := range cq.checks {
		if cq.materialized(n, c.name) != c.materialized {
			return false
		}
	}
	return true
}

// InstallCompiledQuery installs a compiled program under the given ID
// (empty = generate one), sharing its immutable plans with every other
// node that installed the same CompiledQuery. When the node's store or
// label counter differs from the compiling node's, the program is
// compiled again on this node instead; the strands, emissions and
// reflection rows are the same either way.
func (n *Node) InstallCompiledQuery(id string, cq *CompiledQuery) (string, error) {
	return n.installQuery(id, cq.prog, cq)
}

// Plans returns the distinct compiled plans backing the node's
// installed strands, in installation order. Shared installs surface the
// same *Plan pointers on every node; an install compiled on the node
// surfaces its own.
func (n *Node) Plans() []*dataflow.Plan {
	var out []*dataflow.Plan
	for _, id := range n.queryOrder {
		for _, s := range n.queries[id].strands {
			out = append(out, s.Plan)
		}
	}
	return out
}
