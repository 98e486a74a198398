package engine

import (
	"fmt"
	"slices"

	"p2go/internal/dataflow"
)

// CheckRelations holds a node's relation records to the facts they
// stand for: each record's table is the store's table of that name and
// every table has a record; no record holds nothing; the watch, owner
// and ref counts and the strand lists are exactly the installed
// queries'; each query holds the node's record of every name it numbers,
// so each join of each installed strand reads the table Node.Table
// names (nil included); and a traced node taps every table, an untraced
// one none.
func CheckRelations(n *Node) error {
	for _, name := range n.store.Names() {
		if n.rels[name] == nil {
			return fmt.Errorf("table %s has no relation record", name)
		}
	}
	want := make(map[string]*relation)
	get := func(name string) *relation {
		if want[name] == nil {
			want[name] = &relation{}
		}
		return want[name]
	}
	for _, id := range n.queryOrder {
		q := n.queries[id]
		for _, w := range q.names.watches {
			get(w).watches++
		}
		for _, t := range q.names.tables {
			get(t).owners++
		}
		for k, name := range q.names.rels {
			if q.rels[k] != n.rels[name] {
				return fmt.Errorf("query %s holds a record of %s that is not the node's", id, name)
			}
			get(name).refs++
		}
		for _, s := range q.strands {
			for _, op := range s.Ops {
				if j, ok := op.(*dataflow.JoinOp); ok && s.Query.Table(j.Rel) != n.Table(j.Table) {
					return fmt.Errorf("rule %s of query %s joins %s as table %p, the node's is %p",
						s.RuleID, id, j.Table, s.Query.Table(j.Rel), n.Table(j.Table))
				}
			}
		}
		for _, s := range q.strands {
			if s.Trigger.Kind != dataflow.TriggerPeriodic {
				get(s.Trigger.Name).strands = append(get(s.Trigger.Name).strands, bound{s, q.stats})
			}
		}
	}
	for name, r := range n.rels {
		if tb := n.store.Get(name); r.tbl != tb {
			return fmt.Errorf("relation %s holds table %p, the store %p", name, r.tbl, tb)
		}
		if r.tbl == nil && len(r.strands) == 0 && r.watches == 0 && r.refs == 0 {
			return fmt.Errorf("relation %s holds nothing but survives", name)
		}
		if traced := r.tbl != nil && n.tracer != nil; r.logged != traced {
			return fmt.Errorf("relation %s: tracer tap %v, want %v", name, r.logged, traced)
		}
		w := get(name)
		if r.watches != w.watches || r.owners != w.owners || r.refs != w.refs {
			return fmt.Errorf("relation %s counts %d watches, %d owners and %d refs, the queries hold %d, %d and %d",
				name, r.watches, r.owners, r.refs, w.watches, w.owners, w.refs)
		}
		if !slices.Equal(r.strands, w.strands) {
			return fmt.Errorf("relation %s dispatches %d strands, the queries install %d",
				name, len(r.strands), len(w.strands))
		}
		delete(want, name)
	}
	for name, w := range want {
		if w.watches > 0 || w.owners > 0 || w.refs > 0 || len(w.strands) > 0 {
			return fmt.Errorf("query declarations for %s have no relation record", name)
		}
	}
	return nil
}
