package engine

import (
	"p2go/internal/dataflow"
	"p2go/internal/metrics"
	"p2go/internal/table"
)

// relation is everything a node knows about one predicate name: a
// relational transducer's schema is fixed, and what a name means on a
// node is one fact. Installed queries hold the records of the names they
// number (query.rels), so joins and local heads reach them with no
// lookup. A record lives while it holds something (release deletes it
// after), so an install and its uninstall leave Node.rels as it was.
// tbl is the store's table of that name: every table is bound by
// materialize (the tracer's own, right after trace.New makes them) and
// removed by drop.
type relation struct {
	tbl *table.Table // nil for an event
	// strands are the delta and event strands the name triggers, in
	// install order: a name planned as an event may be materialized
	// later, and while it is a table its event strands do not fire.
	strands []bound
	// watches and owners count the watch and table declarations of
	// installed queries (system tables have no owners), refs the queries
	// that number the name: while refs > 0 the record is the name's.
	watches, owners, refs int32
	logged                bool // the tracer taps tbl's change stream
}

// bound is an installed strand with its query's bill bucket, resolved
// at install so an activation bills without a lookup.
type bound struct {
	s  *dataflow.Strand
	qs *metrics.Query
}

// relation returns name's record, making it on first use.
func (n *Node) relation(name string) *relation {
	r := n.rels[name]
	if r == nil {
		r = &relation{}
		n.rels[name] = r
	}
	return r
}

// release deletes name's record once it holds nothing.
func (n *Node) release(name string, r *relation) {
	if r.tbl == nil && len(r.strands) == 0 && r.watches == 0 && r.refs == 0 {
		delete(n.rels, name)
	}
}

// materialize creates spec's table, or finds the one of that name, and
// binds it to its record and the tracer. Callers have validated spec.
func (n *Node) materialize(spec table.Spec) *relation {
	tb, _ := n.store.Materialize(spec) // no conflict: see above
	r := n.relation(spec.Name)
	r.tbl = tb
	n.subscribeLog(r)
	return r
}

// drop removes name's table with its rows, listeners and tracer tap: a
// removed query's soft state emits no delete events.
func (n *Node) drop(name string, r *relation) {
	n.store.Drop(name)
	r.tbl, r.logged = nil, false
	n.release(name, r)
}

// countRels counts the records f accepts.
func (n *Node) countRels(f func(*relation) bool) int {
	c := 0
	for _, r := range n.rels {
		if f(r) {
			c++
		}
	}
	return c
}
