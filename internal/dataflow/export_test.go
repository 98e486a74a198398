package dataflow

import (
	"slices"

	"p2go/internal/overlog"
	"p2go/internal/table"
)

// Hooks for this package's external tests.

// StoreQuery is the fakes' Query: relation k's table is the one named
// Names[k] in Store, where a node's query holds k's relation record.
type StoreQuery struct {
	Store *table.Store
	Names []string
}

func (q *StoreQuery) Table(rel int) *table.Table { return q.Store.Get(q.Names[rel]) }

// RowFilter returns the ring-interval condition the join's index probe
// answers itself (see rowFilter), or nil.
func (o *JoinOp) RowFilter() overlog.Expr {
	if o.filter == nil {
		return nil
	}
	return o.filter.cond
}

// WithoutRowFilters returns a copy of p whose joins answer no selection
// themselves: every row they read goes down the pipeline, as before
// Plan.Compile gave joins a rowFilter. p is left as it is.
func WithoutRowFilters(p *Plan) *Plan {
	q := *p
	q.Ops = slices.Clone(p.Ops)
	for i, op := range q.Ops {
		if j, ok := op.(*JoinOp); ok {
			c := *j
			c.filter = nil
			q.Ops[i] = &c
		}
	}
	return &q
}
