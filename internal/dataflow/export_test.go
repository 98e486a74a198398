package dataflow

import (
	"slices"

	"p2go/internal/overlog"
)

// Hooks for this package's external tests.

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
