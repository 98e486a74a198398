package tracestore

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// The investigation query language: a small AIQL-flavored textual
// surface over the View (PAPERS.md: AIQL queries system-monitoring
// data for attack investigation with causal preceded-by/followed-by
// operators and time windows). Five verbs:
//
//	ancestors of <id> at <node> [depth <n>] [since <t>] [until <t>]
//	descendants of <id> at <node> [depth <n>] [since <t>] [until <t>]
//	flow of <id> at <node> [since <t>] [until <t>]
//	execs at <node> [rule <r>] [since <t>] [until <t>] [limit <n>]
//	events at <node> [op <o>] [name <nm>] [since <t>] [until <t>] [limit <n>]
//
// Times are virtual seconds. The surface is deliberately tiny: each
// query maps to exactly one View call, and the Result renders as a
// plain-text report (see docs/FORENSICS.md for a worked walkthrough).

// verbClauses names, per verb, the clauses its View call reads. A clause
// the verb does not read is an error, not a filter that silently
// matches everything.
var verbClauses = map[string][]string{
	"ancestors":   {"depth", "since", "until"},
	"descendants": {"depth", "since", "until"},
	"flow":        {"since", "until"},
	"execs":       {"rule", "since", "until", "limit"},
	"events":      {"op", "name", "since", "until", "limit"},
}

// Query is one parsed investigation query.
type Query struct {
	Kind         string // "ancestors", "descendants", "flow", "execs", "events"
	Node         string
	ID           uint64
	Depth        int
	Since, Until float64
	Rule         string
	Op, Name     string
	Limit        int
}

// ParseQuery parses the textual query surface.
func ParseQuery(src string) (*Query, error) {
	toks := strings.Fields(src)
	if len(toks) == 0 {
		return nil, fmt.Errorf("tracestore: empty query")
	}
	q := &Query{Kind: strings.ToLower(toks[0])}
	toks = toks[1:]
	next := func(key string) (string, error) {
		if len(toks) == 0 {
			return "", fmt.Errorf("tracestore: %q needs a value", key)
		}
		v := toks[0]
		toks = toks[1:]
		return v, nil
	}
	switch q.Kind {
	case "ancestors", "descendants", "flow":
		if len(toks) < 4 || toks[0] != "of" || toks[2] != "at" {
			return nil, fmt.Errorf("tracestore: want %q of <id> at <node> ..., got %q", q.Kind, src)
		}
		id, err := strconv.ParseUint(toks[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tracestore: bad tuple ID %q: %v", toks[1], err)
		}
		q.ID = id
		q.Node = toks[3]
		toks = toks[4:]
	case "execs", "events":
		if len(toks) < 2 || toks[0] != "at" {
			return nil, fmt.Errorf("tracestore: want %q at <node> ..., got %q", q.Kind, src)
		}
		q.Node = toks[1]
		toks = toks[2:]
	default:
		return nil, fmt.Errorf("tracestore: unknown query verb %q (want ancestors, descendants, flow, execs, or events)", q.Kind)
	}
	for len(toks) > 0 {
		key := strings.ToLower(toks[0])
		toks = toks[1:]
		if !slices.Contains(verbClauses[q.Kind], key) {
			return nil, fmt.Errorf("tracestore: %s takes no %q clause (want one of %s)",
				q.Kind, key, strings.Join(verbClauses[q.Kind], ", "))
		}
		val, err := next(key)
		if err != nil {
			return nil, err
		}
		switch key {
		case "depth", "limit":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("tracestore: bad %s %q", key, val)
			}
			if key == "depth" {
				q.Depth = n
			} else {
				q.Limit = n
			}
		case "since", "until":
			// ParseFloat accepts "NaN", which no time compares with: the
			// clause would bound nothing.
			t, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(t) {
				return nil, fmt.Errorf("tracestore: bad %s %q", key, val)
			}
			if key == "since" {
				q.Since = t
			} else {
				q.Until = t
			}
		case "rule":
			q.Rule = val
		case "op":
			q.Op = val
		case "name":
			q.Name = val
		}
	}
	return q, nil
}

// Result is the answer to one query; exactly one of the payload slices
// is populated per Kind.
type Result struct {
	Query  Query
	Edges  []Edge
	Hops   []HopStep
	Events []Event
}

// Run executes the query against a view. Queries with their own
// `since` or `until` clause open a sub-view narrowed to it, so segments
// outside the clause stay undecoded and a lineage walk neither reports
// nor follows records outside it.
func (q *Query) Run(v *View) (*Result, error) {
	if since, until := v.window(q.Since, q.Until); since > v.since || until < v.until {
		v = newView(v.stores, since, until)
	}
	res := &Result{Query: *q}
	var err error
	switch q.Kind {
	case "ancestors", "descendants":
		var l *Lineage
		if q.Kind == "ancestors" {
			l, err = v.Ancestors(q.Node, q.ID, q.Depth)
		} else {
			l, err = v.Descendants(q.Node, q.ID, q.Depth)
		}
		if err != nil {
			return nil, err
		}
		res.Edges, res.Hops = l.Edges, l.Hops
	case "flow":
		res.Hops, err = v.FlowChain(q.Node, q.ID)
		if err != nil {
			return nil, err
		}
	case "execs":
		res.Edges, err = v.Execs(ExecFilter{
			Node: q.Node, Rule: q.Rule, Since: q.Since, Until: q.Until, Limit: q.Limit,
		})
		if err != nil {
			return nil, err
		}
	case "events":
		res.Events, err = v.Events(EventFilter{
			Node: q.Node, Op: q.Op, Name: q.Name, Since: q.Since, Until: q.Until, Limit: q.Limit,
		})
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("tracestore: unknown query kind %q", q.Kind)
	}
	return res, nil
}

// Investigate parses and runs a query in one step.
func Investigate(src string, v *View) (*Result, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return q.Run(v)
}

// String renders the result as a plain-text investigation report.
func (r *Result) String() string {
	var b strings.Builder
	switch r.Query.Kind {
	case "ancestors", "descendants":
		fmt.Fprintf(&b, "%s of tuple %d at %s: %d edges, %d hops\n",
			r.Query.Kind, r.Query.ID, r.Query.Node, len(r.Edges), len(r.Hops))
		for _, e := range r.Edges {
			fmt.Fprintf(&b, "  d=%d %s: %s(%d -> %d) t=[%.6f, %.6f] event=%v\n",
				e.Depth, e.Node, e.Rule, e.InID, e.OutID, e.InT, e.OutT, e.IsEvent)
		}
		for _, h := range r.Hops {
			fmt.Fprintf(&b, "  d=%d hop %s#%d -> %s#%d t=%.6f\n",
				h.Depth, h.From, h.FromID, h.To, h.ToID, h.T)
		}
	case "flow":
		fmt.Fprintf(&b, "flow of tuple %d at %s: %d hops\n",
			r.Query.ID, r.Query.Node, len(r.Hops))
		for _, h := range r.Hops {
			fmt.Fprintf(&b, "  %s#%d -> %s#%d t=%.6f\n", h.From, h.FromID, h.To, h.ToID, h.T)
		}
	case "execs":
		fmt.Fprintf(&b, "execs at %s: %d\n", r.Query.Node, len(r.Edges))
		for _, e := range r.Edges {
			fmt.Fprintf(&b, "  %s(%d -> %d) t=[%.6f, %.6f] event=%v\n",
				e.Rule, e.InID, e.OutID, e.InT, e.OutT, e.IsEvent)
		}
	case "events":
		fmt.Fprintf(&b, "events at %s: %d\n", r.Query.Node, len(r.Events))
		for _, ev := range r.Events {
			fmt.Fprintf(&b, "  t=%.6f %s %s#%d\n", ev.T, ev.Op, ev.Name, ev.ID)
		}
	}
	return b.String()
}
