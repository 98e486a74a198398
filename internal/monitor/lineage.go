package monitor

import (
	"fmt"
	"sort"
	"strings"

	"p2go/internal/engine"
	"p2go/internal/tuple"
)

// LineageRules implement the forensic traversal §3.4 sketches beyond the
// §3.2 profiler: starting from one traced tuple, walk the execution
// graph backwards across nodes following EVERY causal edge — the
// triggering events and each precondition — and stream the discovered
// edges to the origin. Where the profiler (ep1-ep6) accumulates latency
// along the single event path, this traversal reconstructs the whole
// causal DAG ("a traversal of the execution state of a lookup result can
// at each step trace back individual preconditions").
//
// Inject traceLineage@N(TupleID) at the node holding the tuple; every
// edge arrives at that node as
//
//	lineage(Origin, Root, Node, Rule, CauseID, EffectID, Depth, IsEvent)
//
// maxDepth bounds the recursion (the DAG can branch at every join).
func LineageRules(maxDepth int) string {
	return fmt.Sprintf(`
ln1 lTrav@NAddr(NAddr, TupleID, TupleID, 0) :- traceLineage@NAddr(TupleID).

/* Resolve the current tuple ID to the node that produced it: local
   tuples stay, received tuples hop to their sender under the sender's
   tuple ID. */
ln2 lHere@NAddr(Origin, Root, SrcTID, Depth) :- lTrav@NAddr(Origin, Root, Curr, Depth), tupleTable@NAddr(Curr, SrcAddr, SrcTID, LocSpec), SrcAddr == NAddr.
ln3 lHere@SrcAddr(Origin, Root, SrcTID, Depth) :- lTrav@NAddr(Origin, Root, Curr, Depth), tupleTable@NAddr(Curr, SrcAddr, SrcTID, LocSpec), SrcAddr != NAddr.

/* Report every causal in-edge (event AND precondition) to the origin. */
ln4 lineage@Origin(Root, NAddr, Rule, In, Curr, Depth, IsEv) :- lHere@NAddr(Origin, Root, Curr, Depth), ruleExec@NAddr(Rule, In, Curr, InT, OutT, IsEv).

/* Recurse along every in-edge, bounded by depth. */
ln5 lTrav@NAddr(Origin, Root, In, Depth2) :- lHere@NAddr(Origin, Root, Curr, Depth), ruleExec@NAddr(Rule, In, Curr, InT, OutT, IsEv), Depth2 := Depth + 1, Depth2 < %d.

watch(lineage).
`, maxDepth)
}

// LineageEdge is one decoded causal edge from a lineage traversal.
type LineageEdge struct {
	Root    uint64 // the traced tuple's ID at the origin
	Node    string // node on which the rule executed
	Rule    string
	Cause   uint64 // cause tuple ID (node-local)
	Effect  uint64 // effect tuple ID (node-local)
	Depth   int64
	IsEvent bool // true: triggering event edge; false: precondition edge
}

// ParseLineage decodes a lineage tuple.
func ParseLineage(t tuple.Tuple) (LineageEdge, error) {
	if t.Name != "lineage" || t.Arity() != 8 {
		return LineageEdge{}, fmt.Errorf("monitor: not a lineage tuple: %v", t)
	}
	return LineageEdge{
		Root:    t.Field(1).AsID(),
		Node:    t.Field(2).AsStr(),
		Rule:    t.Field(3).AsStr(),
		Cause:   t.Field(4).AsID(),
		Effect:  t.Field(5).AsID(),
		Depth:   t.Field(6).AsInt(),
		IsEvent: t.Field(7).AsBool(),
	}, nil
}

// TraceLineageEvent builds the event starting a lineage traversal.
func TraceLineageEvent(addr string, tupleID uint64) tuple.Tuple {
	return tuple.New("traceLineage", tuple.Str(addr), tuple.ID(tupleID))
}

// LineageSummary renders collected edges as an indented causal tree
// rooted at the traced tuple, resolving tuple names through the node's
// tracer memo where possible (forensic report formatting).
func LineageSummary(origin *engine.Node, edges []LineageEdge) string {
	byDepth := map[int64][]LineageEdge{}
	var depths []int64
	for _, e := range edges {
		if _, ok := byDepth[e.Depth]; !ok {
			depths = append(depths, e.Depth)
		}
		byDepth[e.Depth] = append(byDepth[e.Depth], e)
	}
	sort.Slice(depths, func(i, j int) bool { return depths[i] < depths[j] })
	// A tuple ID is node-local: only the origin's own causes can be named.
	tr, here := origin.Tracer(), origin.Addr()
	var out strings.Builder
	for _, d := range depths {
		es := byDepth[d]
		sort.Slice(es, func(i, j int) bool {
			if es[i].Rule != es[j].Rule {
				return es[i].Rule < es[j].Rule
			}
			return es[i].Cause < es[j].Cause
		})
		for _, e := range es {
			kind := "precond"
			if e.IsEvent {
				kind = "event"
			}
			out.WriteString(strings.Repeat("  ", int(d)))
			fmt.Fprintf(&out, "%s: rule %s <- %s %d", e.Node, e.Rule, kind, e.Cause)
			if tr != nil && e.Node == here {
				if name, _ := tr.Name(e.Cause); name != "" {
					out.WriteByte(' ')
					out.WriteString(name)
				}
			}
			out.WriteByte('\n')
		}
	}
	return out.String()
}
