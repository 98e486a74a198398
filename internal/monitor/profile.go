package monitor

import (
	"fmt"

	"p2go/internal/engine"
	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// ProfilerRules implement the execution profiler of §3.2 (rules ep1-ep6):
// starting from a traced response tuple (a traceResp event naming the
// tuple ID and the time it was observed), the rules walk the execution
// graph backwards through ruleExec and tupleTable — hopping across nodes
// when a tuple crossed the network — splitting the end-to-end latency
// into three bins:
//
//	RuleT   time spent inside rule strands,
//	NetT    time spent traversing the network,
//	LocalT  time spent between rules within a node's dataflow.
//
// The traversal stops when it reaches stopRule (the paper uses cs2, the
// rule that launches consistency lookups) and reports the three bins.
//
// Two adaptations from the paper's listing: when the traversal crosses
// to the source node, the "current tuple" must be renamed to the ID the
// source assigned (SrcTID from tupleTable) — the paper's ep2 forwards the
// receiver-local ID, which cannot join the source's ruleExec; and ep3/ep4
// follow only the event edge (final ruleExec field true), which the
// paper's prose specifies.
func ProfilerRules(stopRule string) string {
	return fmt.Sprintf(`
ep1 trav@NAddr(TupleID, TupleID, TupleTime, 0.0, 0.0, 0.0) :- traceResp@NAddr(TupleID, TupleTime).
ep2 ruleBack@SrcAddr(ID, SrcTID, LastT, RuleT, NetT, LocalT, Local) :- trav@NAddr(ID, Curr, LastT, RuleT, NetT, LocalT), tupleTable@NAddr(Curr, SrcAddr, SrcTID, LocSpec), Local := (LocSpec == SrcAddr).
ep3 forward@NAddr(ID, In, InT, RuleT + OutT - InT, NetT, LocalT + LastT - OutT, Rule) :- ruleBack@NAddr(ID, Curr, LastT, RuleT, NetT, LocalT, Local), Local == true, ruleExec@NAddr(Rule, In, Curr, InT, OutT, true).
ep4 forward@NAddr(ID, In, InT, RuleT + OutT - InT, NetT + LastT - OutT, LocalT, Rule) :- ruleBack@NAddr(ID, Curr, LastT, RuleT, NetT, LocalT, Local), Local == false, ruleExec@NAddr(Rule, In, Curr, InT, OutT, true).
ep5 trav@NAddr(ID, In, InT, RuleT, NetT, LocalT) :- forward@NAddr(ID, In, InT, RuleT, NetT, LocalT, Rule), Rule != "%[1]s".
ep6 report@NAddr(ID, RuleT, NetT, LocalT) :- forward@NAddr(ID, In, InT, RuleT, NetT, LocalT, Rule), Rule == "%[1]s".

watch(report).
`, stopRule)
}

// ProfileReport is one decoded report tuple.
type ProfileReport struct {
	TupleID uint64
	RuleT   float64
	NetT    float64
	LocalT  float64
}

// ParseReport decodes a report@N(ID, RuleT, NetT, LocalT) tuple.
func ParseReport(t tuple.Tuple) (ProfileReport, error) {
	if t.Name != "report" || t.Arity() != 5 {
		return ProfileReport{}, fmt.Errorf("monitor: not a report tuple: %v", t)
	}
	return ProfileReport{
		TupleID: t.Field(1).AsID(),
		RuleT:   t.Field(2).AsFloat(),
		NetT:    t.Field(3).AsFloat(),
		LocalT:  t.Field(4).AsFloat(),
	}, nil
}

// Total returns the end-to-end latency the report decomposes.
func (r ProfileReport) Total() float64 { return r.RuleT + r.NetT + r.LocalT }

// FindTracedTuples scans a node's tupleTable for memoized tuples with the
// given predicate name, returning their local IDs. This is the forensic
// entry point: an operator picks a suspicious response (e.g. one flagged
// by the consistency probes) and injects traceResp for it.
func FindTracedTuples(n *engine.Node, name string) []uint64 {
	tr := n.Tracer()
	tb := n.Store().Get(trace.TupleTable)
	if tr == nil || tb == nil {
		return nil
	}
	var ids []uint64
	tb.Scan(n.Now(), func(row tuple.Tuple) {
		id := row.Field(1).AsID()
		if got, ok := tr.Name(id); ok && got == name {
			ids = append(ids, id)
		}
	})
	return ids
}

// TraceRespEvent builds the traceResp event that starts a backward
// traversal at node addr for the given tuple ID, observed at time t.
func TraceRespEvent(addr string, tupleID uint64, t float64) tuple.Tuple {
	return tuple.New("traceResp", tuple.Str(addr), tuple.ID(tupleID), tuple.Float(t))
}
