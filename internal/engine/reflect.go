package engine

import (
	"math"
	"sort"

	"p2go/internal/dataflow"
	"p2go/internal/metrics"
	"p2go/internal/table"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// Reflection tables, the introspection model of §2.1: a node's own
// program and counters, queryable from OverLog like any other state.
//
//	ruleTable(NAddr, QueryID, RuleID, Trigger, Source)
//	tableTable(NAddr, Name, Lifetime, MaxSize)
//	queryTable(NAddr, QueryID, Strands, Tables, InstalledAt)
//	nodeStats(NAddr, Epoch, Counter, Value)
//	queryStats(NAddr, Epoch, QueryID, Counter, Value)
//
// A ruleTable row is an installed strand, a tableTable row a table that
// installed queries declared. Counter names follow metrics.Node.Counters
// (plus Node.ObsCounters) and metrics.Query.Counters; Value is a float
// for *Seconds counters and an int otherwise. Epoch is the node's process
// incarnation, so a collector can tell a rejoined node's rows from stale
// pre-crash ones.
//
// The tables are caches (table.SetSync). A read with a clock fills one,
// once per task, and nothing else inserts, so they have no deltas
// (planner.FilledOnRead). A read without a clock (Count, SizeBytes,
// NextExpiry) builds nothing. Filled rows take no tuple ID. Every
// install and uninstall empties the first three, so a row never
// outlives its query.
const (
	RuleTableName       = "ruleTable"
	TableTableName      = "tableTable"
	QueryTableName      = "queryTable"
	NodeStatsTableName  = "nodeStats"
	QueryStatsTableName = "queryStats"
)

// reflectTables lists the tables above in the order of Node.filled's
// bits; the first programTables reflect the installed queries.
var reflectTables = [...]string{RuleTableName, TableTableName, QueryTableName, NodeStatsTableName, QueryStatsTableName}

const programTables = 3

// bindReflection makes each reflection table fill when read. Inside a
// task it fills once, each row billing a table op to the bucket doing the
// reading; a read outside any task refills and bills nothing.
func (n *Node) bindReflection() {
	for i, name := range reflectTables {
		tb := n.store.Get(name)
		tb.SetSync(func(op table.SyncOp, now float64, _ tuple.Tuple) {
			if op != table.SyncRead || math.IsInf(now, -1) || n.filled&(1<<i) != 0 {
				return
			}
			if n.inTask {
				n.filled |= 1 << i
			}
			for _, fields := range n.reflectRows(i) {
				if n.inTask {
					n.bill(dataflow.CostTableOp)
				}
				tb.Insert(tuple.Tuple{Name: name, Fields: fields}, now) //nolint:errcheck // the row names the table
			}
		})
	}
}

// dropProgramReflection empties the tables that reflect the installed
// queries, so the next read refills them from the queries as they stand.
func (n *Node) dropProgramReflection() {
	for _, name := range reflectTables[:programTables] {
		n.store.Get(name).Clear()
	}
	n.filled &^= 1<<programTables - 1
}

// reflectRows builds reflection table i's rows from the node as it stands.
func (n *Node) reflectRows(i int) [][]tuple.Value {
	addr, epoch := tuple.Str(n.cfg.Addr), tuple.Int(n.epoch)
	var rows [][]tuple.Value
	switch reflectTables[i] {
	case RuleTableName:
		for _, id := range n.queryOrder {
			for _, s := range n.queries[id].strands {
				rows = append(rows, []tuple.Value{addr, tuple.Str(id),
					tuple.Str(s.RuleID), tuple.Str(s.Trigger.Name), tuple.Str(s.Source)})
			}
		}
	case TableTableName:
		for _, name := range n.store.Names() {
			if r := n.rels[name]; r.owners > 0 {
				spec := r.tbl.Spec()
				rows = append(rows, []tuple.Value{addr, tuple.Str(name),
					tuple.Float(spec.Lifetime), tuple.Int(int64(spec.MaxSize))})
			}
		}
	case QueryTableName:
		for _, id := range n.queryOrder {
			q := n.queries[id]
			rows = append(rows, []tuple.Value{addr, tuple.Str(id),
				tuple.Int(int64(len(q.strands))), tuple.Int(int64(len(q.names.tables))),
				tuple.Float(q.installedAt)})
		}
	case NodeStatsTableName:
		for _, c := range append(n.met.Snapshot().Counters(), n.ObsCounters()...) {
			rows = append(rows, []tuple.Value{addr, epoch, tuple.Str(c.Name), counterValue(c)})
		}
	case QueryStatsTableName:
		ids := make([]string, 0, len(n.perQuery))
		for id, q := range n.perQuery {
			if reported(id, q) {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			for _, c := range n.perQuery[id].Snapshot().Counters() {
				rows = append(rows, []tuple.Value{addr, epoch, tuple.Str(id), tuple.Str(c.Name), counterValue(c)})
			}
		}
	}
	return rows
}

// ObsCounters returns the observability extras reported alongside the
// metrics.Node counters: the trace store's append/seal totals. They
// deliberately live outside metrics.Node — the store counters differ
// between store-on and store-off runs, so keeping them out of the node
// counters (and the stats tables out of emissions fingerprints)
// preserves the bit-identical determinism contract across those modes.
// The row set is fixed regardless of configuration (zeros when the store
// is off), so a read of nodeStats bills the same in both modes. All
// values are monotone.
func (n *Node) ObsCounters() []metrics.Counter {
	var ss tracestore.Stats
	if st := n.TraceStore(); st != nil {
		ss = st.Stats()
	}
	cs := []metrics.Counter{
		{Name: "StoreAppends", Prom: "store_appends", I: ss.Appended()},
		{Name: "StoreSealedSegments", Prom: "store_sealed_segments", I: ss.Sealed},
		{Name: "StoreSealedRecords", Prom: "store_sealed_records", I: ss.SealedRecords},
		{Name: "StoreEncodedBytes", Prom: "store_encoded_bytes", I: ss.TotalEncodedBytes},
	}
	if n.cfg.ExtraObs != nil {
		cs = append(cs, n.cfg.ExtraObs()...)
	}
	return cs
}

func counterValue(c metrics.Counter) tuple.Value {
	if c.IsFloat {
		return tuple.Float(c.F)
	}
	return tuple.Int(c.I)
}
