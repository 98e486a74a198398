package engine

import (
	"fmt"
	"math"
	"sort"

	"p2go/internal/dataflow"
	"p2go/internal/metrics"
	"p2go/internal/table"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// Performance-counter reflection tables, the §3.2 profiler's input:
//
//	nodeStats(NAddr, Epoch, Counter, Value)
//	queryStats(NAddr, Epoch, QueryID, Counter, Value)
//
// Counter names follow metrics.Node.Counters (plus Node.ObsCounters) and
// metrics.Query.Counters; Value is a float for *Seconds counters and an
// int otherwise. Epoch is the node's process incarnation, so a collector
// can tell a rejoined node's rows from stale pre-crash ones.
//
// The tables are caches of the counters (table.SetSync). A read with a
// clock fills one, once per task, and nothing else inserts, so they have
// no deltas: the engine plans no delta strand on them. A read without a
// clock (Count, SizeBytes, NextExpiry) measures the store and builds
// nothing. Filled rows take no tuple ID.
const (
	NodeStatsTableName  = "nodeStats"
	QueryStatsTableName = "queryStats"
)

func statsTable(name string) bool {
	return name == NodeStatsTableName || name == QueryStatsTableName
}

// EnableStatsPublication only validates period: the stats tables fill
// when read, so there is nothing to publish. It is kept for callers
// written against the periodic publication it used to install.
func (n *Node) EnableStatsPublication(period float64) error {
	if period <= 0 {
		return fmt.Errorf("engine: stats publication period must be positive, got %g", period)
	}
	return nil
}

// bindStats makes stats table i fill from the counters when read. Inside
// a task it fills once, each row billing a table op to the bucket doing
// the reading; a read outside any task refills and bills nothing.
func (n *Node) bindStats() {
	for i, name := range [2]string{NodeStatsTableName, QueryStatsTableName} {
		tb := n.store.Get(name)
		tb.SetSync(func(op table.SyncOp, now float64, _ tuple.Tuple) {
			if op != table.SyncRead || math.IsInf(now, -1) || n.statsFilled&(1<<i) != 0 {
				return
			}
			if n.inTask {
				n.statsFilled |= 1 << i
			}
			for _, fields := range n.statsRows(i) {
				if n.inTask {
					n.bill(dataflow.CostTableOp)
				}
				tb.Insert(tuple.Tuple{Name: name, Fields: fields}, now) //nolint:errcheck // the row names the table
			}
		})
	}
}

// statsRows builds stats table i's rows from the counters as they stand.
func (n *Node) statsRows(i int) [][]tuple.Value {
	addr, epoch := tuple.Str(n.cfg.Addr), tuple.Int(n.epoch)
	var rows [][]tuple.Value
	if i == 0 {
		for _, c := range append(n.met.Snapshot().Counters(), n.ObsCounters()...) {
			rows = append(rows, []tuple.Value{addr, epoch, tuple.Str(c.Name), counterValue(c)})
		}
		return rows
	}
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
