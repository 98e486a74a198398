package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// WritePrometheus renders one node's counters, per-query bills and
// histograms in the Prometheus text exposition format (version 0.0.4):
// every engine counter as p2_<name>_total{node=...}, every per-query
// counter as p2_<name>_total{node=...,query=...} with query IDs sorted,
// and each NodeHists histogram with cumulative le buckets. Output is
// deterministic byte for byte for equal inputs: fixed counter order,
// sorted query IDs, shortest-round-trip float formatting.
//
// extras are additional monotone counters rendered exactly like the
// node counters, in slice order after them — the engine passes its
// observability extras (engine.Node.ObsCounters: trace-store and
// transport totals) here, so the /metrics surface exposes counters
// that deliberately live outside metrics.Node.
//
// The realtime driver serves this from an HTTP /metrics endpoint (see
// realtime.UDPNode.ServeMetrics); the simulation harness writes it to
// files next to exported traces.
func WritePrometheus(w io.Writer, node string, m Node, queries map[string]Query, hists *NodeHists, extras ...Counter) error {
	ew := &errWriter{w: w}
	for _, c := range m.Counters() {
		fmt.Fprintf(ew, "# TYPE p2_%s_total counter\n", c.Prom)
		fmt.Fprintf(ew, "p2_%s_total{node=%q} %s\n", c.Prom, node, formatValue(c))
	}
	for _, c := range extras {
		fmt.Fprintf(ew, "# TYPE p2_%s_total counter\n", c.Prom)
		fmt.Fprintf(ew, "p2_%s_total{node=%q} %s\n", c.Prom, node, formatValue(c))
	}
	ids := make([]string, 0, len(queries))
	for id := range queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) > 0 {
		// One TYPE header per metric, then all query series under it.
		for _, c := range queries[ids[0]].Counters() {
			fmt.Fprintf(ew, "# TYPE p2_%s_total counter\n", c.Prom)
			for _, id := range ids {
				for _, qc := range queries[id].Counters() {
					if qc.Prom == c.Prom {
						fmt.Fprintf(ew, "p2_%s_total{node=%q,query=%q} %s\n",
							qc.Prom, node, id, formatValue(qc))
					}
				}
			}
		}
	}
	if hists != nil {
		writeHist(ew, "p2_hop_latency_seconds", node, &hists.HopLatency)
		writeHist(ew, "p2_strand_cost_seconds", node, &hists.StrandCost)
		writeHist(ew, "p2_queue_wait_seconds", node, &hists.QueueWait)
		writeHist(ew, "p2_queue_depth_tasks", node, &hists.QueueDepth)
	}
	return ew.err
}

// writeHist emits one histogram with cumulative buckets. Buckets past
// the last non-empty one carry no information beyond +Inf and are
// omitted (Prometheus permits sparse bucket sets).
func writeHist(w io.Writer, name, node string, h *Histogram) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	last := -1
	for i := 0; i < HistBuckets; i++ {
		if h.BucketCount(i) != 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last && i < HistBuckets-1; i++ {
		cum += h.BucketCount(i)
		fmt.Fprintf(w, "%s_bucket{node=%q,le=%q} %d\n",
			name, node, strconv.FormatFloat(BucketBound(i), 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{node=%q,le=\"+Inf\"} %d\n", name, node, h.Count())
	fmt.Fprintf(w, "%s_sum{node=%q} %s\n", name, node, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count{node=%q} %d\n", name, node, h.Count())
}

func formatValue(c Counter) string {
	if c.IsFloat {
		return formatFloat(c.F)
	}
	return strconv.FormatInt(c.I, 10)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// errWriter latches the first write error so the formatted emission
// code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
