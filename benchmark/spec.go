package main

// The benchmark's contract: its workloads and every metric it reports,
// by name. BENCHMARK.json at the repository root carries the same
// lists (spec_test.go keeps the two identical); README.md defines each
// metric and says which end-to-end metric each layer metric should
// move, on which workload.

// metricSpec is one reported metric. Bound (end-to-end metrics only) is
// the share of the parent's median by which the metric may worsen
// before a change counts as a regression.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadSpec is one workload and the reason it exists.
type workloadSpec struct {
	Name string
	Why  string
	run  func(*runEnv) (*result, error)
}

var workloads = []workloadSpec{
	{"chord21-monitored", "the paper's 21-node ring with the detector suite, untraced: simnet, engine, dataflow, table and tuple do all the work; trace, tracestore and realtime do none",
		func(e *runEnv) (*result, error) { return runChord21(e, false) }},
	{"chord21-forensics", "the same ring, traffic and seed with tracer and trace store on, then 400 store investigations: isolates what always-on forensics costs, on the write path and the read path",
		func(e *runEnv) (*result, error) { return runChord21(e, true) }},
	{"ring1k-join", "1000 hosts cold-joining bare Chord: scheduler heap depth, per-host memory, shared plans and GC over a large heap, which 21 nodes barely touch",
		runRing1k},
	{"udp-collector", "two UDP nodes over loopback, closed loop then open loop: the only workload where realtime (recv, decode, queue, executor, marshal, send) does most of the work",
		runUDP},
}

// endToEnd are the metrics a user of the system would see. The driver
// requires every workload to report all of them; what an "event" and an
// "op" are is defined per workload in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"allocs_per_event", "allocs", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.03},
	{"op_p50_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run. They carry
// no bound. A workload reports 0 for a layer it bypasses.
var perLayer = []metricSpec{
	{Name: "overlog.parse_us_per_rule", Unit: "us", Better: "lower"},
	{Name: "planner.compile_us_per_rule", Unit: "us", Better: "lower"},
	{Name: "planner.plans_shared_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.install_us_per_node", Unit: "us", Better: "lower"},
	{Name: "engine.deploy_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.tuples_processed", Unit: "count", Better: "lower"},
	{Name: "engine.rule_fires_per_event", Unit: "ratio", Better: "lower"},
	{Name: "engine.heads_per_fire", Unit: "ratio", Better: "lower"},
	{Name: "engine.timer_fires", Unit: "count", Better: "lower"},
	{Name: "engine.handle_local_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.handle_local_allocs", Unit: "allocs", Better: "lower"},
	{Name: "engine.model_busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.model_drift", Unit: "ratio", Better: "lower"},
	{Name: "engine.system_bill_share", Unit: "ratio", Better: "lower"},
	{Name: "dataflow.agg_applies", Unit: "count", Better: "higher"},
	{Name: "dataflow.agg_rebuilds", Unit: "count", Better: "lower"},
	{Name: "table.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "table.insert_allocs", Unit: "allocs", Better: "lower"},
	{Name: "table.match_ns", Unit: "ns", Better: "lower"},
	{Name: "table.expire_ns", Unit: "ns", Better: "lower"},
	{Name: "table.live_tuples", Unit: "count", Better: "lower"},
	{Name: "table.size_mb", Unit: "MB", Better: "lower"},
	{Name: "tuple.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.unmarshal_allocs", Unit: "allocs", Better: "lower"},
	{Name: "tuple.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "tuple.msgs_per_event", Unit: "ratio", Better: "lower"},
	{Name: "simnet.events", Unit: "count", Better: "lower"},
	{Name: "simnet.events_per_virtual_s", Unit: "1/s", Better: "lower"},
	{Name: "simnet.virtual_s_per_s", Unit: "ratio", Better: "higher"},
	{Name: "simnet.pending_p50", Unit: "count", Better: "lower"},
	{Name: "simnet.pending_max", Unit: "count", Better: "lower"},
	{Name: "simnet.msgs_dropped", Unit: "count", Better: "lower"},
	{Name: "simnet.sched_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "realtime.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "realtime.hop_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "realtime.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "realtime.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "realtime.datagrams_per_event", Unit: "ratio", Better: "lower"},
	{Name: "realtime.bytes_per_datagram", Unit: "B", Better: "lower"},
	{Name: "realtime.drop_overload", Unit: "count", Better: "lower"},
	{Name: "realtime.drop_decode", Unit: "count", Better: "lower"},
	{Name: "realtime.reader_allocs", Unit: "allocs", Better: "lower"},
	{Name: "realtime.rtt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "realtime.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.cpu_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.alloc_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.heap_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.memo_entries", Unit: "count", Better: "lower"},
	{Name: "trace.ruleexec_rows", Unit: "count", Better: "lower"},
	{Name: "tracestore.appended", Unit: "count", Better: "lower"},
	{Name: "tracestore.sealed_segments", Unit: "count", Better: "lower"},
	{Name: "tracestore.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "tracestore.encoded_mb", Unit: "MB", Better: "lower"},
	{Name: "tracestore.append_ns", Unit: "ns", Better: "lower"},
	{Name: "tracestore.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "tracestore.view_open_ms", Unit: "ms", Better: "lower"},
	{Name: "tracestore.ancestors_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "tracestore.descendants_ms", Unit: "ms", Better: "lower"},
	{Name: "tracestore.execs_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "tracestore.parse_query_us", Unit: "us", Better: "lower"},
	{Name: "tracestore.edges_per_walk", Unit: "count", Better: "lower"},
	{Name: "tracestore.hops_per_walk", Unit: "count", Better: "lower"},
	{Name: "monitor.query_bill_share", Unit: "ratio", Better: "lower"},
	{Name: "monitor.alarms", Unit: "count", Better: "lower"},
	{Name: "chord.lookup_hops_mean", Unit: "count", Better: "lower"},
	{Name: "chord.lookup_virtual_p50_s", Unit: "s", Better: "lower"},
	{Name: "chord.ring_violations", Unit: "count", Better: "lower"},
	{Name: "metrics.prom_render_ms", Unit: "ms", Better: "lower"},
	{Name: "goruntime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "goruntime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "goruntime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "goruntime.alloc_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "bench.op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.host_factor", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.attributed_share", Unit: "ratio", Better: "higher"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
