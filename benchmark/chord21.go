package main

import (
	"runtime"
	"strings"
	"time"

	"p2go/internal/chord"
	"p2go/internal/engine"
	"p2go/internal/metrics"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
	"p2go/internal/trace"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// The two 21-node workloads: the paper's §4 deployment with the §3.1
// suite on every node. chord21-monitored runs it untraced (the engine
// hot path); chord21-forensics runs the identical deployment with the
// tracer and the trace store on, then investigates the store. The pair
// isolates what always-on forensics costs in real CPU, allocations and
// heap.

// alarmNames are the detectors' watched alarm predicates; a healthy
// ring raises none after convergence.
var alarmNames = map[string]bool{
	"inconsistentPred": true, "inconsistentSucc": true,
	"oscill": true, "repeatOscill": true, "chaotic": true,
}

// lookupOp is one lookup the ring issued for itself — a node's
// periodic finger fix (rules ff1-ff3) — and the answer the benchmark
// saw come back. These are the application operations the oracle
// judges: random-key lookups injected from outside amplify at every hop
// in this Chord (l3 forwards once per matching finger row) and a
// single one can stall a node for seconds of virtual time, which turns
// a healthy ring into a failure-detection storm; the ring's own
// lookups are the load it sustains.
type lookupOp struct {
	at       float64
	from     string
	key      uint64
	answered bool
	latency  float64
	owner    string
	// resultID is the lookupResults tuple's ID on the origin node — the
	// handle forensic investigations start from.
	resultID uint64
}

// chordRun is a built ring plus what the benchmark observes on it.
type chordRun struct {
	ring    *chord.Ring
	lookups []lookupOp
	// byReq finds a lookup by its request nonce (the E of fixFinger,
	// lookup and lookupResults).
	byReq  map[uint64]int
	alarms int
	// counting gates alarm and lookup accounting to after convergence.
	counting bool
}

// suitePrograms is the §3.1 suite every node runs, plus the watches
// that let the benchmark see each finger-fix lookup and its answer.
func suitePrograms() []*overlog.Program {
	return []*overlog.Program{
		monitor.RingProbeProgram(5),
		monitor.RingPassiveProgram(),
		monitor.OscillationProgram(),
		chord.WatchProgram("fixFinger", "lookupResults"),
	}
}

// buildChord builds the deployment and converges it: the timed body of
// setup_s for both 21-node workloads. The forensic variant converges
// untraced like the other and then switches the tracer and the trace
// store on on every live node (engine.Node.EnableTracing, the on-line
// path): an operator turning forensics on on a running ring. Tracing the
// cold join as well would triple the set-up and measure the join storm,
// not the steady state the measured phase is about.
func buildChord(sz chordSizes, forensics bool) (*chordRun, error) {
	cr := &chordRun{byReq: make(map[uint64]int)}
	cfg := chord.RingConfig{
		N: sz.nodes, Seed: simSeed, StatsPeriod: sz.statsPeriod,
		ExtraPrograms: suitePrograms(),
		OnWatch: func(now float64, node string, t tuple.Tuple) {
			cr.observe(now, node, t)
		},
	}
	if forensics {
		sc := tracestore.DefaultConfig()
		sc.WindowSeconds = sz.window
		cfg.TraceStore = &sc
	}
	r, err := chord.NewRing(cfg)
	if err != nil {
		return nil, err
	}
	cr.ring = r
	r.Run(sz.converge)
	r.Watched = r.Watched[:0]
	if forensics {
		for _, a := range r.Addrs {
			if err := r.Node(a).EnableTracing(trace.DefaultConfig()); err != nil {
				return nil, err
			}
		}
	}
	return cr, nil
}

func (cr *chordRun) observe(now float64, node string, t tuple.Tuple) {
	if !cr.counting {
		return
	}
	switch {
	case alarmNames[t.Name]:
		cr.alarms++
	case t.Name == "fixFinger" && t.Arity() >= 2:
		cr.byReq[t.Field(1).AsID()] = len(cr.lookups)
		cr.lookups = append(cr.lookups, lookupOp{at: now, from: node})
	case t.Name == "lookupResults" && t.Arity() >= 5:
		i, ok := cr.byReq[t.Field(4).AsID()]
		if !ok {
			return
		}
		// Amplified lookups are answered more than once; the first
		// answer is the one the requester acts on.
		if op := &cr.lookups[i]; !op.answered && node == op.from {
			op.answered, op.latency, op.key = true, now-op.at, t.Field(1).AsID()
			op.owner, op.resultID = t.Field(3).AsStr(), t.ID
		}
	}
}

// simTotals are the network-wide counters sampled around a phase.
type simTotals struct {
	node     metrics.Node
	executed uint64
	dropped  int64
}

func (cr *chordRun) totals() simTotals {
	return simTotals{node: cr.ring.Net.TotalMetrics(), executed: cr.ring.Sim.Executed(), dropped: cr.ring.Net.Dropped()}
}

// simPhase is the outcome of driving a ring through a measured phase.
type simPhase struct {
	stats    phaseStats
	events   uint64
	work     []float64 // events per slice
	pending  []float64 // Sim.Pending() at each step
	stepMs   []float64 // wall clock of each step, as timed
	virtual  float64
	delta    metrics.Node
	dropped  int64
	overhead float64 // the span recorder's share of the phase, percent (traced run)
}

// chordStep is the virtual time the 21-node workloads advance per step:
// two seconds, about 6 ms of wall clock untraced.
const chordStep = 2

// drive advances the ring through `virtual` seconds in steps of `step`,
// cut into equal-virtual-time slices, timing every step. On the traced
// run every step is a span.
func drive(spans *spanRecorder, cr *chordRun, virtual, step float64) simPhase {
	r := cr.ring
	steps := int(virtual/step + 0.5)
	perSlice := steps / slices
	if perSlice < 1 {
		perSlice = 1
	}
	before := cr.totals()
	t0 := r.Sim.Now()
	var sp simPhase
	lastExec := before.executed
	p := beginPhase()
	for i := 1; i <= steps; i++ {
		until := t0 + float64(i)*step
		id := spans.start("simnet.Run", int64(i), -1, 0)
		t := time.Now()
		r.Net.Run(until)
		sp.stepMs = append(sp.stepMs, time.Since(t).Seconds()*1e3)
		spans.end(id)
		r.Watched = r.Watched[:0]
		sp.pending = append(sp.pending, float64(r.Sim.Pending()))
		if i%perSlice == 0 {
			p.endSlice()
			ex := r.Sim.Executed()
			sp.work = append(sp.work, float64(ex-lastExec))
			lastExec = ex
		}
	}
	sp.stats = p.end()
	after := cr.totals()
	sp.events = after.executed - before.executed
	sp.virtual = r.Sim.Now() - t0
	sp.delta = after.node.Sub(before.node)
	sp.dropped = after.dropped - before.dropped
	sp.overhead = spans.overheadPct(steps, sp.stats.WallSec)
	return sp
}

// simLayerCounts fills the count-type layer metrics every simulated
// workload shares from a driven phase.
func simLayerCounts(res *result, sp simPhase) {
	d := sp.delta
	ev := float64(sp.events)
	res.Layer["engine.tuples_processed"] = float64(d.TuplesProcessed)
	res.Layer["engine.rule_fires_per_event"] = perEvent(float64(d.RuleFires), sp.events)
	if d.RuleFires > 0 {
		res.Layer["engine.heads_per_fire"] = float64(d.HeadsEmitted) / float64(d.RuleFires)
	}
	res.Layer["engine.timer_fires"] = float64(d.TimerFires)
	res.Layer["engine.model_busy_s"] = d.BusySeconds
	if sp.stats.CPUSec > 0 {
		res.Layer["engine.model_drift"] = d.BusySeconds / sp.stats.CPUSec
	}
	res.Layer["dataflow.agg_applies"] = float64(d.AggApplies)
	res.Layer["dataflow.agg_rebuilds"] = float64(d.AggRebuilds)
	if d.MsgsSent > 0 {
		res.Layer["tuple.bytes_per_msg"] = float64(d.BytesSent) / float64(d.MsgsSent)
	}
	res.Layer["tuple.msgs_per_event"] = perEvent(float64(d.MsgsSent), sp.events)
	res.Layer["simnet.events"] = ev
	if sp.virtual > 0 {
		res.Layer["simnet.events_per_virtual_s"] = ev / sp.virtual
	}
	if sp.stats.WallSec > 0 {
		res.Layer["simnet.virtual_s_per_s"] = sp.virtual / sp.stats.WallSec
	}
	res.Layer["simnet.pending_p50"] = median(sp.pending)
	res.Layer["simnet.pending_max"] = quantile(sp.pending, 1)
	res.Layer["simnet.msgs_dropped"] = float64(sp.dropped)
	res.Layer["bench.span_overhead_pct"] = sp.overhead
}

// billShares splits the network's BusySeconds by query: the share the
// detector queries ("extra*") were billed and the share the reserved
// system query absorbed.
func billShares(r *chord.Ring) (monitorShare, systemShare float64) {
	var total, mon, sys float64
	for _, a := range r.Addrs {
		for id, q := range r.Node(a).QueryMetrics() {
			total += q.BusySeconds
			switch {
			case id == engine.SystemQuery:
				sys += q.BusySeconds
			case strings.HasPrefix(id, "extra"):
				mon += q.BusySeconds
			}
		}
	}
	if total == 0 {
		return 0, 0
	}
	return mon / total, sys / total
}

// tableTotals sums live rows and estimated bytes over every node.
func tableTotals(r *chord.Ring) (live int, mb float64) {
	var bytes int
	for _, a := range r.Addrs {
		st := r.Node(a).Store()
		live += st.LiveTuples()
		bytes += st.SizeBytes()
	}
	return live, float64(bytes) / (1 << 20)
}

// runChord21 runs either 21-node workload.
func runChord21(env *runEnv, forensics bool) (*result, error) {
	name := "chord21-monitored"
	if forensics {
		name = "chord21-forensics"
	}
	res := newResult(name, env)
	sz := chord21Sizes(forensics, env.tiny)
	res.Sizes["nodes"], res.Sizes["converge_virtual_s"] = float64(sz.nodes), sz.converge
	res.Sizes["measured_virtual_s"] = sz.virtual

	var twinCPU, twinAllocs, twinHeap float64
	if env.traced() {
		parseCompileSpans(env, res)
		if forensics {
			var err error
			if twinCPU, twinAllocs, twinHeap, err = overheadTwin(sz); err != nil {
				return nil, err
			}
		}
	}

	// Set-up: build the ring and converge it.
	t0 := time.Now()
	id := env.spans.start("chord.NewRing+converge", 0, -1, 0)
	cr, err := buildChord(sz, forensics)
	env.spans.end(id)
	if err != nil {
		return nil, err
	}
	setupSec := time.Since(t0).Seconds()
	env.logf("%s: set-up %.2fs", name, setupSec)
	r := cr.ring
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		res.violate("ring not converged after set-up: %s", strings.Join(bad, "; "))
	}

	// Measured phase: the suite over a converged ring.
	cr.counting = true
	sp := drive(env.spans, cr, sz.virtual, chordStep)
	live := liveHeapMB()
	res.phaseMetrics(setupSec, sp.stats, sp.events, sp.work, live)
	simLayerCounts(res, sp)
	env.logf("%s: measured %.0f virtual s, %d events in %.2fs", name, sp.virtual, sp.events, sp.stats.WallSec)

	// Oracle: every lookup answered in time by the true owner, the ring
	// still well-formed, no rule errors, no alarms. Lookups issued in
	// the last deadline of the phase cannot be judged and are left out.
	end := r.Sim.Now()
	var latencies []float64
	lookups, lookupsFailed := 0, 0
	for _, op := range cr.lookups {
		if op.at > end-sz.lookupDeadline {
			continue
		}
		lookups++
		switch {
		case !op.answered || op.latency > sz.lookupDeadline:
			lookupsFailed++
		case op.owner != chord.TrueOwner(op.key, r.Addrs):
			lookupsFailed++
		default:
			latencies = append(latencies, op.latency)
		}
	}
	ringBad := r.CheckRing(r.Addrs)
	for _, b := range ringBad {
		res.violate("ring: %s", b)
	}
	if len(r.Errors) > 0 {
		res.violate("%d rule errors, first: %s", len(r.Errors), r.Errors[0])
	}
	if cr.alarms > 0 {
		res.violate("%d detector alarms on a healthy ring", cr.alarms)
	}
	res.Layer["monitor.alarms"] = float64(cr.alarms)
	res.Layer["chord.ring_violations"] = float64(len(ringBad))
	res.Layer["chord.lookup_virtual_p50_s"] = median(latencies)
	mon, sys := billShares(r)
	res.Layer["monitor.query_bill_share"], res.Layer["engine.system_bill_share"] = mon, sys
	liveRows, tableMB := tableTotals(r)
	res.Layer["table.live_tuples"], res.Layer["table.size_mb"] = float64(liveRows), tableMB

	if forensics {
		// Operations are the investigations; lookups that failed would
		// leave nothing to investigate, so they are violations here.
		if lookupsFailed > 0 {
			res.violate("%d of %d lookups failed", lookupsFailed, lookups)
		}
		storeCounts(res, r)
		if err := investigate(env, res, cr, sz); err != nil {
			return nil, err
		}
	} else {
		// The op is the simulator's own unit of progress: the wall clock
		// one step (chordStep virtual seconds) of the monitored ring takes.
		res.Attempted, res.Failed = lookups, lookupsFailed
		res.opMetrics(sp.stepMs, sp.stats.HostFactor)
	}

	if env.traced() {
		promRender(env, res, r)
		if forensics {
			// The paper's E0: what tracing costs over the same run untraced.
			if twinCPU > 0 && twinAllocs > 0 && twinHeap > 0 {
				res.Layer["trace.cpu_ratio"] = res.E2E["cpu_us_per_event"] / twinCPU
				res.Layer["trace.alloc_ratio"] = res.E2E["allocs_per_event"] / twinAllocs
				res.Layer["trace.heap_ratio"] = res.E2E["live_heap_mb"] / twinHeap
			}
			storeProbes(env, res, r, sz.window)
		} else {
			deployProbe(env, res, r)
		}
		chordProbes(env, res, cr, sp)
	}
	runtime.KeepAlive(cr)
	return res, nil
}

// parseCompileSpans times the front end on the programs the 21-node
// deployment installs: overlog.Parse of Chord plus the detectors, and
// engine.CompileQuery of the parsed Chord program.
func parseCompileSpans(env *runEnv, res *result) {
	srcs := []string{
		chord.Rules + chord.DeadGuardRules, monitor.RingProbeRules(5),
		monitor.RingPassiveRules, monitor.OscillationRules,
	}
	rules := 0
	var chordProg *overlog.Program
	d := env.spans.do("overlog.Parse", 0, func(int) {
		for i, src := range srcs {
			p, err := overlog.Parse(src)
			if err != nil {
				res.violate("parse: %v", err)
				return
			}
			rules += len(p.Rules())
			if i == 0 {
				chordProg = p
			}
		}
	})
	if rules > 0 {
		res.Layer["overlog.parse_us_per_rule"] = float64(d.Microseconds()) / float64(rules)
	}
	if chordProg == nil {
		return
	}
	d = env.spans.do("engine.CompileQuery", 0, func(int) {
		if _, err := engine.CompileQuery(chordProg); err != nil {
			res.violate("compile: %v", err)
		}
	})
	res.Layer["planner.compile_us_per_rule"] = float64(d.Microseconds()) / float64(len(chordProg.Rules()))
}

// promRender times one Prometheus scrape of every node.
func promRender(env *runEnv, res *result, r *chord.Ring) {
	var sink countingWriter
	d := env.spans.do("metrics.WritePrometheus", 0, func(int) {
		for _, a := range r.Addrs {
			n := r.Node(a)
			h := n.Hists()
			if err := metrics.WritePrometheus(&sink, a, n.Metrics(), n.QueryMetrics(), &h, n.ObsCounters()...); err != nil {
				res.violate("prometheus render: %v", err)
			}
		}
	})
	res.Layer["metrics.prom_render_ms"] = d.Seconds() * 1e3
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
