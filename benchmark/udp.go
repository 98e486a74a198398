package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"p2go/internal/overlog"
	"p2go/internal/realtime"
	"p2go/internal/tuple"
)

// udp-collector: two realtime.UDPNodes over loopback sockets, driven
// only through public API (Inject, AddPeer, OnWatch). An agent forwards
// each injected report to a collector, which upserts a 1 000-key
// lastSeen table, maintains ungrouped count/max fleet aggregates over
// it and acknowledges; the agent watches the acks. Every event crosses
// the realtime pipeline (recv, decode, queue, executor, marshal, send)
// twice; simnet, trace and tracestore do nothing.
//
// Phase A is a closed loop: at most `outstanding` reports in flight
// until a fixed number are acknowledged — throughput and cost per
// round trip without kernel loss or pacing in the number. Phase B is an
// open loop: reports are due on a fixed schedule at about a quarter of
// phase A's rate, and each is timed from its due time to its ack.

const (
	agentAddr     = "agent"
	collectorAddr = "collector"
)

// Aggregates stay ungrouped: a 1 000-group count<*> would make this a
// dataflow workload (most CPU in aggregate group emission).
const agentProgram = `
a1 report@C(A, H, S, P) :- sendReport@A(C, H, S, P).
watch(ack).
`

const collectorProgram = `
materialize(lastSeen, 30, 1000, keys(2)).
materialize(fleetCount, infinity, 1, keys(1)).
materialize(fleetMax, infinity, 1, keys(1)).
c1 lastSeen@C(H, S) :- report@C(A, H, S, P).
c2 ack@A(H, S) :- report@C(A, H, S, P).
c3 fleetCount@C(count<*>) :- lastSeen@C(H, S).
c4 fleetMax@C(max<S>) :- lastSeen@C(H, S).
`

// loadPhase is what the ack handler needs to account one phase of
// generated load. Sequence numbers base..base+n-1 belong to it.
type loadPhase struct {
	base, n int
	// sem bounds the reports in flight (closed loop); nil in open loop.
	sem chan struct{}
	// Open loop: the schedule, and each report's due-to-ack time in
	// nanoseconds (0 = not acknowledged). The ack handler writes an entry
	// while the generator may already have given up waiting and be
	// reading, so the entries are atomic.
	start    time.Time
	interval time.Duration
	rtt      []atomic.Int64
	// acked is written by the ack handler only; the generator reads it
	// when it gives up waiting.
	acked atomic.Int64
	done  chan struct{}
}

// udpPair is the deployed pair and the load generator's shared state.
type udpPair struct {
	agent, collector *realtime.UDPNode
	cur              atomic.Pointer[loadPhase]
	ruleErrors       atomic.Int64
	nextSeq          int
	payload          string
	rng              *rand.Rand
	keysSent         []bool
}

// onAck runs on the agent's executor goroutine, the only writer of a
// phase's ack-side fields until done is closed.
func (u *udpPair) onAck(_ float64, t tuple.Tuple) {
	if t.Name != "ack" || t.Arity() < 3 {
		return
	}
	ph := u.cur.Load()
	if ph == nil {
		return
	}
	i := int(t.Field(2).AsInt()) - ph.base
	if i < 0 || i >= ph.n {
		return
	}
	if ph.rtt != nil {
		// Plus 1 ns, so an acknowledged report never reads as 0 (lost).
		ph.rtt[i].Store(int64(sinceDue(dueAt(ph.start, i, ph.interval), time.Now())) + 1)
	}
	if ph.sem != nil {
		<-ph.sem
	}
	if int(ph.acked.Add(1)) == ph.n {
		close(ph.done)
	}
}

// newUDPPair binds both nodes, installs the programs and starts them.
func newUDPPair(env *runEnv, sz udpSizes) (*udpPair, error) {
	u := &udpPair{rng: rand.New(rand.NewSource(env.seed)), keysSent: make([]bool, sz.keys)}
	b := make([]byte, sz.payload)
	for i := range b {
		b[i] = byte('a' + u.rng.Intn(26))
	}
	u.payload = string(b)
	mk := func(addr, prog string, onWatch func(float64, tuple.Tuple)) (*realtime.UDPNode, error) {
		n, err := realtime.NewUDPNode(realtime.UDPNodeConfig{
			Addr: addr, Listen: "127.0.0.1:0", Seed: env.seed,
			// Deep queues and the largest socket buffer the kernel grants:
			// on two shared vCPUs a reader can lose the processor for
			// milliseconds, and an open-loop report lost to a full buffer
			// would be a failed operation that says nothing about the
			// program.
			QueueDepth: 8192, SocketBuf: 4 << 20, Overload: realtime.OverloadBlock,
			// Reports are ~60 bytes. At the 64 KiB default the pooled
			// receive buffers are most of the live heap, and how many the
			// pool ever held depends on timing (19.5-24.1 MB over ten
			// runs), which would put scheduler noise into live_heap_mb.
			MaxDatagram: 2048,
			OnWatch:     onWatch,
			OnRuleError: func(float64, string, error) { u.ruleErrors.Add(1) },
		})
		if err != nil {
			return nil, err
		}
		p, err := overlog.Parse(prog)
		if err == nil {
			err = n.Node().InstallProgram(p)
		}
		if err != nil {
			n.Stop()
			return nil, err
		}
		return n, nil
	}
	var err error
	if u.agent, err = mk(agentAddr, agentProgram, u.onAck); err != nil {
		return nil, err
	}
	if u.collector, err = mk(collectorAddr, collectorProgram, nil); err != nil {
		u.agent.Stop()
		return nil, err
	}
	if err = u.agent.AddPeer(collectorAddr, u.collector.LocalAddr()); err == nil {
		err = u.collector.AddPeer(agentAddr, u.agent.LocalAddr())
	}
	if err != nil {
		u.stop()
		return nil, err
	}
	u.agent.Start()
	u.collector.Start()
	return u, nil
}

func (u *udpPair) stop() {
	u.agent.Stop()
	u.collector.Stop()
}

// report builds the next report event for a seeded host key.
func (u *udpPair) report(seq int) tuple.Tuple {
	k := u.rng.Intn(len(u.keysSent))
	u.keysSent[k] = true
	return tuple.New("sendReport", tuple.Str(agentAddr), tuple.Str(collectorAddr),
		tuple.Int(int64(k)), tuple.Int(int64(seq)), tuple.Str(u.payload))
}

// udpSetups is how many times a run sets the pair up.
const udpSetups = 3

// openWindows is how many windows the open-loop phase is cut into.
const openWindows = 10

// ackTimeout bounds how long a phase waits for its last acks; anything
// still unacknowledged then is a failed operation.
const ackTimeout = 10 * time.Second

// await waits for a phase's acks and returns how many never came.
func (ph *loadPhase) await() int {
	select {
	case <-ph.done:
		return 0
	case <-time.After(ackTimeout):
		return ph.n - int(ph.acked.Load())
	}
}

// finish ends the current phase: acks that arrive from now on belong to
// no phase.
func (u *udpPair) finish() { u.cur.Store(nil) }

// closedLoop injects n reports keeping at most `outstanding` in flight
// and returns once all are acknowledged (or timed out). The traced run
// records every 64th Inject as a span.
func (u *udpPair) closedLoop(spans *spanRecorder, n, outstanding int) (unacked int, injectNs []float64, err error) {
	ph := &loadPhase{base: u.nextSeq, n: n, sem: make(chan struct{}, outstanding), done: make(chan struct{})}
	u.nextSeq += n
	u.cur.Store(ph)
	// One reusable timer guards the blocking path (time.After would
	// allocate per report).
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for i := 0; i < n; i++ {
		select {
		case ph.sem <- struct{}{}:
		default:
			timer.Reset(ackTimeout)
			select {
			case ph.sem <- struct{}{}:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				return n - int(ph.acked.Load()), injectNs, nil
			}
		}
		ev := u.report(ph.base + i)
		if spans != nil && i%64 == 0 {
			id := spans.start("realtime.Inject", int64(ph.base+i), -1, 1)
			t0 := time.Now()
			err = u.agent.Inject(ev)
			injectNs = append(injectNs, float64(time.Since(t0).Nanoseconds()))
			spans.end(id)
		} else {
			err = u.agent.Inject(ev)
		}
		if err != nil {
			u.finish()
			return n - i, injectNs, err
		}
	}
	unacked = ph.await()
	u.finish()
	return unacked, injectNs, nil
}

// openLoop injects n reports on a fixed schedule whatever the system is
// doing, and times each from its due time to its ack. A report that is
// never acknowledged misses any latency limit: its time is ackTimeout.
func (u *udpPair) openLoop(n, rate int) (rttMs []float64, late []time.Duration, unacked int, err error) {
	ph := &loadPhase{base: u.nextSeq, n: n, interval: time.Second / time.Duration(rate),
		rtt: make([]atomic.Int64, n), done: make(chan struct{})}
	u.nextSeq += n
	late = make([]time.Duration, n)
	ph.start = time.Now().Add(time.Millisecond)
	u.cur.Store(ph)
	// The generator sleeps until the next report is due and then sends
	// everything that has fallen due. It must park, not spin: a goroutine
	// that stays runnable keeps the Go scheduler from polling the network
	// (acks would wait for the 10 ms sysmon poll).
	for i := 0; i < n; {
		due := dueAt(ph.start, i, ph.interval)
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
			continue
		}
		late[i] = sinceDue(due, now)
		if err = u.agent.Inject(u.report(ph.base + i)); err != nil {
			u.finish()
			return nil, late, n - i, err
		}
		i++
	}
	unacked = ph.await()
	u.finish()
	rttMs = make([]float64, n)
	for i := range ph.rtt {
		if ns := ph.rtt[i].Load(); ns > 0 {
			rttMs[i] = float64(ns) / 1e6
		} else {
			rttMs[i] = ackTimeout.Seconds() * 1e3
		}
	}
	return rttMs, late, unacked, nil
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}

func runUDP(env *runEnv) (*result, error) {
	res := newResult("udp-collector", env)
	sz := udpSizesFor(env.tiny)
	res.Sizes["keys"], res.Sizes["outstanding"] = float64(sz.keys), float64(sz.outstanding)
	res.Sizes["closed_loop_reports"], res.Sizes["open_loop_reports"] = float64(sz.closed), float64(sz.open)
	res.Sizes["open_loop_rate_per_s"], res.Sizes["warmup_reports"] = float64(sz.openRate), float64(sz.warmup)

	// Set-up: bind, install, start, warm up — three times on fresh
	// sockets, the median reported and the last pair measured. It is half
	// a second of cold starts (sockets, goroutines, kernel buffers) and on
	// its own spread 25-38 % over ten runs, enough for two sets' medians
	// to drift 16 % apart; the simulated workloads' set-ups are steadier
	// and four times as long, and run once.
	var u *udpPair
	var setups []float64
	for i := 0; i < udpSetups; i++ {
		if u != nil {
			u.stop()
		}
		t0 := time.Now()
		id := env.spans.start("realtime.NewUDPNode+warmup", int64(i), -1, 0)
		var err error
		if u, err = newUDPPair(env, sz); err != nil {
			return nil, err
		}
		unacked, _, err := u.closedLoop(nil, sz.warmup, sz.outstanding)
		env.spans.end(id)
		if err != nil || unacked > 0 {
			u.stop()
			return nil, fmt.Errorf("udp warm-up: %d unacknowledged, err=%v", unacked, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer u.stop()
	setupSec := median(setups)

	// Phase A: closed loop, fixed work, one burst per slice. A burst
	// drains before the next starts; at 128 in flight against thousands
	// per burst the ramps are under one percent of it.
	runtime.GC()
	agent0, coll0 := u.agent.TransportStats(), u.collector.TransportStats()
	collM0 := u.collector.MetricsSnapshot().Node
	burst := sz.closed / slices
	var injectNs, work []float64
	unackedA := 0
	p := beginPhase()
	for i := 0; i < slices; i++ {
		un, ns, err := u.closedLoop(env.spans, burst, sz.outstanding)
		if err != nil {
			return nil, err
		}
		p.endSlice()
		unackedA += un
		injectNs = append(injectNs, ns...)
		work = append(work, float64(burst-un))
	}
	ps := p.end()
	live := liveHeapMB()
	events := uint64(sz.closed - unackedA)
	res.phaseMetrics(setupSec, ps, events, work, live)
	env.logf("udp-collector: phase A %d round trips in %.2fs", events, ps.WallSec)
	agent1, coll1 := u.agent.TransportStats(), u.collector.TransportStats()
	collM1 := u.collector.MetricsSnapshot().Node

	// Phase B: open loop, in windows. Each window's percentiles are
	// taken on their own and the medians over windows reported, so a
	// stretch where the hypervisor took the processors away costs the
	// windows it hit, not the result. Round-trip time at a quarter of
	// capacity is wake-up latency, not processor speed (it held within
	// 3.5 % while throughput swung 20 %), so it is not scaled by the
	// host factor. The traced run snapshots the collector's metrics
	// under load from a second goroutine.
	var snapMs []float64
	stopSnap, snapDone := make(chan struct{}), make(chan struct{})
	if env.traced() {
		go func() {
			defer close(snapDone)
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSnap:
					return
				case <-tick.C:
					d := env.spans.do("realtime.MetricsSnapshot", 0, func(int) { u.collector.MetricsSnapshot() })
					snapMs = append(snapMs, d.Seconds()*1e3)
				}
			}
		}()
	} else {
		close(snapDone)
	}
	var p50s, p90s, p99s, lateP99s []float64
	unackedB := 0
	for w := 0; w < openWindows; w++ {
		ms, late, un, err := u.openLoop(sz.open/openWindows, sz.openRate)
		if err != nil {
			close(stopSnap)
			<-snapDone
			return nil, err
		}
		unackedB += un
		p50s, p90s, p99s = append(p50s, quantile(ms, 0.5)), append(p90s, quantile(ms, 0.9)), append(p99s, quantile(ms, 0.99))
		lateP99s = append(lateP99s, quantile(durationsMs(late), 0.99))
	}
	close(stopSnap)
	<-snapDone
	res.timing("op_p50_ms", median(p50s), 1)
	res.Layer["bench.op_p90_ms"] = median(p90s)
	res.Layer["realtime.rtt_p99_ms"] = median(p99s)
	res.Layer["realtime.gen_late_p99_ms"] = median(lateP99s)
	env.logf("udp-collector: phase B %d reports at %d/s, rtt p50 %.3f ms", sz.open, sz.openRate, res.E2E["op_p50_ms"])

	// Oracle and failure accounting.
	res.Attempted = sz.closed + sz.open
	res.Failed = unackedA + unackedB
	snap := u.collector.MetricsSnapshot()
	agentT, collT := u.agent.TransportStats(), u.collector.TransportStats()
	u.stop()
	for name, t := range map[string]realtime.TransportStats{agentAddr: agentT, collectorAddr: collT} {
		if d := t.DropOverload + t.DropDecode + t.DropUnknownPeer + t.DropInject; d > 0 {
			res.violate("%s dropped %d (overload %d, decode %d, unknown peer %d, inject %d)",
				name, d, t.DropOverload, t.DropDecode, t.DropUnknownPeer, t.DropInject)
		}
	}
	if n := u.ruleErrors.Load(); n > 0 {
		res.violate("%d rule errors", n)
	}
	distinct := 0
	for _, sent := range u.keysSent {
		if sent {
			distinct++
		}
	}
	if got := fleetCount(u.collector); got != int64(distinct) {
		res.violate("collector counts %d hosts, %d distinct keys were sent", got, distinct)
	}

	// Layer counts over phase A.
	sent := float64(agent1.DatagramsSent - agent0.DatagramsSent + coll1.DatagramsSent - coll0.DatagramsSent)
	bytes := float64(agent1.BytesSent - agent0.BytesSent + coll1.BytesSent - coll0.BytesSent)
	res.Layer["realtime.datagrams_per_event"] = perEvent(sent, events)
	if sent > 0 {
		res.Layer["realtime.bytes_per_datagram"] = bytes / sent
	}
	res.Layer["realtime.drop_overload"] = float64(agentT.DropOverload + collT.DropOverload)
	res.Layer["realtime.drop_decode"] = float64(agentT.DropDecode + collT.DropDecode)
	cm := collM1.Sub(collM0)
	res.Layer["dataflow.agg_applies"], res.Layer["dataflow.agg_rebuilds"] = float64(cm.AggApplies), float64(cm.AggRebuilds)
	res.Layer["engine.tuples_processed"] = float64(cm.TuplesProcessed)
	res.Layer["engine.rule_fires_per_event"] = perEvent(float64(cm.RuleFires), events)
	if cm.RuleFires > 0 {
		res.Layer["engine.heads_per_fire"] = float64(cm.HeadsEmitted) / float64(cm.RuleFires)
	}
	res.Layer["engine.model_busy_s"] = cm.BusySeconds
	if cm.MsgsSent > 0 {
		res.Layer["tuple.bytes_per_msg"] = float64(cm.BytesSent) / float64(cm.MsgsSent)
	}
	res.Layer["tuple.msgs_per_event"] = perEvent(float64(cm.MsgsSent+cm.MsgsRecv), events)
	res.Layer["realtime.hop_p50_ms"] = snap.Hists.HopLatency.Quantile(0.5) * 1e3
	res.Layer["realtime.queue_wait_p50_ms"] = snap.Hists.QueueWait.Quantile(0.5) * 1e3
	res.Layer["table.live_tuples"] = float64(u.collector.Node().Store().LiveTuples())
	res.Layer["table.size_mb"] = float64(u.collector.Node().Store().SizeBytes()) / (1 << 20)

	if env.traced() {
		res.Layer["realtime.inject_ns"] = median(injectNs)
		res.Layer["bench.span_overhead_pct"] = env.spans.overheadPct(len(injectNs), ps.WallSec)
		res.Layer["realtime.snapshot_ms"] = median(snapMs)
		if a, err := realtime.MeasureReaderAllocs(20000); err == nil {
			res.Layer["realtime.reader_allocs"] = a
		}
		udpProbes(env, res, u)
	}
	return res, nil
}

// fleetCount reads the collector's ungrouped host count (node stopped).
func fleetCount(c *realtime.UDPNode) int64 {
	tb := c.Node().Store().Get("fleetCount")
	if tb == nil {
		return -1
	}
	var n int64 = -1
	tb.Scan(0, func(t tuple.Tuple) { n = t.Field(1).AsInt() })
	return n
}

// udpProbes times the codec on the collector's rows (the tuples this
// workload actually moves).
func udpProbes(env *runEnv, res *result, u *udpPair) {
	var h harvestedTable
	if tb := u.collector.Node().Store().Get("lastSeen"); tb != nil {
		h.spec = tb.Spec()
		tb.Scan(0, func(t tuple.Tuple) { h.rows = append(h.rows, t) })
	}
	tupleProbes(env, res, []harvestedTable{h})
}
