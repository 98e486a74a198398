package main

import (
	"runtime"
	"time"

	"p2go/internal/chord"
	"p2go/internal/tuple"
)

// ring1k-join: 1 000 hosts, bare Chord plus stats publication, all
// joining through one landmark from a cold start. It is the scale
// axis: scheduler heap depth, per-host memory, shared plans and GC over
// a large heap. It runs in the known stabilization-storm regime on
// purpose — it is deterministic, it is what the system does today, and
// curing the storm should show here as fewer events and less heap.

func runRing1k(env *runEnv) (*result, error) {
	res := newResult("ring1k-join", env)
	sz := ring1kSizesFor(env.tiny)
	res.Sizes["hosts"], res.Sizes["measured_virtual_s"] = float64(sz.hosts), sz.virtual

	if env.traced() {
		parseCompileSpans(env, res)
	}

	// Set-up is ring construction: compile once, instantiate per host.
	t0 := time.Now()
	id := env.spans.start("chord.NewRing", 0, -1, 0)
	r, err := chord.NewRing(chord.RingConfig{N: sz.hosts, Seed: simSeed, StatsPeriod: sz.statsPeriod})
	env.spans.end(id)
	if err != nil {
		return nil, err
	}
	setupSec := time.Since(t0).Seconds()
	env.logf("ring1k-join: set-up %.2fs", setupSec)
	cr := &chordRun{ring: r}

	// Measured phase: the first virtual seconds of the mass join.
	sp := drive(env.spans, cr, sz.virtual, sz.virtual/(10*slices))
	live := liveHeapMB()
	res.phaseMetrics(setupSec, sp.stats, sp.events, sp.work, live)
	// The op is the simulator's own unit of progress: the wall clock one
	// step of virtual time takes on the joining fleet.
	res.opMetrics(sp.stepMs, sp.stats.HostFactor)
	simLayerCounts(res, sp)
	env.logf("ring1k-join: measured %.0f virtual s, %d events in %.2fs, live heap %.0f MB",
		sp.virtual, sp.events, sp.stats.WallSec, live)

	// Oracle: every host holds a successor at the end. No rule errors.
	now := r.Sim.Now()
	res.Attempted = len(r.Addrs)
	for _, a := range r.Addrs {
		if !hasRow(r, a, "succ", now) && !hasRow(r, a, "bestSucc", now) {
			res.Failed++
		}
	}
	if len(r.Errors) > 0 {
		res.violate("%d rule errors, first: %s", len(r.Errors), r.Errors[0])
	}
	_, sys := billShares(r)
	res.Layer["engine.system_bill_share"] = sys
	liveRows, tableMB := tableTotals(r)
	res.Layer["table.live_tuples"], res.Layer["table.size_mb"] = float64(liveRows), tableMB

	if env.traced() {
		promRender(env, res, r)
		chordProbes(env, res, cr, sp)
	}
	runtime.KeepAlive(cr)
	return res, nil
}

func hasRow(r *chord.Ring, addr, name string, now float64) bool {
	tb := r.Node(addr).Store().Get(name)
	if tb == nil {
		return false
	}
	found := false
	tb.Scan(now, func(tuple.Tuple) { found = true })
	return found
}
