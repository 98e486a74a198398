package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"p2go/internal/chord"
	"p2go/internal/dataflow"
	"p2go/internal/engine"
	"p2go/internal/monitor"
	"p2go/internal/simnet"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

// Probes time one layer's public functions in isolation on inputs
// harvested from a finished workload (table rows, trace stores, the
// observed scheduler depth). They run on the traced run only, after
// the measured phase, and give the unit costs the traced report
// multiplies by the program's own counters.

// probeRounds repeats a probe loop, as one span, until it has run long
// enough for the clock to resolve it, and returns ns and allocations per
// call.
func probeRounds(env *runEnv, span string, calls int, body func()) (nsPer, allocsPer float64) {
	if calls == 0 {
		return 0, 0
	}
	id := env.spans.start(span, 0, -1, 0)
	defer env.spans.end(id)
	const minDur = 20 * time.Millisecond
	var ms0, ms1 runtime.MemStats
	rounds := 0
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for time.Since(t0) < minDur || rounds == 0 {
		body()
		rounds++
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	n := float64(rounds * calls)
	return float64(d.Nanoseconds()) / n, float64(ms1.Mallocs-ms0.Mallocs) / n
}

// harvestedTable is one table's declaration and the rows it held.
type harvestedTable struct {
	spec table.Spec
	rows []tuple.Tuple
}

// harvestTables scans every application table on up to maxNodes nodes.
func harvestTables(r *chord.Ring, maxNodes int) []harvestedTable {
	var out []harvestedTable
	now := r.Sim.Now()
	for i, a := range r.Addrs {
		if i >= maxNodes {
			break
		}
		st := r.Node(a).Store()
		for _, name := range st.Names() {
			if engine.IsSystemTable(name) {
				continue
			}
			tb := st.Get(name)
			h := harvestedTable{spec: tb.Spec()}
			tb.Scan(now, func(t tuple.Tuple) { h.rows = append(h.rows, t) })
			if len(h.rows) > 0 {
				out = append(out, h)
			}
		}
	}
	return out
}

// tableProbes times Insert, MatchIndexed on the primary key, and Expire
// over the harvested rows, each table rebuilt from its own spec.
func tableProbes(env *runEnv, res *result, hs []harvestedTable) {
	rows := 0
	for _, h := range hs {
		rows += len(h.rows)
	}
	if rows == 0 {
		return
	}
	var err error
	res.Layer["table.insert_ns"], res.Layer["table.insert_allocs"] = probeRounds(env, "table.Insert", rows, func() {
		for _, h := range hs {
			tb := table.New(h.spec)
			for _, t := range h.rows {
				if _, e := tb.Insert(t, 0); e != nil {
					err = e
				}
			}
		}
	})
	if err != nil {
		res.violate("table probe insert: %v", err)
	}

	// Match: one primary-key probe per row against a filled table.
	type filled struct {
		tb   *table.Table
		pos  []int
		vals [][]tuple.Value
	}
	var fs []filled
	for _, h := range hs {
		pos := h.spec.Keys
		if len(pos) == 0 {
			pos = []int{1}
		}
		f := filled{tb: table.New(h.spec), pos: pos}
		f.tb.EnsureIndex(pos)
		for _, t := range h.rows {
			f.tb.Insert(t, 0)
			vs := make([]tuple.Value, len(pos))
			for k, p := range pos {
				vs[k] = t.Field(p - 1)
			}
			f.vals = append(f.vals, vs)
		}
		fs = append(fs, f)
	}
	matched := 0
	res.Layer["table.match_ns"], _ = probeRounds(env, "table.MatchIndexed", rows, func() {
		for _, f := range fs {
			for _, vs := range f.vals {
				f.tb.MatchIndexed(0, f.pos, vs, func(tuple.Tuple) { matched++ })
			}
		}
	})
	if matched == 0 {
		res.violate("table probe: primary-key probes matched nothing")
	}

	// Expire: fill the finite-lifetime tables, then expire everything.
	// Refilling is outside the timed part.
	var expNs time.Duration
	expired := 0
	id := env.spans.start("table.Expire", 0, -1, 0)
	for round := 0; round < 20; round++ {
		for _, h := range hs {
			if h.spec.Lifetime == table.Infinity {
				continue
			}
			tb := table.New(h.spec)
			for _, t := range h.rows {
				tb.Insert(t, 0)
			}
			n := tb.Count()
			t0 := time.Now()
			tb.Expire(h.spec.Lifetime + 1)
			expNs += time.Since(t0)
			expired += n - tb.Count()
		}
	}
	env.spans.end(id)
	if expired > 0 {
		res.Layer["table.expire_ns"] = float64(expNs.Nanoseconds()) / float64(expired)
	}
}

// tupleProbes times the wire codec over the harvested rows.
func tupleProbes(env *runEnv, res *result, hs []harvestedTable) {
	var rows []tuple.Tuple
	for _, h := range hs {
		rows = append(rows, h.rows...)
	}
	if len(rows) == 0 {
		return
	}
	var buf []byte
	res.Layer["tuple.marshal_ns"], _ = probeRounds(env, "tuple.Marshal", len(rows), func() {
		for _, t := range rows {
			buf = tuple.Marshal(buf[:0], t)
		}
	})
	wire := make([][]byte, len(rows))
	for i, t := range rows {
		wire[i] = tuple.Marshal(nil, t)
	}
	var err error
	res.Layer["tuple.unmarshal_ns"], res.Layer["tuple.unmarshal_allocs"] = probeRounds(env, "tuple.Unmarshal", len(rows), func() {
		for _, b := range wire {
			if _, _, e := tuple.Unmarshal(b); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		res.violate("tuple probe unmarshal: %v", err)
	}
}

// schedProbe times the bare scheduler: a Sim holding `depth` pending
// no-op events, each step popping the earliest and pushing a
// replacement, so the heap stays at the depth the workload ran at.
func schedProbe(env *runEnv, res *result, depth int) {
	if depth < 1 {
		depth = 1
	}
	sim := simnet.NewSim()
	rng := rand.New(rand.NewSource(1))
	noop := func() {}
	for i := 0; i < depth; i++ {
		sim.At(rng.Float64(), noop)
	}
	const steps = 20000
	res.Layer["simnet.sched_ns_per_event"], _ = probeRounds(env, "simnet.Sim.Step+At", steps, func() {
		for i := 0; i < steps; i++ {
			sim.At(sim.Now()+rng.Float64(), noop)
			sim.Step()
		}
	})
}

// handleLocalProbe times the engine's event path end to end on a
// detached node: a fresh engine.Node with Chord and the suite, given
// the measured node's routing state, is fed the harvested lookups
// through HandleLocal (sends go nowhere).
func handleLocalProbe(env *runEnv, res *result, cr *chordRun) {
	r := cr.ring
	addr := r.Addrs[len(r.Addrs)-1]
	now := r.Sim.Now()
	n := engine.NewNode(engine.Config{
		Addr: addr, Seed: 1,
		Send:  func(string, engine.Envelope, float64) {},
		Clock: func() float64 { return now },
	})
	if err := chord.Install(n, r.Addrs[0]); err != nil {
		res.violate("handle_local probe: %v", err)
		return
	}
	for i, p := range suitePrograms() {
		if _, err := n.InstallQuery(chord.ExtraQueryID(i), p); err != nil {
			res.violate("handle_local probe: %v", err)
			return
		}
	}
	src := r.Node(addr).Store()
	for _, name := range []string{"succ", "bestSucc", "pred", "finger", "uniqueFinger"} {
		if tb := src.Get(name); tb != nil {
			tb.Scan(now, func(t tuple.Tuple) { n.HandleLocal(tuple.New(t.Name, t.Fields...)) })
		}
	}
	var evs []tuple.Tuple
	for i, op := range cr.lookups {
		if len(evs) == 2000 {
			break
		}
		evs = append(evs, chord.LookupEvent(addr, op.key, addr, uint64(i)))
	}
	if len(evs) == 0 {
		return
	}
	res.Layer["engine.handle_local_ns"], res.Layer["engine.handle_local_allocs"] = probeRounds(env, "engine.HandleLocal", len(evs), func() {
		for _, ev := range evs {
			n.HandleLocal(ev)
		}
	})
}

// installProbe times per-node construction — AddNode plus the Chord
// install and stats publication — on a detached network, one span per
// node: the body of chord.NewRing the benchmark cannot see inside.
func installProbe(env *runEnv, res *result, nodes int) {
	net := simnet.NewNetwork(simnet.NewSim(), simnet.Config{Seed: 1})
	var us []float64
	for i := 1; i <= nodes; i++ {
		var err error
		d := env.spans.do("engine.AddNode+Install", int64(i), func(int) {
			var n *engine.Node
			if n, err = net.AddNode(fmt.Sprintf("p%d", i)); err != nil {
				return
			}
			if err = chord.Install(n, "p1"); err != nil {
				return
			}
			err = n.EnableStatsPublication(10)
		})
		if err != nil {
			res.violate("install probe: %v", err)
			return
		}
		us = append(us, d.Seconds()*1e6)
	}
	res.Layer["engine.install_us_per_node"] = median(us)
}

// deployProbe times the on-line deployment path on the live ring after
// the measured phase: one detector installed on every node through
// InstallQuery and retired again, one span per round. No virtual time
// passes, so nothing deployed ever runs.
func deployProbe(env *runEnv, res *result, r *chord.Ring) {
	det := monitor.Detectors(5, 1)[0]
	var ms []float64
	for i := 0; i < 20; i++ {
		var err error
		d := env.spans.do("engine.Install+UninstallQuery", int64(i), func(int) {
			for _, a := range r.Addrs {
				if _, err = monitor.Deploy(r.Node(a), det); err != nil {
					return
				}
			}
			for _, a := range r.Addrs {
				if err = monitor.Undeploy(r.Node(a), det); err != nil {
					return
				}
			}
		})
		if err != nil {
			res.violate("deploy probe: %v", err)
			return
		}
		ms = append(ms, d.Seconds()*1e3)
	}
	res.Layer["engine.deploy_ms"] = median(ms)
}

// plansShared is the share of per-node plan slots that point at a plan
// some other node also uses: 1 when every host runs shared plans.
func plansShared(r *chord.Ring) float64 {
	uses := make(map[*dataflow.Plan]int)
	slots := 0
	for _, a := range r.Addrs {
		for _, p := range r.Node(a).Plans() {
			uses[p]++
			slots++
		}
	}
	if slots == 0 {
		return 0
	}
	shared := 0
	for _, c := range uses {
		if c > 1 {
			shared += c
		}
	}
	return float64(shared) / float64(slots)
}

// chordProbes runs every probe that applies to a simulated ring and
// then adds up what the probes explain: unit cost times the program's
// own count, over the measured CPU. It is expected to stay well below
// one until spans exist inside the program.
func chordProbes(env *runEnv, res *result, cr *chordRun, sp simPhase) {
	hs := harvestTables(cr.ring, 21)
	tableProbes(env, res, hs)
	tupleProbes(env, res, hs)
	schedProbe(env, res, int(res.Layer["simnet.pending_p50"]))
	handleLocalProbe(env, res, cr)
	installProbe(env, res, 64)
	res.Layer["planner.plans_shared_ratio"] = plansShared(cr.ring)

	d := sp.delta
	attributedNs := res.Layer["tuple.marshal_ns"]*float64(d.MsgsSent) +
		res.Layer["tuple.unmarshal_ns"]*float64(d.MsgsRecv) +
		res.Layer["simnet.sched_ns_per_event"]*float64(sp.events) +
		res.Layer["engine.handle_local_ns"]*float64(len(cr.lookups)) +
		res.Layer["tracestore.append_ns"]*res.Layer["tracestore.appended"] +
		res.Layer["tracestore.seal_ms"]*1e6*res.Layer["tracestore.sealed_segments"]
	if sp.stats.CPUSec > 0 {
		res.Layer["bench.attributed_share"] = attributedNs / (sp.stats.CPUSec * 1e9)
	}
}
