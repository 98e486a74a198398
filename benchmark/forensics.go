package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"p2go/internal/chord"
	"p2go/internal/trace"
	"p2go/internal/tracestore"
)

// rootRule is the Chord rule that turns a node's periodic timer into a
// finger-fix request (ff1 fixFinger :- periodic, nextFingerFix). Its
// triggering event is the root every investigated lineage must reach:
// the timer firing that caused the lookup whose answer is examined.
const rootRule = "ff1"

// lineageRoot finds that root in a lineage: an event edge of rootRule
// at origin whose input tuple has no producer (no exec edge emitted it,
// no hop delivered it — a timer firing). It returns that tuple's ID, or
// false when the walk did not reach it.
func lineageRoot(edges []tracestore.Edge, hops []tracestore.HopStep, origin string) (uint64, bool) {
	produced := make(map[uint64]bool)
	for _, e := range edges {
		if e.Node == origin {
			produced[e.OutID] = true
		}
	}
	for _, h := range hops {
		if h.To == origin {
			produced[h.ToID] = true
		}
	}
	for _, e := range edges {
		if e.Node == origin && e.IsEvent && e.Rule == rootRule && !produced[e.InID] {
			return e.InID, true
		}
	}
	return 0, false
}

func ringStores(r *chord.Ring) (map[string]*tracestore.Store, error) {
	stores := make(map[string]*tracestore.Store, len(r.Addrs))
	for _, a := range r.Addrs {
		st := r.Node(a).TraceStore()
		if st == nil {
			return nil, fmt.Errorf("node %s has no trace store", a)
		}
		stores[a] = st
	}
	return stores, nil
}

// storeCounts fills the write-path counters of the tracer and store.
func storeCounts(res *result, r *chord.Ring) {
	var appended, sealed, sealedRecords, totalBytes, retained int64
	var memo, execRows int
	for _, a := range r.Addrs {
		n := r.Node(a)
		if st := n.TraceStore(); st != nil {
			s := st.Stats()
			appended += s.Appended()
			sealed += s.Sealed
			sealedRecords += s.SealedRecords
			totalBytes += s.TotalEncodedBytes
			retained += s.EncodedBytes
		}
		if tr := n.Tracer(); tr != nil {
			memo += tr.MemoSize()
		}
		if tb := n.Store().Get(trace.RuleExecTable); tb != nil {
			execRows += tb.Count()
		}
	}
	res.Layer["tracestore.appended"] = float64(appended)
	res.Layer["tracestore.sealed_segments"] = float64(sealed)
	if sealedRecords > 0 {
		res.Layer["tracestore.bytes_per_record"] = float64(totalBytes) / float64(sealedRecords)
	}
	res.Layer["tracestore.encoded_mb"] = float64(retained) / (1 << 20)
	res.Layer["trace.memo_entries"] = float64(memo)
	res.Layer["trace.ruleexec_rows"] = float64(execRows)
}

// investigate is the forensic workload's operation phase: each
// investigation opens a fresh view over all stores with a fixed horizon
// and walks the full ancestry of one recent lookupResults tuple on the
// node that asked, one in ten through the textual query surface. The
// traced run adds, as child spans, a warm second walk, a descendants
// walk from the root, an exec scan and a query parse.
func investigate(env *runEnv, res *result, cr *chordRun, sz chordSizes) error {
	r := cr.ring
	stores, err := ringStores(r)
	if err != nil {
		return err
	}
	now := r.Sim.Now()
	var cands []lookupOp
	for _, op := range cr.lookups {
		if op.answered && op.at >= now-sz.recent {
			cands = append(cands, op)
		}
	}
	if len(cands) == 0 {
		res.violate("no lookupResults observed in the last %g virtual s", sz.recent)
		return nil
	}
	// Which answers get investigated, and in what order, is the seeded
	// input of this phase.
	rand.New(rand.NewSource(env.seed)).Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	since := now - sz.horizon
	// The reference kernel runs before every tenth investigation.
	var ms []float64
	var host hostRef
	var warmMs, openMs, descMs, scanMs, parseUs []float64
	var edges, hops, lookupHops float64
	for i := 0; i < sz.investigations; i++ {
		if i%10 == 0 {
			host.sample()
		}
		op := cands[i%len(cands)]
		measured := op.from
		var lin *tracestore.Lineage
		var v *tracestore.View
		var ierr error
		d := env.spans.do("tracestore.investigation", int64(i), func(self int) {
			v = tracestore.NewView(stores, since)
			if i%10 == 9 {
				q := fmt.Sprintf("ancestors of %d at %s", op.resultID, measured)
				id := env.spans.start("tracestore.Investigate", int64(i), self, 0)
				var ir *tracestore.Result
				ir, ierr = tracestore.Investigate(q, v)
				env.spans.end(id)
				if ierr == nil {
					lin = &tracestore.Lineage{Edges: ir.Edges, Hops: ir.Hops}
				}
				return
			}
			id := env.spans.start("tracestore.Ancestors", int64(i), self, 0)
			lin, ierr = v.Ancestors(measured, op.resultID, 0)
			env.spans.end(id)
		})
		res.Attempted++
		ms = append(ms, d.Seconds()*1e3)
		if ierr != nil || lin == nil || len(lin.Edges) == 0 {
			res.Failed++
			continue
		}
		root, ok := lineageRoot(lin.Edges, lin.Hops, measured)
		if !ok {
			res.Failed++
			continue
		}
		edges += float64(len(lin.Edges))
		hops += float64(len(lin.Hops))
		lookupHops += float64(otherNodes(lin.Edges, measured))
		if !env.traced() {
			continue
		}
		// Read-path probes on the already-decoded view.
		warm := env.spans.do("tracestore.Ancestors(warm)", int64(i), func(int) {
			_, ierr = v.Ancestors(measured, op.resultID, 0)
		})
		warmMs = append(warmMs, warm.Seconds()*1e3)
		openMs = append(openMs, (d-warm).Seconds()*1e3)
		if i%10 == 0 {
			dd := env.spans.do("tracestore.Descendants", int64(i), func(int) {
				_, ierr = v.Descendants(measured, root, 0)
			})
			descMs = append(descMs, dd.Seconds()*1e3)
			ds := env.spans.do("tracestore.Execs", int64(i), func(int) {
				_, ierr = v.Execs(tracestore.ExecFilter{Node: measured})
			})
			scanMs = append(scanMs, ds.Seconds()*1e3)
			dp := env.spans.do("tracestore.ParseQuery", int64(i), func(int) {
				_, ierr = tracestore.ParseQuery(fmt.Sprintf("ancestors of %d at %s depth 8 since %g", op.resultID, measured, since))
			})
			parseUs = append(parseUs, dp.Seconds()*1e6)
		}
		if ierr != nil {
			res.violate("read-path probe: %v", ierr)
		}
	}
	res.opMetrics(ms, host.factor())
	if ok := float64(res.Attempted - res.Failed); ok > 0 {
		res.Layer["tracestore.edges_per_walk"] = edges / ok
		res.Layer["tracestore.hops_per_walk"] = hops / ok
		res.Layer["chord.lookup_hops_mean"] = lookupHops / ok
	}
	res.Layer["tracestore.ancestors_warm_ms"] = median(warmMs)
	res.Layer["tracestore.view_open_ms"] = median(openMs)
	res.Layer["tracestore.descendants_ms"] = median(descMs)
	res.Layer["tracestore.execs_scan_ms"] = median(scanMs)
	res.Layer["tracestore.parse_query_us"] = median(parseUs)
	env.logf("%s: %d investigations, p50 %.2f ms", res.Workload, res.Attempted, res.AsTimed["op_p50_ms"])
	return nil
}

// otherNodes counts the nodes besides origin that appear in a lineage:
// how many members took part in routing and answering the lookup.
func otherNodes(edges []tracestore.Edge, origin string) int {
	seen := map[string]bool{origin: true}
	for _, e := range edges {
		seen[e.Node] = true
	}
	return len(seen) - 1
}

// overheadTwin runs the untraced deployment over the forensic
// workload's exact virtual duration and traffic, so the traced run can
// report the paper's E0 overhead ratios from inside one process. It
// runs before the forensic ring exists, so its live heap is absolute
// like chord21-monitored's.
func overheadTwin(sz chordSizes) (cpuUs, allocs, heapMB float64, err error) {
	cr, err := buildChord(sz, false)
	if err != nil {
		return 0, 0, 0, err
	}
	sp := drive(nil, cr, sz.virtual, chordStep)
	heapMB = liveHeapMB()
	runtime.KeepAlive(cr)
	return perEvent(sp.stats.CPUSec*1e6, sp.events), perEvent(float64(sp.stats.Mallocs), sp.events), heapMB, nil
}

// storeProbes times the store's write path in isolation: the execs the
// finished run retained are replayed into a fresh store, once with a
// window too wide to ever seal (pure append cost) and once with the
// workload's window (the difference, per rotation, is the seal cost).
func storeProbes(env *runEnv, res *result, r *chord.Ring, window float64) {
	stores, err := ringStores(r)
	if err != nil {
		return
	}
	v := tracestore.NewView(stores, 0)
	var byNode [][]tracestore.Exec
	total := 0
	for _, a := range r.Addrs {
		es, err := v.Execs(tracestore.ExecFilter{Node: a})
		if err != nil {
			res.violate("harvest execs: %v", err)
			return
		}
		execs := make([]tracestore.Exec, len(es))
		for i, e := range es {
			execs[i] = tracestore.Exec{Rule: e.Rule, InID: e.InID, OutID: e.OutID, InT: e.InT, OutT: e.OutT, IsEvent: e.IsEvent}
		}
		byNode = append(byNode, execs)
		total += len(execs)
	}
	if total == 0 {
		return
	}
	// One fresh store per node, so each replay sees time move forward.
	replay := func(name string, w float64) (time.Duration, int64) {
		cfg := tracestore.DefaultConfig()
		cfg.WindowSeconds = w
		var seals int64
		d := env.spans.do(name, 0, func(int) {
			for _, execs := range byNode {
				st := tracestore.New("probe", cfg)
				for _, e := range execs {
					st.AppendExec(e)
				}
				seals += st.Stats().Sealed
			}
		})
		return d, seals
	}
	flat, _ := replay("tracestore.AppendExec", 1e12)
	sealing, seals := replay("tracestore.AppendExec+seal", window)
	res.Layer["tracestore.append_ns"] = float64(flat.Nanoseconds()) / float64(total)
	if seals > 0 && sealing > flat {
		res.Layer["tracestore.seal_ms"] = (sealing - flat).Seconds() * 1e3 / float64(seals)
	}
}
