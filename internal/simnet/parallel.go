package simnet

// Conservative parallel discrete-event execution (windowed-lookahead
// PDES). The global event heap is consumed in time windows [T, T+L)
// where T is the earliest pending event and L = Config.MinDelay is the
// lookahead: because every message incurs at least MinDelay of latency,
// nothing sent inside a window can also arrive inside it, so the hosts
// with events in the window are causally independent and may run
// concurrently.
//
// Determinism contract (the correctness spine, cross-checked by tests in
// this package and internal/chord): for the same seed, Parallel mode
// produces exactly the per-node metrics, execution traces, drop counts,
// and final table contents of Sequential mode. The ingredients:
//
//   - Host-attributed events. Every scheduled event is tagged with the
//     host whose state it touches; a window only runs host events, and
//     each worker executes one host's events in (time, tie-order)
//     sequence — the same per-host subsequence the sequential loop
//     produces.
//   - Sender-owned link state. Delay/loss RNG streams and the FIFO
//     high-water mark live in per-(src,dst) link structs touched only by
//     the sending host's execution, and each stream is seeded from
//     (Seed, src, dst), so samples do not depend on global event
//     interleaving.
//   - Buffered cross-host effects. A worker never mutates shared state:
//     scheduling requests (message arrivals, its own future timers),
//     watch/rule-error callbacks, and drop counts are buffered per host
//     and merged at the window barrier in a canonical order — requests
//     sorted by (time, issuing host, issue order), callbacks replayed in
//     virtual-time order.
//   - In-window self events. An event a host schedules for itself
//     before the window's cutoff (CPU-free retries of the single-server
//     queue) runs inside the window, ordered after every event that was
//     already pending — exactly the tie-break the sequential scheduler's
//     monotone sequence numbers give fresh events.
//
// Events not attributed to any host (raw Sim.At calls from tests or
// harnesses) act as barriers: they run sequentially between windows, and
// a window reaching one is truncated so no host runs past it.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"p2go/internal/tuple"
)

// spawnOrdBase orders events a host schedules for itself mid-window
// after every event already pending when the window opened, matching the
// sequential scheduler where a fresh event always receives a larger
// tie-break seq than anything in the heap.
const spawnOrdBase = uint64(1) << 32

// deferredEvent is a scheduling request buffered during a window.
type deferredEvent struct {
	at     float64
	h      *host // target host
	do     action
	srcIdx int32 // issuing host (canonical merge key)
	srcOrd int   // issue order within the issuing host's window
}

type watchRec struct {
	at float64
	t  tuple.Tuple
}

type errRec struct {
	at     float64
	ruleID string
	err    error
}

// hostExec is one host's execution context for the current window.
type hostExec struct {
	h      *host
	cutoff float64 // self-scheduled events below this run in-window...
	until  float64 // ...but never past the Run horizon
	// agenda holds the window's events for this host, ordered like the
	// global heap with the window-local tie-order in seq.
	agenda eventHeap

	nextOrd  uint64 // tie-order for events popped off the global heap
	spawnOrd uint64 // tie-order for in-window self-scheduled events

	deferred []deferredEvent
	watches  []watchRec
	errors   []errRec
	maxAt    float64 // latest event time executed in this window
	execd    uint64  // events executed (mirrors the sequential Step count)
}

// schedule buffers a request issued by this host's window execution.
// Requests for the host itself that fall before the cutoff join the
// window agenda; everything else waits for the barrier merge.
func (ex *hostExec) schedule(target *host, t float64, do action) {
	if target == ex.h && t < ex.cutoff && t <= ex.until {
		ex.agenda.push(event{at: t, seq: spawnOrdBase + ex.spawnOrd, h: target, do: do})
		ex.spawnOrd++
		return
	}
	ex.deferred = append(ex.deferred, deferredEvent{
		at: t, h: target, do: do,
		srcIdx: ex.h.idx, srcOrd: len(ex.deferred),
	})
}

// run drains the host's agenda in (time, tie-order) sequence.
func (ex *hostExec) run() {
	for len(ex.agenda) > 0 {
		e := ex.agenda.pop()
		if e.at > ex.maxAt {
			ex.maxAt = e.at
		}
		ex.execd++
		e.do.fire(e.h, e.at)
	}
}

// getExec takes a window context off the freelist (or allocates one) so
// a steady-state parallel run reuses agenda/buffer capacity instead of
// allocating per host per window.
func (n *Network) getExec(h *host, until float64) *hostExec {
	if k := len(n.execPool); k > 0 {
		ex := n.execPool[k-1]
		n.execPool = n.execPool[:k-1]
		ex.h = h
		ex.until = until
		return ex
	}
	return &hostExec{h: h, until: until}
}

// putExec resets a window context and returns it to the freelist. The
// buffered slices keep their capacity; their contents must already have
// been consumed (deferred) or copied out (watches/errors).
func (n *Network) putExec(ex *hostExec) {
	ex.h = nil
	ex.cutoff, ex.until, ex.maxAt = 0, 0, 0
	ex.nextOrd, ex.spawnOrd, ex.execd = 0, 0, 0
	ex.agenda = ex.agenda[:0]
	ex.deferred = ex.deferred[:0]
	for i := range ex.watches {
		ex.watches[i] = watchRec{}
	}
	ex.watches = ex.watches[:0]
	for i := range ex.errors {
		ex.errors[i] = errRec{}
	}
	ex.errors = ex.errors[:0]
	n.execPool = append(n.execPool, ex)
}

// ParStats summarizes one or more parallel runs: how many windows ran,
// how many host-window executions they contained, and how many events
// executed inside them. HostWindows/Windows is the mean per-window
// concurrency available to the worker pool (the Amdahl ceiling of the
// windowed driver on this workload).
type ParStats struct {
	Windows     int64
	HostWindows int64
	Events      int64
}

// ParStats returns the accumulated parallel-driver statistics.
func (n *Network) ParStats() ParStats { return n.parStats }

// runParallel advances the simulation to absolute virtual time until
// using conservative lookahead windows. See the package comment above
// for the determinism argument.
func (n *Network) runParallel(until float64) {
	lookahead := n.cfg.MinDelay
	if lookahead <= 0 {
		// No lookahead, no safe window: degenerate to sequential.
		n.sim.Run(until)
		return
	}
	workers := n.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := n.sim
	active := n.activeBuf[:0]
	for len(s.pq) > 0 && s.pq[0].at <= until {
		if s.pq[0].h == nil {
			// Unattributed event: a barrier between windows.
			s.Step()
			continue
		}
		cutoff := s.pq[0].at + lookahead
		active = active[:0]
		for len(s.pq) > 0 && s.pq[0].at <= until && s.pq[0].at < cutoff && s.pq[0].h != nil {
			e := s.pq.pop()
			h := e.h
			ex := h.exec
			if ex == nil {
				ex = n.getExec(h, until)
				h.exec = ex
				active = append(active, h)
			}
			e.seq = ex.nextOrd
			ex.agenda.push(e)
			ex.nextOrd++
			n.parStats.Events++
		}
		n.parStats.Windows++
		n.parStats.HostWindows += int64(len(active))
		// An unattributed event inside the window caps how far hosts may
		// run ahead locally: anything at or after it must be merged into
		// the global heap and ordered against it.
		if len(s.pq) > 0 && s.pq[0].h == nil && s.pq[0].at < cutoff {
			cutoff = s.pq[0].at
		}
		for _, h := range active {
			h.exec.cutoff = cutoff
		}

		if len(active) == 1 || workers == 1 {
			for _, h := range active {
				h.exec.run()
			}
		} else {
			var next atomic.Int32
			var wg sync.WaitGroup
			k := min(workers, len(active))
			wg.Add(k)
			for w := 0; w < k; w++ {
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(active) {
							return
						}
						active[i].exec.run()
					}
				}()
			}
			wg.Wait()
		}
		n.mergeWindow(active)
	}
	n.activeBuf = active[:0]
	if s.now < until {
		s.now = until
	}
}

// mergeWindow applies the buffered cross-host effects of one window in
// canonical order and clears the per-host window contexts.
func (n *Network) mergeWindow(active []*host) {
	s := n.sim
	// Advance the clock to the latest executed event. No deferred
	// request can be earlier (sends look ahead by >= MinDelay; deferred
	// self events sit at or past the cutoff), so the clamp in s.at never
	// distorts a merged event's time.
	for _, h := range active {
		if h.exec.maxAt > s.now {
			s.now = h.exec.maxAt
		}
	}
	// Merge scheduling requests, assigning tie-break seqs in the
	// canonical (time, issuing host, issue order) sequence; large
	// windows load the heap in one bulk rebuild (see Sim.atBatch).
	defs := n.defsBuf[:0]
	for _, h := range active {
		defs = append(defs, h.exec.deferred...)
		s.executed += h.exec.execd
	}
	sort.Slice(defs, func(i, j int) bool {
		if defs[i].at != defs[j].at {
			return defs[i].at < defs[j].at
		}
		if defs[i].srcIdx != defs[j].srcIdx {
			return defs[i].srcIdx < defs[j].srcIdx
		}
		return defs[i].srcOrd < defs[j].srcOrd
	})
	s.atBatch(defs)
	for i := range defs {
		defs[i] = deferredEvent{}
	}
	n.defsBuf = defs[:0]
	// Harvest buffered observer callbacks (by value), then release the
	// window contexts before invoking any user code (a callback that
	// reaches back into the network must see driver-context state), and
	// replay in virtual-time order (ties: host index, then emission
	// order).
	recs := n.recsBuf[:0]
	for _, h := range active {
		ex := h.exec
		for i, w := range ex.watches {
			recs = append(recs, callbackRec{
				at: w.at, hostIdx: h.idx, ord: i, addr: h.addr,
				isWatch: true, watch: w,
			})
		}
		for i, e := range ex.errors {
			recs = append(recs, callbackRec{
				at: e.at, hostIdx: h.idx, ord: i, addr: h.addr, err: e,
			})
		}
		h.exec = nil
		n.putExec(ex)
	}
	// Detach the scratch buffer while user callbacks run: a callback may
	// re-enter Run and recurse into mergeWindow.
	n.recsBuf = nil
	n.replayCallbacks(recs)
	for i := range recs {
		recs[i] = callbackRec{}
	}
	n.recsBuf = recs[:0]
}

type callbackRec struct {
	at      float64
	hostIdx int32
	ord     int
	addr    string
	isWatch bool
	watch   watchRec
	err     errRec
}

func (n *Network) replayCallbacks(recs []callbackRec) {
	if len(recs) == 0 {
		return
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].at != recs[j].at {
			return recs[i].at < recs[j].at
		}
		if recs[i].hostIdx != recs[j].hostIdx {
			return recs[i].hostIdx < recs[j].hostIdx
		}
		// Watches before errors at the same instant is arbitrary but
		// fixed; within one kind, emission order.
		if recs[i].isWatch != recs[j].isWatch {
			return recs[i].isWatch
		}
		return recs[i].ord < recs[j].ord
	})
	for _, r := range recs {
		if r.isWatch {
			n.cfg.OnWatch(r.watch.at, r.addr, r.watch.t)
		} else {
			n.cfg.OnRuleError(r.err.at, r.addr, r.err.ruleID, r.err.err)
		}
	}
}
