package realtime

import (
	"sync"
	"sync/atomic"
	"time"

	"p2go/internal/engine"
	"p2go/internal/metrics"
	"p2go/internal/tuple"
)

// executor is the realtime task loop: a goroutine that serializes every
// task of one engine node, and everything a producer needs to hand it
// work. UDPNode puts a socket on either side of it.
type executor struct {
	node     *engine.Node
	tasks    chan task
	overload OverloadPolicy
	// pool recycles the receive buffers datagram tasks carry.
	pool *bufPool
	// stats counts the link's transport-level outcomes.
	stats transportCounters
	// batchEnd, when set, runs on the loop after every batch of tasks and
	// every sweep, before the batch clock is cleared: the socket link
	// writes there what the batch queued. Set before start.
	batchEnd func()
	// batchNanos is the batch clock: the one wall-clock read (unix nanos)
	// that covers the batch or sweep the loop is running, 0 between them.
	// Only the loop writes it; a link reads it from the engine's Send.
	batchNanos int64

	done     chan struct{} // closed by halt: producers and the loop stop
	haltOnce sync.Once
	started  atomic.Bool
	// stopped is closed by the loop as it exits, making "no goroutine is
	// touching the node" an observable event: after it (or before start)
	// direct reads of the node are safe.
	stopped chan struct{}
}

func newExecutor(depth int, overload OverloadPolicy, pool *bufPool) *executor {
	if depth <= 0 {
		depth = 1024
	}
	return &executor{
		tasks:    make(chan task, depth),
		overload: overload,
		pool:     pool,
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
}

// start launches the loop: tasks drain in batches (one channel wake-up
// and one clock read cover up to taskBatch of them), soft state is swept
// about once per second.
func (e *executor) start() {
	e.started.Store(true)
	go func() {
		defer close(e.stopped)
		sweep := time.NewTicker(time.Second)
		defer sweep.Stop()
		for {
			select {
			case <-e.done:
				return
			case t := <-e.tasks:
				e.drainBatch(t)
				e.endBatch()
			case <-sweep.C:
				e.batchNanos = time.Now().UnixNano()
				e.node.Sweep()
				e.endBatch()
			}
		}
	}()
}

// endBatch closes a batch or sweep: the link's hook runs under the batch
// clock, then the clock is cleared.
func (e *executor) endBatch() {
	if e.batchEnd != nil {
		e.batchEnd()
	}
	e.batchNanos = 0
}

// halt tells producers and the loop to stop. A link then stops its own
// producers and calls wait.
func (e *executor) halt() { e.haltOnce.Do(func() { close(e.done) }) }

// wait returns once the loop has exited and what it left is accounted.
func (e *executor) wait() {
	if e.started.Load() {
		<-e.stopped
	}
	e.drain()
}

// drain discards what is queued, booking datagram tasks to DropShutdown
// so the conservation law over TransportStats holds exactly after an
// abrupt stop. Safe from any goroutine once done is closed.
func (e *executor) drain() {
	for {
		select {
		case t := <-e.tasks:
			if t.kind == taskDatagram {
				e.stats.dropShutdown.Add(1)
				e.pool.put(t.buf)
			}
		default:
			return
		}
	}
}

// maxHopAge bounds the send stamps the hop histogram believes. The stamp
// is bytes off the network: a hostile or stale one (1, or a clock an
// hour off) would otherwise be observed as decades of latency.
const maxHopAge = time.Minute

// runOne executes a single task. now/nowNanos are the batch timestamp:
// queue wait and hop latency are measured against one clock read per
// batch, not one per task (the amortization is worth ~2x time.Now() per
// datagram at 100k/sec; the skew within a batch is bounded by the
// batch's own service time). depth is the observed queue depth for this
// task. t stays on the caller's stack: nothing here may retain it.
func (e *executor) runOne(t *task, now time.Time, nowNanos int64, depth int) {
	n := e.node
	wait := now.Sub(t.at).Seconds()
	switch t.kind {
	case taskDatagram:
		// The reader checked that the records tile the datagram. Each is
		// observed and run as the envelope it would be on its own.
		env := t.env
		for recs := t.env.Raw; len(recs) > 0; {
			env.SrcTupleID, env.Raw, recs, _ = nextRecord(recs)
			e.handleMessage(env, t.sent, wait, nowNanos, depth)
		}
		e.stats.datagramsProcessed.Add(1)
		e.pool.put(t.buf)
	case taskLocal:
		n.ObserveQueueWait(wait, depth)
		n.HandleLocal(t.tup)
	case taskTimer:
		n.ObserveQueueWait(wait, depth)
		n.HandleTimer(t.p)
	case taskFunc:
		n.ObserveQueueWait(wait, depth)
		t.fn()
	}
}

// handleMessage runs one received envelope through the engine, after
// observing its queue wait and its end-to-end ingest latency: sender
// stamp to execution start, wall clock (same-host loopback in the
// benchmark; across real hosts this inherits clock skew, like any
// one-way measure). A stamp slightly ahead of the batch clock is that
// skew and reads as zero; one further off than maxHopAge is not a
// measurement.
func (e *executor) handleMessage(env engine.Envelope, sent int64, wait float64, nowNanos int64, depth int) {
	n := e.node
	n.ObserveQueueWait(wait, depth)
	if d := time.Duration(nowNanos - sent); sent != 0 && d > -maxHopAge && d < maxHopAge {
		n.ObserveHop(max(d, 0).Seconds())
	}
	n.HandleMessage(env)
}

// drainBatch runs first plus up to taskBatch-1 already-queued tasks,
// with one wall-clock read for the whole batch, which it also sets as
// the batch clock for the tasks' sends. pending is measured
// once at batch start; later tasks report a slightly stale depth, which
// is the price of not re-reading channel length per task.
func (e *executor) drainBatch(first task) {
	now := time.Now()
	nowNanos := now.UnixNano()
	e.batchNanos = nowNanos
	pending := len(e.tasks)
	e.runOne(&first, now, nowNanos, pending+1)
	for i := 0; i < min(pending, taskBatch-1); i++ {
		select {
		case t := <-e.tasks:
			e.runOne(&t, now, nowNanos, pending-i)
		default:
			return
		}
	}
}

// enqueue queues a task under policy: the executor's own for the data
// plane, OverloadBlock for control tasks (timers, snapshots), which are
// never shed — dropping them would corrupt cadence or deadlock a caller.
// dropped means the policy shed the task, stopped that the executor is
// shutting down; either way it was not queued. done is checked first, on
// its own: in one select with a queue that has room Go picks at random,
// and a task parked on a dead queue has no outcome.
func (e *executor) enqueue(t task, policy OverloadPolicy) (dropped, stopped bool) {
	select {
	case <-e.done:
		return false, true
	default:
	}
	if policy == OverloadBlock {
		select {
		case e.tasks <- t:
		case <-e.done:
			return false, true
		}
	} else {
		select {
		case e.tasks <- t:
		default:
			return true, false
		}
	}
	// A whole halt+wait can fit between the check above and the send;
	// then nobody is left to drain this task but us.
	select {
	case <-e.done:
		e.drain()
	default:
	}
	return false, false
}

// receive is the data-plane entry the socket reader delivers through: it
// counts a datagram of wire bytes as received and queues its task,
// booking a shed or shut-out datagram to its drop reason and returning
// its buffer.
func (e *executor) receive(t task, wire int) {
	e.stats.datagramsRecv.Add(1)
	e.stats.bytesRecv.Add(int64(wire))
	dropped, stopped := e.enqueue(t, e.overload)
	switch {
	case dropped:
		e.stats.dropOverload.Add(1)
	case stopped:
		e.stats.dropShutdown.Add(1)
	default:
		return
	}
	e.pool.put(t.buf)
}

// inject is the body of UDPNode.Inject. Before start the event waits in
// the queue; after halt the answer is always ErrStopped.
func (e *executor) inject(t tuple.Tuple) error {
	dropped, stopped := e.enqueue(task{at: time.Now(), kind: taskLocal, tup: t}, e.overload)
	if stopped {
		return ErrStopped
	}
	if dropped {
		e.stats.dropInject.Add(1)
		return ErrOverload
	}
	return nil
}

// arm schedules a periodic trigger on a single resettable time.Timer:
// the firing callback re-arms the same timer instead of allocating a
// fresh one per firing. Every firing, the first included, comes one
// period after the last. The armed channel closes after tm is assigned,
// so the first firing cannot race the assignment.
func (e *executor) arm(p *engine.Periodic) {
	period := time.Duration(p.Period() * float64(time.Second))
	armed := make(chan struct{})
	var tm *time.Timer
	tm = time.AfterFunc(period, func() {
		<-armed
		_, stopped := e.enqueue(task{at: time.Now(), kind: taskTimer, p: p}, OverloadBlock)
		if !stopped && !p.Done() {
			tm.Reset(period)
		}
	})
	close(armed)
}

// Stats is one consistent snapshot of a node's counters, per-query
// bills, histograms and observability extras (engine.Node.ObsCounters),
// taken on the node's own goroutine.
type Stats struct {
	Node    metrics.Node
	Queries map[string]metrics.Query
	Hists   metrics.NodeHists
	Extras  []metrics.Counter
}

func (e *executor) read() Stats {
	return Stats{
		Node:    e.node.Metrics(),
		Queries: e.node.QueryMetrics(),
		Hists:   e.node.Hists(),
		Extras:  e.node.ObsCounters(),
	}
}

// do runs fn as the node's single writer and returns once it has run:
// as a control task on a running loop, or right here when no loop is
// running (not started, or exited before the task ran), since then
// nothing else touches the node. It must not be called from the loop.
func (e *executor) do(fn func()) {
	if e.started.Load() {
		ran := make(chan struct{})
		select {
		case e.tasks <- task{at: time.Now(), kind: taskFunc, fn: func() { fn(); close(ran) }}:
			select {
			case <-ran:
			case <-e.stopped:
			}
		case <-e.stopped:
		}
		// Once the loop has exited, a task it did not run never runs.
		select {
		case <-ran:
			return
		default:
		}
	}
	fn()
}

// snapshot returns a consistent Stats, safe against a running loop: the
// engine's counters have a single writer, so the read runs on it.
func (e *executor) snapshot() (s Stats) {
	e.do(func() { s = e.read() })
	return s
}
