package realtime

import (
	"errors"
	"sync"
	"time"

	"p2go/internal/engine"
	"p2go/internal/tuple"
)

// The ingestion hot path. At 100k+ events/sec every per-datagram
// allocation and syscall shows up, so the pipeline is built from three
// pieces:
//
//   - tasks are plain values dispatched on a kind tag — no closure, no
//     per-task heap allocation (the old task{run: func(){...}} cost one
//     closure per datagram);
//   - receive buffers are pooled (*[]byte in a sync.Pool) and recycled
//     by the executor after the engine has decoded the tuple out of
//     them (it decodes into its task arena and interns every string, so
//     the buffer is dead the moment HandleMessage returns);
//   - the executor drains up to taskBatch tasks per channel operation,
//     reading the wall clock once per batch instead of once per task.
//
// Overload is a first-class policy rather than an accident of channel
// semantics: OverloadDrop (the default) sheds load exactly like UDP and
// accounts for every shed datagram, OverloadBlock applies backpressure
// to the producer. Control-plane tasks (timers, snapshots) always use
// blocking sends — dropping them would corrupt cadence or deadlock a
// caller, and they are orders of magnitude rarer than data.

// OverloadPolicy selects what a full task queue does to producers.
type OverloadPolicy uint8

const (
	// OverloadDrop sheds the task and counts it (TransportStats
	// DropOverload for socket datagrams, DropInject for Inject calls) —
	// UDP semantics, the default.
	OverloadDrop OverloadPolicy = iota
	// OverloadBlock makes the producer wait for queue space:
	// backpressure. For the socket reader this moves overflow into the
	// kernel socket buffer (and past it, to kernel-level drops this
	// process cannot count); for Inject and the channel-transport
	// Network it is true end-to-end backpressure.
	OverloadBlock
)

// ErrOverload is returned by Inject under OverloadDrop when the node's
// task queue is full. The event was not enqueued; callers may retry.
var ErrOverload = errors.New("realtime: task queue full (overload drop)")

// ErrStopped is returned by Inject on a stopped node or network.
var ErrStopped = errors.New("realtime: node stopped")

type taskKind uint8

const (
	taskMsg   taskKind = iota // env (+ optional buf): incoming network message
	taskLocal                 // tup: locally injected tuple
	taskTimer                 // p: periodic firing
	taskFunc                  // fn: control task (snapshots, probes)
)

// task is one unit of node work. It is a plain value moved through the
// task channel; the executor dispatches on kind, so enqueuing a task
// allocates nothing.
type task struct {
	at   time.Time // enqueue time, for queue-wait observation
	sent int64     // sender wall clock (unix nanos) for hop latency; 0 = unknown
	env  engine.Envelope
	tup  tuple.Tuple
	fn   func()
	p    *engine.Periodic
	buf  *[]byte // pooled receive buffer backing env; recycled after run
	kind taskKind
}

// taskBatch bounds how many tasks one executor wake-up drains: enough to
// amortize the channel operation and the clock read, small enough that
// sweeps and control tasks never starve.
const taskBatch = 64

// bufPool recycles fixed-size receive buffers. Pointers (not slices) go
// through the sync.Pool so Put does not allocate an interface box.
type bufPool struct {
	pool sync.Pool
	size int
}

func newBufPool(size int) *bufPool {
	p := &bufPool{size: size}
	p.pool.New = func() any {
		b := make([]byte, size)
		return &b
	}
	return p
}

func (p *bufPool) get() *[]byte { return p.pool.Get().(*[]byte) }

func (p *bufPool) put(b *[]byte) {
	if b == nil || cap(*b) < p.size {
		return
	}
	*b = (*b)[:p.size]
	p.pool.Put(b)
}

// runOne executes a single task against its node. now/nowNanos are the
// batch timestamp: queue wait and hop latency are measured against one
// clock read per batch, not one per task (the amortization is worth
// ~2x time.Now() per datagram at 100k/sec; the skew within a batch is
// bounded by the batch's own service time). depth is the observed queue
// depth for this task. done, when non-nil, is invoked after a taskMsg
// completes so the owner can recycle the buffer and count the datagram
// as processed.
func runOne(n *engine.Node, t *task, now time.Time, nowNanos int64, depth int, done func(*task)) {
	n.ObserveQueueWait(now.Sub(t.at).Seconds(), depth)
	switch t.kind {
	case taskMsg:
		if t.sent != 0 {
			// End-to-end ingest latency: sender stamp to execution start,
			// wall clock (same-host loopback in the bench; across real
			// hosts this inherits clock skew, like any one-way measure).
			d := float64(nowNanos-t.sent) / 1e9
			if d < 0 {
				d = 0
			}
			n.ObserveHop(d)
		}
		n.HandleMessage(t.env)
		if done != nil {
			done(t)
		}
	case taskLocal:
		n.HandleLocal(t.tup)
	case taskTimer:
		n.HandleTimer(t.p)
	case taskFunc:
		t.fn()
	}
}

// drainBatch runs first plus up to taskBatch-1 already-queued tasks,
// with one wall-clock read for the whole batch. pending is measured
// once at batch start; later tasks report a slightly stale depth, which
// is the price of not re-reading channel length per task.
func drainBatch(n *engine.Node, tasks chan task, first task, done func(*task)) {
	now := time.Now()
	nowNanos := now.UnixNano()
	pending := len(tasks)
	runOne(n, &first, now, nowNanos, pending+1, done)
	k := pending
	if k > taskBatch-1 {
		k = taskBatch - 1
	}
	for i := 0; i < k; i++ {
		select {
		case t := <-tasks:
			runOne(n, &t, now, nowNanos, pending-i, done)
		default:
			return
		}
	}
}

// enqueue applies the overload policy to a data-plane task. It returns
// dropped=true when the policy shed the task and stopped=true when the
// node is shutting down (the task was not enqueued).
func enqueue(tasks chan task, done <-chan struct{}, policy OverloadPolicy, t task) (dropped, stopped bool) {
	if policy == OverloadBlock {
		select {
		case tasks <- t:
			return false, false
		case <-done:
			return false, true
		}
	}
	select {
	case tasks <- t:
		return false, false
	case <-done:
		return false, true
	default:
		return true, false
	}
}

// enqueueControl is a blocking send for control-plane tasks (timers,
// metric snapshots): they are never shed by the overload policy.
func enqueueControl(tasks chan task, done <-chan struct{}, t task) (stopped bool) {
	select {
	case tasks <- t:
		return false
	case <-done:
		return true
	}
}

// armPeriodic schedules a periodic trigger on a single resettable
// time.Timer: the firing callback re-arms the same timer instead of
// allocating a fresh one per firing (the old time.AfterFunc re-arm
// cascade cost one runtime timer allocation per firing). first is the
// initial delay; subsequent firings use the periodic's own period. The
// armed channel closes after tm is assigned, so the first firing cannot
// race the assignment.
func armPeriodic(tasks chan task, done <-chan struct{}, p *engine.Periodic, first time.Duration) {
	period := time.Duration(p.Period() * float64(time.Second))
	armed := make(chan struct{})
	var tm *time.Timer
	fire := func() {
		<-armed
		select {
		case <-done:
			return
		default:
		}
		if enqueueControl(tasks, done, task{at: time.Now(), kind: taskTimer, p: p}) {
			return
		}
		if !p.Done() {
			tm.Reset(period)
		}
	}
	tm = time.AfterFunc(first, fire)
	close(armed)
}
