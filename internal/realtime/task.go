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
	// process cannot count); for Inject it is true end-to-end
	// backpressure.
	OverloadBlock
)

// ErrOverload is returned by Inject under OverloadDrop when the node's
// task queue is full. The event was not enqueued; callers may retry.
var ErrOverload = errors.New("realtime: task queue full (overload drop)")

// ErrStopped is returned by Inject on a stopped node.
var ErrStopped = errors.New("realtime: node stopped")

type taskKind uint8

const (
	taskDatagram taskKind = iota // env, buf: one socket datagram, its records in env.Raw
	taskLocal                    // tup: locally injected tuple
	taskTimer                    // p: periodic firing
	taskFunc                     // fn: control task (snapshots, probes)
)

// task is one unit of node work. It is a plain value moved through the
// task channel; the executor dispatches on kind, so enqueuing a task
// allocates nothing.
type task struct {
	at   time.Time // enqueue time, for queue-wait observation
	sent int64     // sender wall clock (unix nanos) for hop latency; 0 = unknown
	// env is a datagram's source and its run of records in Raw
	// (SrcTupleID is unused).
	env  engine.Envelope
	tup  tuple.Tuple
	fn   func()
	p    *engine.Periodic
	buf  *[]byte // pooled receive buffer backing a datagram; recycled after run
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
