// The run queue the inbox replaced, copied verbatim from 1b5b04e's
// internal/simnet/network.go (the queue fields move from host to
// refQueue) as the oracle FuzzRunQueue holds the inbox to, the way
// tuple's valueref_test.go keeps the 56-byte Value. It is test code: no
// second run queue ships. message, the network's free list of records
// and the task kinds are shared, since they did not change.

package simnet

import "p2go/internal/engine"

// refQueue is the slice of host that held the run queue.
type refQueue struct {
	queue []simTask
	qhead int // ring head: queue[:qhead] is consumed (and zeroed)
}

// run is the deleted message.run: with it a *message is a task again,
// as the reference queues it.
func (m *message) run(h *host) float64 {
	cost := h.node.HandleMessage(engine.Envelope{Src: m.src.addr, SrcTupleID: m.id, Raw: m.raw})
	h.net.release(m)
	return cost
}

// refDeliver is what deliver and message.fire did with one envelope:
// copy it into a recycled record and queue the record itself.
func (h *refQueue) refDeliver(src *host, env engine.Envelope, sent, at float64) {
	m := src.net.newMessage()
	*m = message{src: src, id: env.SrcTupleID, raw: append(m.raw, env.Raw...), sent: sent}
	h.queue = append(h.queue, simTask{at: at, do: m})
}

// simTask is one queued CPU task plus the virtual time it entered the
// queue, so task start can observe how long it waited (QueueWait).
type simTask struct {
	at float64
	do task
}

// enqueue adds a CPU task to the host's run queue (the kick is the
// caller's).
func (h *refQueue) enqueue(do task, now float64) {
	h.queue = append(h.queue, simTask{at: now, do: do})
}

// Run-queue housekeeping thresholds: the consumed prefix is compacted
// away once it is queueCompactAt slots and at least as long as the live
// rest, and a compaction or drain that leaves the live tasks under a
// quarter of the capacity moves them to an array of twice their number
// (queueMinCap at least) instead, so a join burst's high-water mark goes
// back to the collector.
const (
	queueCompactAt = 64
	queueMinCap    = 64
)

// takeTask pops the queue head. Consumed slots are zeroed and reclaimed
// (head index plus compaction) rather than re-sliced away — a plain
// h.queue = h.queue[1:] would pin every processed task's record in the
// backing array for the host's lifetime.
func (h *refQueue) takeTask() simTask {
	task := h.queue[h.qhead]
	h.queue[h.qhead] = simTask{}
	h.qhead++
	live := len(h.queue) - h.qhead
	if live > 0 && (h.qhead < queueCompactAt || h.qhead < live) {
		return task
	}
	if c := cap(h.queue); c > queueMinCap && live < c/4 {
		h.queue = append(make([]simTask, 0, max(queueMinCap, 2*live)), h.queue[h.qhead:]...)
	} else {
		copy(h.queue, h.queue[h.qhead:])
		clear(h.queue[h.qhead:]) // where the moved tasks were; the prefix was zeroed as it was consumed
		h.queue = h.queue[:live]
	}
	h.qhead = 0
	return task
}

func (h *refQueue) clearQueue() {
	h.queue = nil
	h.qhead = 0
}

// pop is one turn of kick's loop up to the task's run: the depth and
// wait it observes, and the task.
func (h *refQueue) pop(now float64) (task simTask, wait float64, depth int) {
	depth = len(h.queue) - h.qhead
	task = h.takeTask()
	// Queue-wait/depth observation at task start. Pure measurement:
	// no billing, no RNG draws, no event-order effect.
	wait = now - task.at
	if wait < 0 {
		wait = 0
	}
	return task, wait, depth
}
