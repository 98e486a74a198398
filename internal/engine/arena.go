package engine

import (
	"sync"

	"p2go/internal/tuple"
)

// arena is the working storage of one task: every tuple the node builds
// (strand heads, periodic triggers, stats rows and the fields decoded
// from an incoming message), the frames its strand activations work in,
// and the cascade queue. A task takes one from arenaPool when it first
// needs one and finishTask clears and returns it, so a node between
// tasks holds no task state, and a tuple.Tuple handed out during a task
// is borrowed until that task ends. Whoever keeps one copies it. The
// engine's one keeper is table.Insert (the tracer's memo keeps an ID and
// a name, no fields); an OnWatch observer is lent its tuple and keeps
// its Clone. A full block of values is left to the tuples and frames
// carved from it and a fresh one takes over, so a deep cascade
// allocates its tuples once, in blocks.
type arena struct {
	vals []tuple.Value
	// queue is the cascade queue, consumed as a ring: queue[:qhead] is
	// already processed (and zeroed), the tail is pending. See drain.
	queue []queued
	qhead int
}

// arenaVals (8 KB) is the block size and the most values a pooled arena
// holds: one a wide or hostile message stretched (an arity-64k datagram
// asks for 1 MB) is left to the collector. arenaQueue (40 KB) likewise
// bounds the queue a pooled arena keeps: a cascade that queued more
// leaves its array to the collector. The pool is process-wide because an
// arena is busy only while a task runs; parked on every node it would be
// idle almost always (see dataflow's aggPool).
const (
	arenaVals  = 512
	arenaQueue = 512
)

var arenaPool = sync.Pool{New: func() any {
	return &arena{vals: make([]tuple.Value, 0, arenaVals)}
}}

// carve returns k zeroed values that live until the task ends.
func (a *arena) carve(k int) []tuple.Value {
	if cap(a.vals)-len(a.vals) < k {
		a.vals = make([]tuple.Value, 0, max(k, arenaVals))
	}
	i := len(a.vals)
	a.vals = a.vals[:i+k]
	return a.vals[i : i+k : i+k]
}

// HeadFields implements dataflow.Context: k zeroed values that live until
// the task ends.
func (n *Node) HeadFields(k int) []tuple.Value { return n.taskArena().carve(k) }

// Frame implements dataflow.Context: an activation's scratch is carved
// from the task's arena like its heads, and goes back with it.
func (n *Node) Frame(k int) []tuple.Value { return n.taskArena().carve(k) }

// enqueue appends q to the task's cascade queue.
func (n *Node) enqueue(q queued) {
	a := n.taskArena()
	a.queue = append(a.queue, q)
}

// decode unmarshals a message's tuple into the arena.
func (a *arena) decode(raw []byte) (tuple.Tuple, error) {
	t, vals, _, err := tuple.UnmarshalAppend(a.vals, raw)
	a.vals = vals
	return t, err
}

func (n *Node) taskArena() *arena {
	if n.arena == nil {
		n.arena = arenaPool.Get().(*arena)
	}
	return n.arena
}

// releaseArena ends the lifetime of every tuple and frame the task built.
// Clearing the used prefix unpins the strings, and makes a keeper that
// failed to copy read nil fields rather than another task's. The queue
// comes back empty and zeroed from drain.
func (n *Node) releaseArena() {
	a := n.arena
	if a == nil {
		return
	}
	n.arena = nil
	if cap(a.vals) > arenaVals {
		return
	}
	clear(a.vals)
	a.vals = a.vals[:0]
	if cap(a.queue) > arenaQueue {
		a.queue = nil
	}
	arenaPool.Put(a)
}
