package engine

import (
	"sync"

	"p2go/internal/tuple"
)

// arena is the storage of every tuple a node builds during one task:
// strand heads, periodic triggers, stats rows and the fields decoded from
// an incoming message. A task takes one from arenaPool when it first
// builds a tuple and finishTask clears and returns it, so a tuple.Tuple
// handed out during a task is borrowed until that task ends and whoever
// keeps it copies it (table.Insert, the tracer's memo, the OnWatch
// call). A full block is left to the tuples carved from it and a fresh
// one takes over, so a deep cascade allocates its tuples once, in blocks.
type arena struct{ vals []tuple.Value }

// arenaVals (28 KB) is the block size and the most a pooled arena holds:
// one a wide or hostile message stretched (an arity-64k datagram asks for
// 3.6 MB) is left to the collector. The pool is process-wide because an
// arena is busy only while a task runs; parked on every node it would be
// idle almost always (see dataflow's aggPool).
const arenaVals = 512

var arenaPool = sync.Pool{New: func() any {
	return &arena{vals: make([]tuple.Value, 0, arenaVals)}
}}

// HeadFields implements dataflow.Context: k zeroed values that live until
// the task ends.
func (n *Node) HeadFields(k int) []tuple.Value {
	a := n.taskArena()
	if cap(a.vals)-len(a.vals) < k {
		a.vals = make([]tuple.Value, 0, max(k, arenaVals))
	}
	i := len(a.vals)
	a.vals = a.vals[:i+k]
	return a.vals[i : i+k : i+k]
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

// releaseArena ends the lifetime of every tuple the task built. Clearing
// the used prefix unpins the strings, and makes a keeper that failed to
// copy read nil fields rather than another task's.
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
	arenaPool.Put(a)
}
