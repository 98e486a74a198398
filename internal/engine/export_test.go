package engine

// Hooks for this package's external tests.

// HoldsTaskState reports whether n holds any task state: an open task or
// a task's arena (its tuples, frames and cascade queue).
func HoldsTaskState(n *Node) bool { return n.arena != nil || n.inTask }

// QueueSnoop captures, while a task runs, the backing array of its
// cascade queue. The function it returns counts the array's slots and
// those that still hold a tuple, for a test to call after the task.
func QueueSnoop(n *Node) func() (slots, held int) {
	q := n.arena.queue[:cap(n.arena.queue)]
	return func() (slots, held int) {
		for _, e := range q {
			if e.t.Name != "" || e.t.Fields != nil || e.src != "" {
				held++
			}
		}
		return len(q), held
	}
}
