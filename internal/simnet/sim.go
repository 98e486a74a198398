// Package simnet drives P2 nodes with a deterministic discrete-event
// simulation: a virtual clock, per-link FIFO message channels with
// configurable delay and loss, and a single-server CPU model per node
// (tasks queue while a node is busy, so heavy monitoring load shows up as
// superlinear CPU growth exactly as in Figures 6-7 of the paper).
//
// The paper ran 21 P2 processes over UDP on two LAN hosts; this package
// is the substitution DESIGN.md §4 documents. Per-link FIFO delivery
// preserves the ordering assumption of the Chandy-Lamport snapshots
// (§3.3).
package simnet

import "math"

// action is what a scheduled event does when its time comes. Every kind
// of event is a type of its own (network.go: a message arrival, a kick
// retry, a periodic firing, a sweep, an injection; here: a caller's
// func), and each is pointer-shaped or empty, so an event carries it in
// the interface's two words and scheduling one allocates nothing.
type action interface {
	// fire runs the event on h's timeline (nil for an unattributed
	// event) at virtual time at.
	fire(h *host, at float64)
}

// funcAction is the event behind the public Sim.At/After.
type funcAction func()

func (f funcAction) fire(*host, float64) { f() }

// event is one scheduled action. h attributes the event to the simulated
// host whose state it touches, or is nil for unattributed events.
type event struct {
	at  float64
	seq uint64 // tie-break: FIFO among simultaneous events
	h   *host
	do  action
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events by (at, seq). seq is unique
// within a heap, so the order is total.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	e := old[0]
	old[0] = old[n]
	old[n] = event{} // drop the references the vacated slot held
	*h = old[:n]
	h.down(0)
	return e
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	for {
		least := 2*i + 1
		if least >= len(h) {
			return
		}
		if r := least + 1; r < len(h) && h[r].before(&h[least]) {
			least = r
		}
		if !h[least].before(&h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Sim is a discrete-event scheduler with a virtual clock in seconds.
type Sim struct {
	pq       eventHeap
	now      float64
	seq      uint64
	executed uint64
}

// NewSim creates a simulator at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t float64, fn func()) { s.at(t, nil, funcAction(fn)) }

// at schedules a host-attributed event (nil h means unattributed) at
// absolute virtual time t, clamped to now, with the next tie-break seq.
func (s *Sim) at(t float64, h *host, do action) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.pq.push(event{at: t, seq: s.seq, h: h, do: do})
}

// After schedules fn d seconds from now.
func (s *Sim) After(d float64, fn func()) { s.At(s.now+d, fn) }

// Step runs the earliest event; it reports false when none remain.
func (s *Sim) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	e := s.pq.pop()
	s.now = e.at
	s.executed++
	e.do.fire(e.h, e.at)
	return true
}

// Executed returns how many events have run since the simulation
// started — the numerator of the scale benchmark's events/sec curves.
func (s *Sim) Executed() uint64 { return s.executed }

// Run executes events until the virtual clock reaches until (events at
// exactly until still run); afterwards now == until.
func (s *Sim) Run(until float64) {
	for len(s.pq) > 0 && s.pq[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// RunUntilIdle drains every event (use with bounded workloads only).
func (s *Sim) RunUntilIdle(maxEvents int) bool {
	for i := 0; i < maxEvents; i++ {
		if !s.Step() {
			return true
		}
	}
	return false
}

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.pq) }

// NextAt returns the time of the earliest pending event, or +Inf.
func (s *Sim) NextAt() float64 {
	if len(s.pq) == 0 {
		return math.Inf(1)
	}
	return s.pq[0].at
}
