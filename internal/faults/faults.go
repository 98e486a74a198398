// Package faults is the deterministic fault-injection and churn
// subsystem: declarative scenarios of node crashes and restarts (with
// soft-state loss), network partitions, per-link delay jitter, message
// duplication, reordering, and targeted drops, scheduled as first-class
// virtual-time events on the simnet scheduler.
//
// The paper's monitors (§3.1) exist to catch a misbehaving overlay;
// this package is what makes the overlay misbehave, on purpose and
// reproducibly. Every fault event is armed as an UNATTRIBUTED scheduler
// event: the fault mutates shared network state (down flags, partition
// table, link faults) between two hosts' events, never inside one, and
// the per-message fault randomness comes from the sender-owned link RNG
// streams. A faulty run is therefore a pure function of its seed — the
// determinism contract of the healthy network extends to injured ones
// (enforced by TestScenarioDeterminism here and
// chord.TestChurnDeterminism21).
//
// Scenarios are plain Go values (Scenario/Event) or a tiny text format
// (see Parse) loadable by cmd/p2bench and cmd/p2chord.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"p2go/internal/metrics"
	"p2go/internal/simnet"
)

// Kind identifies a fault event type.
type Kind string

const (
	// Crash fail-stops the target nodes.
	Crash Kind = "crash"
	// Restart revives crashed nodes with their state intact
	// (restart-with-disk).
	Restart Kind = "restart"
	// Rejoin revives crashed nodes as fresh processes: soft state is
	// lost and the engine preamble replays (restart-with-amnesia).
	Rejoin Kind = "rejoin"
	// Partition severs both directions between each link's endpoints;
	// Heal restores them. Duration > 0 heals automatically.
	Partition Kind = "partition"
	// Heal removes a partition.
	Heal Kind = "heal"
	// Delay adds uniform [0, Event.Delay) seconds of jitter to every
	// message on the target links.
	Delay Kind = "delay"
	// Duplicate duplicates each message with probability Event.Prob.
	Duplicate Kind = "dup"
	// Reorder exempts each message from the per-link FIFO clamp with
	// probability Event.Prob, so it may overtake or be overtaken.
	Reorder Kind = "reorder"
	// Drop kills each message with probability Event.Prob (on top of
	// the network's base loss).
	Drop Kind = "drop"
)

// Event is one scheduled fault.
type Event struct {
	// At is the absolute virtual time (seconds) the fault applies.
	At float64
	// Kind selects the fault type.
	Kind Kind
	// Nodes are the targets of node-lifecycle faults (Crash, Restart,
	// Rejoin).
	Nodes []string
	// Links are the targets of link faults and partitions. For
	// Partition/Heal each pair is bidirectional; for the message-level
	// faults it is the directed link src->dst, and either endpoint may
	// be the wildcard "*".
	Links [][2]string
	// Prob is the per-message probability for Drop, Duplicate, Reorder.
	Prob float64
	// Delay is the jitter bound in seconds for Kind Delay.
	Delay float64
	// Duration, when > 0, automatically reverts the fault at
	// At+Duration: partitions heal, link faults clear. Ignored for
	// node-lifecycle faults (schedule an explicit Restart/Rejoin).
	Duration float64
}

// Scenario is a named, ordered set of fault events.
type Scenario struct {
	Name   string
	Events []Event
}

// Validate checks a scenario for malformed events.
func (s Scenario) Validate() error {
	for i, ev := range s.Events {
		where := fmt.Sprintf("faults: event %d (%s at t=%g)", i, ev.Kind, ev.At)
		if ev.At < 0 {
			return fmt.Errorf("%s: negative time", where)
		}
		switch ev.Kind {
		case Crash, Restart, Rejoin:
			if len(ev.Nodes) == 0 {
				return fmt.Errorf("%s: needs target nodes", where)
			}
		case Partition, Heal:
			if len(ev.Links) == 0 {
				return fmt.Errorf("%s: needs target links", where)
			}
		case Drop, Duplicate, Reorder:
			if len(ev.Links) == 0 {
				return fmt.Errorf("%s: needs target links", where)
			}
			if ev.Prob <= 0 || ev.Prob > 1 {
				return fmt.Errorf("%s: probability %g outside (0, 1]", where, ev.Prob)
			}
		case Delay:
			if len(ev.Links) == 0 {
				return fmt.Errorf("%s: needs target links", where)
			}
			if ev.Delay <= 0 {
				return fmt.Errorf("%s: needs a positive delay bound", where)
			}
		default:
			return fmt.Errorf("%s: unknown kind", where)
		}
		if ev.Duration < 0 {
			return fmt.Errorf("%s: negative duration", where)
		}
	}
	return nil
}

// Shift returns a copy of the scenario with every event time (and
// nothing else) offset by d seconds — scenarios are usually authored
// relative to a "start churn" instant and shifted past a convergence
// phase.
func (s Scenario) Shift(d float64) Scenario {
	out := Scenario{Name: s.Name, Events: make([]Event, len(s.Events))}
	copy(out.Events, s.Events)
	for i := range out.Events {
		out.Events[i].At += d
	}
	return out
}

// Applied is one log entry of the injector: what was done and when,
// with the kind and target nodes a reader of membership needs.
type Applied struct {
	At    float64
	What  string
	Kind  Kind
	Nodes []string
}

// Injector owns an armed scenario: it counts the events it applies and
// keeps a virtual-time log of them (the forensic record a post-mortem
// query would start from).
type Injector struct {
	net     *simnet.Network
	applied int64
	log     []Applied
}

// Arm validates the scenario and schedules every event (plus the
// automatic reversion of events with a Duration) on the network's
// scheduler as unattributed events. Call before Run; events in the past
// are clamped to now by the scheduler.
func Arm(net *simnet.Network, sc Scenario) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{net: net}
	sim := net.Sim()
	for _, ev := range sc.Events {
		ev := ev
		sim.At(ev.At, func() { inj.apply(ev) })
		if ev.Duration > 0 {
			switch ev.Kind {
			case Partition:
				rev := Event{At: ev.At + ev.Duration, Kind: Heal, Links: ev.Links}
				sim.At(rev.At, func() { inj.apply(rev) })
			case Delay, Duplicate, Reorder, Drop:
				rev := ev // same kind/links/magnitude: apply() subtracts it
				rev.At = ev.At + ev.Duration
				rev.Duration = -1 // marks the reversion pass
				sim.At(rev.At, func() { inj.apply(rev) })
			}
		}
	}
	return inj, nil
}

// apply executes one fault event. It runs as an unattributed scheduler
// event, i.e. in driver context with no worker running.
func (inj *Injector) apply(ev Event) {
	inj.applied++
	now := inj.net.Sim().Now()
	revert := ev.Duration < 0
	switch ev.Kind {
	case Crash:
		for _, a := range ev.Nodes {
			inj.net.Crash(a)
		}
	case Restart:
		for _, a := range ev.Nodes {
			inj.net.Revive(a)
		}
	case Rejoin:
		for _, a := range ev.Nodes {
			inj.net.Rejoin(a)
		}
	case Partition:
		for _, l := range ev.Links {
			inj.net.Partition(l[0], l[1])
		}
	case Heal:
		for _, l := range ev.Links {
			inj.net.Heal(l[0], l[1])
		}
	case Delay, Duplicate, Reorder, Drop:
		for _, l := range ev.Links {
			f := inj.net.GetLinkFault(l[0], l[1])
			switch ev.Kind {
			case Delay:
				if revert {
					f.ExtraDelay = 0
				} else {
					f.ExtraDelay = ev.Delay
				}
			case Duplicate:
				if revert {
					f.DupProb = 0
				} else {
					f.DupProb = ev.Prob
				}
			case Reorder:
				if revert {
					f.ReorderProb = 0
				} else {
					f.ReorderProb = ev.Prob
				}
			case Drop:
				if revert {
					f.DropProb = 0
				} else {
					f.DropProb = ev.Prob
				}
			}
			inj.net.SetLinkFault(l[0], l[1], f)
		}
	}
	inj.log = append(inj.log, Applied{At: now, What: describe(ev, revert), Kind: ev.Kind, Nodes: ev.Nodes})
}

func describe(ev Event, revert bool) string {
	var b strings.Builder
	if revert {
		b.WriteString("clear ")
	}
	b.WriteString(string(ev.Kind))
	if len(ev.Nodes) > 0 {
		b.WriteString(" " + strings.Join(ev.Nodes, ","))
	}
	for _, l := range ev.Links {
		fmt.Fprintf(&b, " %s->%s", l[0], l[1])
	}
	if ev.Prob > 0 {
		fmt.Fprintf(&b, " p=%g", ev.Prob)
	}
	if ev.Delay > 0 {
		fmt.Fprintf(&b, " delay=%gs", ev.Delay)
	}
	return b.String()
}

// Log returns the applied-event log in virtual-time order.
func (inj *Injector) Log() []Applied {
	out := make([]Applied, len(inj.log))
	copy(out, inj.log)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Stats merges the network's fault counters with the injector's applied
// count.
func (inj *Injector) Stats() metrics.Faults {
	total := inj.net.FaultTotals()
	total.Injected = inj.applied
	return total
}
