package monitor

import (
	"fmt"
	"sort"
	"testing"

	"p2go/internal/chord"
	"p2go/internal/overlog"
	"p2go/internal/simnet"
	"p2go/internal/tuple"
)

// synthNet builds a small network of plain engine nodes (no Chord) all
// running the given programs — used to test detectors against hand-built
// deterministic state.
type synthNet struct {
	t       *testing.T
	sim     *simnet.Sim
	net     *simnet.Network
	watched []chord.WatchedTuple
	errs    []string
}

func newSynthNet(t *testing.T, programs []string, addrs ...string) *synthNet {
	t.Helper()
	s := &synthNet{t: t, sim: simnet.NewSim()}
	s.net = simnet.NewNetwork(s.sim, simnet.Config{
		Seed: 7,
		OnWatch: func(now float64, node string, tp tuple.Tuple) {
			s.watched = append(s.watched, chord.WatchedTuple{At: now, Node: node, T: tp.Clone()})
		},
		OnRuleError: func(now float64, node, ruleID string, err error) {
			s.errs = append(s.errs, fmt.Sprintf("%s/%s: %v", node, ruleID, err))
		},
	})
	for _, a := range addrs {
		n, err := s.net.AddNode(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range programs {
			prog, err := overlog.Parse(p)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := n.InstallProgram(prog); err != nil {
				t.Fatalf("install: %v", err)
			}
		}
	}
	return s
}

func (s *synthNet) inject(addr string, tp tuple.Tuple) {
	s.t.Helper()
	if err := s.net.Inject(addr, tp); err != nil {
		s.t.Fatal(err)
	}
}

func (s *synthNet) count(name string) int {
	n := 0
	for _, w := range s.watched {
		if w.T.Name == name {
			n++
		}
	}
	return n
}

func (s *synthNet) noErrors() {
	s.t.Helper()
	if len(s.errs) > 0 {
		s.t.Fatalf("rule errors: %v", s.errs)
	}
}

// ringTables declares the Chord state the detectors join against, for
// synthetic fixtures.
const ringTables = `
materialize(node, infinity, 1, keys(1)).
materialize(bestSucc, infinity, 1, keys(1)).
materialize(pred, infinity, 1, keys(1)).
`

// seedRing materializes a synthetic ring: each addrs[i] gets
// bestSucc -> addrs[(i+1)%n] and pred -> addrs[(i-1+n)%n].
func (s *synthNet) seedRing(addrs []string) {
	n := len(addrs)
	for i, a := range addrs {
		succ := addrs[(i+1)%n]
		pred := addrs[(i-1+n)%n]
		s.inject(a, tuple.New("node", tuple.Str(a), tuple.ID(chord.NodeID(a))))
		s.inject(a, tuple.New("bestSucc", tuple.Str(a),
			tuple.ID(chord.NodeID(succ)), tuple.Str(succ)))
		s.inject(a, tuple.New("pred", tuple.Str(a),
			tuple.ID(chord.NodeID(pred)), tuple.Str(pred)))
	}
}

// byID sorts addresses into ring (ID) order.
func byID(addrs []string) []string {
	out := append([]string(nil), addrs...)
	sort.Slice(out, func(i, j int) bool {
		return chord.NodeID(out[i]) < chord.NodeID(out[j])
	})
	return out
}

// TestTraversalHealthyRing: on a correctly ordered ring the wrap-around
// traversal (ri2-ri7) completes with exactly one wrap and reports OK.
func TestTraversalHealthyRing(t *testing.T) {
	addrs := byID([]string{"a", "b", "c", "d", "e"})
	s := newSynthNet(t, []string{ringTables, OrderingTraversalRules}, addrs...)
	s.seedRing(addrs)
	s.net.RunFor(1)
	s.inject(addrs[0], tuple.New("orderingEvent", tuple.Str(addrs[0]), tuple.ID(99)))
	s.net.RunFor(5)
	s.noErrors()
	if s.count("orderingOK") != 1 {
		t.Errorf("orderingOK = %d, want 1 (watched: %v)", s.count("orderingOK"), s.watched)
	}
	if s.count("orderingProblem") != 0 {
		t.Errorf("false positive orderingProblem on healthy ring")
	}
}

// TestTraversalMisorderedRing: swapping two adjacent members in the ring
// produces an extra ID wrap-around, which ri6 reports to the initiator.
func TestTraversalMisorderedRing(t *testing.T) {
	ordered := byID([]string{"a", "b", "c", "d", "e"})
	swapped := append([]string(nil), ordered...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	s := newSynthNet(t, []string{ringTables, OrderingTraversalRules}, ordered...)
	s.seedRing(swapped)
	s.net.RunFor(1)
	s.inject(ordered[0], tuple.New("orderingEvent", tuple.Str(ordered[0]), tuple.ID(7)))
	s.net.RunFor(5)
	s.noErrors()
	if s.count("orderingProblem") != 1 {
		t.Errorf("orderingProblem = %d, want 1", s.count("orderingProblem"))
	}
	// The report lands at the initiator with the wrap count.
	for _, w := range s.watched {
		if w.T.Name == "orderingProblem" {
			if w.Node != ordered[0] {
				t.Errorf("problem reported at %s, want initiator %s", w.Node, ordered[0])
			}
			if wraps := w.T.Field(4).AsInt(); wraps == 1 {
				t.Errorf("wrap count = 1 in a problem report")
			}
		}
	}
}

// TestOpportunisticCloserID (ri1): a lookup response bearing an ID
// strictly between the local predecessor and successor flags closerID.
func TestOpportunisticCloserID(t *testing.T) {
	addrs := byID([]string{"a", "b", "c", "d"})
	s := newSynthNet(t, []string{ringTables, OrderingOpportunisticRules}, addrs...)
	s.seedRing(addrs)
	s.net.RunFor(1)
	// A result whose node ID equals addrs[1]'s own ID but under a
	// different address lies strictly inside (pred, succ).
	victim := addrs[1]
	evil := chord.NodeID(victim)
	s.inject(victim, tuple.New("lookupResults", tuple.Str(victim),
		tuple.ID(12345), tuple.ID(evil), tuple.Str("evil"),
		tuple.ID(777), tuple.Str("whoever")))
	s.net.RunFor(2)
	s.noErrors()
	if s.count("closerID") != 1 {
		t.Fatalf("closerID = %d, want 1", s.count("closerID"))
	}
	// A result equal to the successor itself must NOT flag (interval is
	// open).
	succ := addrs[2]
	s.inject(victim, tuple.New("lookupResults", tuple.Str(victim),
		tuple.ID(12345), tuple.ID(chord.NodeID(succ)), tuple.Str(succ),
		tuple.ID(778), tuple.Str("whoever")))
	s.net.RunFor(2)
	if s.count("closerID") != 1 {
		t.Errorf("closerID fired for the successor itself")
	}
}

// TestActiveRingProbeDetectsCorruptPred: corrupting a node's pred makes
// the active probe (rp1-rp3) raise inconsistentPred, because the fake
// predecessor's bestSucc is not the probing node.
func TestActiveRingProbeDetectsCorruptPred(t *testing.T) {
	addrs := byID([]string{"a", "b", "c", "d", "e"})
	s := newSynthNet(t, []string{ringTables, RingProbeRules(2)}, addrs...)
	s.seedRing(addrs)
	s.net.RunFor(10)
	s.noErrors()
	if n := s.count("inconsistentPred"); n != 0 {
		t.Fatalf("healthy ring raised %d inconsistentPred alarms", n)
	}
	if n := s.count("inconsistentSucc"); n != 0 {
		t.Fatalf("healthy ring raised %d inconsistentSucc alarms", n)
	}
	// Corrupt: point addrs[2]'s pred at addrs[0] (whose bestSucc is
	// addrs[1], not addrs[2]).
	s.inject(addrs[2], tuple.New("pred", tuple.Str(addrs[2]),
		tuple.ID(chord.NodeID(addrs[0])), tuple.Str(addrs[0])))
	s.net.RunFor(10)
	s.noErrors()
	if s.count("inconsistentPred") == 0 {
		t.Error("active probe did not flag corrupted pred")
	}
}

// TestPassiveRingCheckOnChord (rp4): on a real converged Chord ring the
// passive check stays quiet; after corrupting a pred it fires without
// any extra probe messages.
func TestPassiveRingCheckOnChord(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 8, Seed: 21,
		ExtraPrograms: []*overlog.Program{RingPassiveProgram()}})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(200)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("ring not converged: %v", bad)
	}
	quiet := 0
	for _, w := range r.Watched {
		if w.T.Name == "inconsistentPred" && w.At > 150 {
			quiet++
		}
	}
	if quiet != 0 {
		t.Errorf("passive check fired %d times on a stable ring", quiet)
	}
	// Corrupt one node's pred (to its successor, which is never the
	// true predecessor on a ring of ≥3); its true predecessor keeps
	// sending stabilizeRequests, which now mismatch.
	victim := "n3"
	wrong := chord.TrueSuccessor(victim, r.Addrs)
	r.Node(victim).HandleLocal(tuple.New("pred", tuple.Str(victim),
		tuple.ID(chord.NodeID(wrong)), tuple.Str(wrong)))
	before := len(r.Watched)
	r.Run(15)
	fired := false
	for _, w := range r.Watched[before:] {
		if w.T.Name == "inconsistentPred" && w.Node == victim {
			fired = true
		}
	}
	if !fired {
		t.Error("passive check did not flag corrupted pred within 15s")
	}
}

// TestOpportunisticCheckOnLiveChord: a byzantine lookup response naming
// a node that should have been the local node's neighbor is flagged by
// ri1 on a real converged ring, piggybacking on normal traffic.
func TestOpportunisticCheckOnLiveChord(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 8, Seed: 33,
		ExtraPrograms: []*overlog.Program{OrderingOpportunisticProgram()}})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(250)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("not converged: %v", bad)
	}
	quiet := 0
	for _, w := range r.Watched {
		if w.T.Name == "closerID" {
			quiet++
		}
	}
	if quiet != 0 {
		t.Fatalf("healthy ring produced %d closerID alarms", quiet)
	}
	// Forge a response claiming an unknown node whose ID falls strictly
	// between n3's predecessor and successor: a correct ring can never
	// produce it.
	victim := "n3"
	evilID := chord.NodeID(victim) - 1
	err = r.Net.Inject(victim, tuple.New("lookupResults",
		tuple.Str(victim), tuple.ID(12345), tuple.ID(evilID),
		tuple.Str("evil"), tuple.ID(777), tuple.Str("evil")))
	if err != nil {
		t.Fatal(err)
	}
	r.Run(5)
	found := false
	for _, w := range r.Watched {
		if w.T.Name == "closerID" && w.Node == victim {
			found = true
			if w.T.Field(2).AsStr() != "evil" {
				t.Errorf("closerID names %v, want evil", w.T)
			}
		}
	}
	if !found {
		t.Error("forged response not flagged by ri1")
	}
}
