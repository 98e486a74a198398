package monitor

import (
	"testing"

	"p2go/internal/chord"
	"p2go/internal/faults"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// oscillTables declares the Chord state os1-os9 join against, for
// synthetic fixtures.
const oscillTables = `
materialize(faultyNode, 300, 16, keys(2)).
materialize(sink, infinity, 1, keys(1)).
materialize(succ, infinity, 16, keys(2)).
materialize(pred, infinity, 1, keys(1)).
`

// TestSingleAndRepeatOscillation drives os1-os4 synthetically: three
// successor-insertion messages carrying a recently deceased neighbor
// within the 120 s window produce three oscill records and, at the next
// 60 s count, a repeatOscill declaration.
func TestSingleAndRepeatOscillation(t *testing.T) {
	s := newSynthNet(t, []string{oscillTables, OscillationRules}, "n1")
	s.inject("n1", tuple.New("faultyNode", tuple.Str("n1"), tuple.Str("x"), tuple.Float(1)))
	s.net.RunFor(1)
	// Two sendPred and one returnSucc carrying the deceased "x".
	for i, name := range []string{"sendPred", "returnSucc", "sendPred"} {
		s.inject("n1", tuple.New(name, tuple.Str("n1"),
			tuple.ID(uint64(100+i)), tuple.Str("x")))
		s.net.RunFor(2)
	}
	// A message carrying a healthy neighbor must not count.
	s.inject("n1", tuple.New("sendPred", tuple.Str("n1"), tuple.ID(5), tuple.Str("y")))
	s.net.RunFor(70) // let the 60 s counting rule os3 fire
	s.noErrors()
	if got := s.count("oscill"); got != 3 {
		t.Errorf("oscill events = %d, want 3", got)
	}
	if got := s.count("repeatOscill"); got < 1 {
		t.Errorf("repeatOscill = %d, want >= 1", got)
	}
	for _, w := range s.watched {
		if w.T.Name == "repeatOscill" && w.T.Field(1).AsStr() != "x" {
			t.Errorf("repeat oscillator = %v, want x", w.T)
		}
	}
}

// TestBelowThresholdNoRepeat: two oscillations stay below the threshold
// of three (os4).
func TestBelowThresholdNoRepeat(t *testing.T) {
	s := newSynthNet(t, []string{oscillTables, OscillationRules}, "n1")
	s.inject("n1", tuple.New("faultyNode", tuple.Str("n1"), tuple.Str("x"), tuple.Float(1)))
	for i := 0; i < 2; i++ {
		s.inject("n1", tuple.New("sendPred", tuple.Str("n1"),
			tuple.ID(uint64(i)), tuple.Str("x")))
	}
	s.net.RunFor(70)
	s.noErrors()
	if got := s.count("repeatOscill"); got != 0 {
		t.Errorf("repeatOscill = %d, want 0 below threshold", got)
	}
}

// TestCollaborativeChaotic drives os5-os9: four ring neighbors each
// declare the same repeat oscillator and notify their common successor
// "m"; with more than three distinct reporters, m declares the offender
// chaotic.
func TestCollaborativeChaotic(t *testing.T) {
	reporters := []string{"r1", "r2", "r3", "r4"}
	all := append(append([]string{}, reporters...), "m")
	s := newSynthNet(t, []string{oscillTables, OscillationRules}, all...)
	// Every reporter has m as a successor; m itself reports too (os5
	// also inserts locally at each reporter, but those live on the
	// reporters, not on m).
	for _, rep := range reporters {
		s.inject(rep, tuple.New("succ", tuple.Str(rep),
			tuple.ID(chord.NodeID("m")), tuple.Str("m")))
		s.inject(rep, tuple.New("pred", tuple.Str(rep), tuple.Int(0), tuple.Str("-")))
		s.inject(rep, tuple.New("faultyNode", tuple.Str(rep), tuple.Str("x"), tuple.Float(1)))
	}
	s.net.RunFor(1)
	for _, rep := range reporters {
		for i := 0; i < 3; i++ {
			s.inject(rep, tuple.New("sendPred", tuple.Str(rep),
				tuple.ID(uint64(i)), tuple.Str("x")))
			s.net.RunFor(1)
		}
	}
	s.net.RunFor(70)
	s.noErrors()
	chaoticAtM := 0
	for _, w := range s.watched {
		if w.T.Name == "chaotic" && w.Node == "m" {
			chaoticAtM++
			if w.T.Field(1).AsStr() != "x" {
				t.Errorf("chaotic offender = %v, want x", w.T)
			}
		}
	}
	if chaoticAtM == 0 {
		t.Error("m did not declare the offender chaotic with 4 reporters")
	}
}

// TestOscillationOnBuggyChord is the end-to-end §3.1.3 scenario: a Chord
// ring built WITHOUT the dead-neighbor guard recycles a crashed node
// through gossip, and the deployed detector observes the oscillations.
func TestOscillationOnBuggyChord(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 8, Seed: 13, Buggy: true,
		ExtraPrograms: []*overlog.Program{OscillationProgram()}})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(200)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("buggy ring did not converge while healthy: %v", bad)
	}
	if _, err := r.RunFaults(faults.MustParse("at 0 crash n5"), 120, nil); err != nil {
		t.Fatal(err)
	}
	oscills := 0
	for _, w := range r.Watched {
		if w.T.Name == "oscill" && w.T.Field(1).AsStr() == "n5" {
			oscills++
		}
	}
	if oscills == 0 {
		t.Error("no oscillations observed for the crashed neighbor on buggy Chord")
	}
}

// TestGuardedChordSuppressesRecycling is the §3.1.3 counterpoint: the
// corrected implementation (remembering deceased neighbors) keeps the
// dead node out of routing state, so the ring heals where the buggy
// variant oscillates (see also bench.AblationDeadGuard).
func TestGuardedChordSuppressesRecycling(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 8, Seed: 13,
		ExtraPrograms: []*overlog.Program{OscillationProgram()}})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(200)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("not converged: %v", bad)
	}
	rep, err := r.RunFaults(faults.MustParse("at 0 crash n5"), 120, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("guarded ring did not heal: %v", rep.Violations)
	}
	// No repeat oscillator should be declared on the guarded variant.
	for _, w := range r.Watched {
		if w.T.Name == "repeatOscill" {
			t.Errorf("guarded ring declared a repeat oscillator: %v", w.T)
		}
	}
}

// TestBuggyChordOscillatesPersistently is the matching positive case: on
// the amnesiac variant a crashed neighbor keeps being recycled, and the
// os3/os4 threshold detector declares a repeat oscillator.
func TestBuggyChordOscillatesPersistently(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 8, Seed: 13, Buggy: true,
		ExtraPrograms: []*overlog.Program{OscillationProgram()}})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(200)
	if bad := r.CheckRing(r.Addrs); len(bad) > 0 {
		t.Fatalf("buggy ring did not converge while healthy: %v", bad)
	}
	if _, err := r.RunFaults(faults.MustParse("at 0 crash n5"), 150, nil); err != nil {
		t.Fatal(err)
	}
	oscills, repeats := 0, 0
	for _, w := range r.Watched {
		switch w.T.Name {
		case "oscill":
			if w.T.Field(1).AsStr() == "n5" {
				oscills++
			}
		case "repeatOscill":
			repeats++
		}
	}
	if oscills < 3 {
		t.Errorf("oscill events = %d, want >= 3", oscills)
	}
	if repeats == 0 {
		t.Error("no repeat oscillator declared on the buggy variant")
	}
}
