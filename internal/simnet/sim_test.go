package simnet

import (
	"math"
	"math/rand"
	"testing"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	// Same-time events run FIFO.
	s.At(2, func() { got = append(got, 20) })
	s.Run(10)
	want := []int{1, 2, 20, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if s.Now() != 10 {
		t.Errorf("Now = %v, want 10", s.Now())
	}
}

func TestSimRunBoundary(t *testing.T) {
	s := NewSim()
	fired := 0
	s.At(5, func() { fired++ })
	s.At(5.0001, func() { fired++ })
	s.Run(5)
	if fired != 1 {
		t.Errorf("fired = %d; events at exactly the boundary run, later ones wait", fired)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	if s.NextAt() != 5.0001 {
		t.Errorf("NextAt = %v", s.NextAt())
	}
	s.Run(6)
	if fired != 2 {
		t.Errorf("fired = %d", fired)
	}
}

func TestSimPastSchedulingClamps(t *testing.T) {
	s := NewSim()
	s.Run(10)
	ran := false
	s.At(3, func() { ran = true }) // in the past: clamped to now
	s.Run(10)
	if !ran {
		t.Error("past-scheduled event must run at now")
	}
}

func TestSimAfterAndNesting(t *testing.T) {
	s := NewSim()
	var times []float64
	s.After(1, func() {
		times = append(times, s.Now())
		s.After(2, func() { times = append(times, s.Now()) })
	})
	s.Run(5)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestRunUntilIdle(t *testing.T) {
	s := NewSim()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 5 {
			s.After(1, chain)
		}
	}
	s.After(1, chain)
	if done := s.RunUntilIdle(100); !done || n != 5 {
		t.Errorf("done=%v n=%d", done, n)
	}
	// A runaway chain is bounded by maxEvents.
	var forever func()
	forever = func() { s.After(1, forever) }
	s.After(1, forever)
	if done := s.RunUntilIdle(10); done {
		t.Error("unbounded chain must report not-done")
	}
	if !math.IsInf(NewSim().NextAt(), 1) {
		t.Error("empty sim NextAt must be +Inf")
	}
}

// TestEventHeapOrder drives the scheduler with a seeded random mix of
// single pushes, bursts of up to 100 pushes and pops, on a coarse time
// grid so equal-at runs are common, and checks
// every pop against a reference model: exactly (at, seq) order.
func TestEventHeapOrder(t *testing.T) {
	type pending struct {
		at  float64
		seq uint64
	}
	rng := rand.New(rand.NewSource(20))
	s := NewSim()
	var model []pending
	var fired pending
	var seq uint64
	record := func(at float64) action {
		if at < s.now {
			at = s.now
		}
		seq++
		p := pending{at, seq}
		model = append(model, p)
		return funcAction(func() { fired = p })
	}
	when := func() float64 { return s.now + float64(rng.Intn(4))*0.25 - 0.25 } // sometimes in the past: clamped
	pops := 0
	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			at := when()
			s.at(at, nil, record(at))
		case r < 5:
			for i := 1 + rng.Intn(100); i > 0; i-- {
				at := when()
				s.at(at, nil, record(at))
			}
		default:
			if len(model) == 0 {
				if s.Step() {
					t.Fatal("Step ran an event the model does not hold")
				}
				continue
			}
			min := 0
			for i, p := range model {
				if p.at < model[min].at || p.at == model[min].at && p.seq < model[min].seq {
					min = i
				}
			}
			want := model[min]
			model = append(model[:min], model[min+1:]...)
			if !s.Step() || fired != want || s.now != want.at {
				t.Fatalf("op %d: popped %+v at now=%v, want %+v", op, fired, s.now, want)
			}
			pops++
		}
		if s.Pending() != len(model) {
			t.Fatalf("op %d: %d pending, model holds %d", op, s.Pending(), len(model))
		}
	}
	if pops < 1000 {
		t.Fatalf("weak run: %d pops", pops)
	}
}
