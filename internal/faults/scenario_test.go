package faults_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"p2go/internal/chord"
	"p2go/internal/faults"
	"p2go/internal/tuple"
)

// fingerprint captures per-node metrics, full table contents, and the
// network/fault totals — everything the determinism contract covers.
func fingerprint(r *chord.Ring) string {
	var b strings.Builder
	now := r.Sim.Now()
	for _, a := range r.Addrs {
		n := r.Node(a)
		fmt.Fprintf(&b, "%s metrics=%+v\n", a, n.Metrics())
		st := n.Store()
		names := st.Names()
		sort.Strings(names)
		for _, name := range names {
			var rows []string
			st.Get(name).Scan(now, func(t tuple.Tuple) {
				rows = append(rows, fmt.Sprintf("%v#%d", t, t.ID))
			})
			sort.Strings(rows)
			fmt.Fprintf(&b, "%s/%s(%d): %s\n", a, name, len(rows), strings.Join(rows, " "))
		}
	}
	fmt.Fprintf(&b, "total=%+v dropped=%d faults=%+v now=%v\n",
		r.Net.TotalMetrics(), r.Net.Dropped(), r.Net.FaultTotals(), now)
	return b.String()
}

// kitchenSink exercises every fault kind against a live Chord ring.
// Times are relative to the end of the convergence phase.
const kitchenSink = `
scenario kitchen-sink
at 5 delay n2->n3 0.2 dur 60
at 5 dup n4->* p 0.5 dur 60
at 5 reorder *->n5 p 0.5 dur 60
at 5 drop n3->n4 p 0.3 dur 60
at 10 partition n6-n7 dur 30
at 20 crash n2
at 50 rejoin n2
`

// TestScenarioDeterminism: an injured run is a pure function of its
// seed — two runs are bit-identical, because all fault randomness comes
// from the seeded link streams.
func TestScenarioDeterminism(t *testing.T) {
	sc := faults.MustParse(kitchenSink)
	build := func() string {
		r, err := chord.NewRing(chord.RingConfig{N: 7, Seed: 17, LossProb: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		r.Run(120)
		inj, err := faults.Arm(r.Net, sc.Shift(r.Sim.Now()))
		if err != nil {
			t.Fatal(err)
		}
		r.Run(240)
		stats := inj.Stats()
		if stats.Injected != 12 { // 7 events + 5 auto-reversions
			t.Errorf("injected = %d, want 12", stats.Injected)
		}
		if stats.Crashes != 1 || stats.Rejoins != 1 ||
			stats.Partitions != 1 || stats.Heals != 1 {
			t.Errorf("stats = %+v", stats)
		}
		var log []string
		for _, e := range inj.Log() {
			log = append(log, fmt.Sprintf("t=%.2f %s", e.At, e.What))
		}
		return strings.Join(log, "\n") + "\n" + fingerprint(r)
	}
	first, second := build(), build()
	if first != second {
		i := 0
		for i < len(first) && i < len(second) && first[i] == second[i] {
			i++
		}
		lo := max(0, i-200)
		t.Fatalf("two faulty runs at one seed diverged at byte %d:\n...first:  %q\n...second: %q",
			i, first[lo:min(len(first), i+200)], second[lo:min(len(second), i+200)])
	}
}

// TestArmRejectsBadScenario: Arm validates before scheduling anything.
func TestArmRejectsBadScenario(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := faults.Scenario{Events: []faults.Event{{At: 1, Kind: faults.Crash}}}
	if _, err := faults.Arm(r.Net, bad); err == nil {
		t.Error("Arm accepted a crash event without targets")
	}
}

// TestAutoReversion: a Duration'd fault reverts on schedule — the link
// works again after the window closes.
func TestAutoReversion(t *testing.T) {
	r, err := chord.NewRing(chord.RingConfig{N: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sc := faults.MustParse("at 10 drop n1->n2 p 1 dur 20\nat 10 partition n1-n3 dur 20")
	if _, err := faults.Arm(r.Net, sc); err != nil {
		t.Fatal(err)
	}
	r.Run(15)
	if f := r.Net.GetLinkFault("n1", "n2"); f.DropProb != 1 {
		t.Errorf("fault not active at t=15: %+v", f)
	}
	r.Run(35)
	if f := r.Net.GetLinkFault("n1", "n2"); !f.IsZero() {
		t.Errorf("fault not reverted at t=35: %+v", f)
	}
	ft := r.Net.FaultTotals()
	if ft.Partitions != 1 || ft.Heals != 1 {
		t.Errorf("partition not auto-healed: %+v", ft)
	}
}
