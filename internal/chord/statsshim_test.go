package chord

import (
	"fmt"
	"testing"
)

// TestStatsPeriodInert: the stats tables fill when read, so the two
// names kept from periodic publication change nothing. A 21-node ring
// built with RingConfig.StatsPeriod and EnableStatsPublication on every
// node runs exactly as one built without: the same fingerprint, the
// same number of simulator events and the same per-node bill.
// EnableStatsPublication still rejects a non-positive period.
func TestStatsPeriodInert(t *testing.T) {
	if testing.Short() {
		t.Skip("two 21-node 120s rings")
	}
	run := func(period float64) (fp string, events uint64, busy string) {
		r, err := NewRing(RingConfig{N: 21, Seed: 42, StatsPeriod: period})
		if err != nil {
			t.Fatal(err)
		}
		if period > 0 {
			for _, a := range r.Addrs {
				if err := r.Node(a).EnableStatsPublication(period); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.Run(120)
		for _, a := range r.Addrs {
			busy += fmt.Sprintf("%s=%v ", a, r.Node(a).Metrics().BusySeconds)
		}
		return ringFingerprint(r), r.Sim.Executed(), busy
	}
	fpOn, evOn, busyOn := run(10)
	fpOff, evOff, busyOff := run(0)
	if evOn != evOff {
		t.Errorf("simulator events: %d with StatsPeriod 10, %d without", evOn, evOff)
	}
	if busyOn != busyOff {
		t.Errorf("per-node BusySeconds differ:\n  on:  %s\n  off: %s", busyOn, busyOff)
	}
	requireSameRun(t, "StatsPeriod 10|0", fpOn, fpOff)

	r, err := NewRing(RingConfig{N: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, -1} {
		if err := r.Node(r.Addrs[0]).EnableStatsPublication(p); err == nil {
			t.Errorf("EnableStatsPublication(%g) accepted", p)
		}
	}
}
