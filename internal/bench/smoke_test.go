package bench

import "testing"

// TestLoggingOverheadSmoke runs the cheapest full experiment end to end
// (the complete figures are exercised by the root bench_test.go
// benchmarks and cmd/p2bench; they are too slow for the unit suite).
func TestLoggingOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ring build takes ~20s")
	}
	off, on, err := LoggingOverhead(42)
	if err != nil {
		t.Fatal(err)
	}
	if off.CPUPercent <= 0 || on.CPUPercent <= off.CPUPercent {
		t.Errorf("tracing must cost CPU: off=%v on=%v", off, on)
	}
	if on.MemoryMB <= off.MemoryMB {
		t.Errorf("tracing must cost memory: off=%v on=%v", off, on)
	}
	if on.LiveTuples <= off.LiveTuples {
		t.Errorf("tracing must add live trace tuples: off=%v on=%v", off, on)
	}
}

// TestLifecycleSmoke runs the quick lifecycle experiment: two §3.1
// detectors deployed on every ring member, measured, and retired. The
// structural restore and the accounting invariant are hard assertions;
// CPU-back-to-baseline uses the experiment's own noise band.
func TestLifecycleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("21-node ring with install/uninstall cycles")
	}
	res, err := Lifecycle(42, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineCPU <= 0 {
		t.Fatalf("baseline CPU = %v", res.BaselineCPU)
	}
	if res.AccountingErr != "" {
		t.Errorf("accounting invariant violated: %s", res.AccountingErr)
	}
	for _, s := range res.Samples {
		// The before/after subtraction (MarginalCPU) can drown in ring
		// noise for cheap detectors; the engine's own per-query bill is
		// the precise signal and must always show the cost.
		if s.QueryCPU <= 0 {
			t.Errorf("%s: deployed detector billed nothing: %+v", s.Detector, s)
		}
		if s.RuleFires == 0 {
			t.Errorf("%s: no metered rule fires", s.Detector)
		}
		if !s.Restored {
			t.Errorf("%s: uninstall did not restore the dataflow shape", s.Detector)
		}
		if !res.CPURestored(s) {
			t.Errorf("%s: post-uninstall CPU %.3f%% not within noise of baseline %.3f%%",
				s.Detector, s.PostCPU, res.BaselineCPU)
		}
	}
}

// TestAblationDeadGuard pins the §3.1.3 ablation at seed 42: the guarded
// ring heals 25 s after the crash and sees two oscillation events; the
// buggy ring never heals within the 150 s window and oscillates hundreds
// of times. A run is a pure function of its seed, so every number is
// exact.
func TestAblationDeadGuard(t *testing.T) {
	guard, buggy, err := AblationDeadGuard(42)
	if err != nil {
		t.Fatal(err)
	}
	if want := (DeadGuardResult{HealTime: 25, StaleSeconds: 300, Oscillations: 2}); guard != want {
		t.Errorf("guard = %+v, want %+v", guard, want)
	}
	if want := (DeadGuardResult{HealTime: -1, StaleSeconds: 2490, Oscillations: 372}); buggy != want {
		t.Errorf("no guard = %+v, want %+v", buggy, want)
	}
}
