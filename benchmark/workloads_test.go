package main

import (
	"math"
	"strings"
	"testing"
)

// TestWorkloadsRepeat runs every workload at a tiny size twice in
// process with the same seed. The program's own counts must repeat
// exactly, nothing may fail, and allocations per event must agree
// closely — the property that lets count and memory metrics carry a
// tight bound while timings carry a loose one.
func TestWorkloadsRepeat(t *testing.T) {
	exact := []string{"simnet.events", "engine.rule_fires_per_event", "tracestore.appended"}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				env := &runEnv{seed: 42, tiny: true, spans: newSpanRecorder()}
				res, err := w.run(env)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || len(res.Violations) > 0 {
					t.Fatalf("run %d: ops_failed=%d of %d, violations=%v", i, res.Failed, res.Attempted, res.Violations)
				}
				if res.Attempted < 1 {
					t.Fatalf("run %d attempted no operations", i)
				}
				for _, m := range endToEnd {
					if v := res.E2E[m.Name]; !(v > 0) {
						t.Errorf("run %d: %s = %g, every end-to-end metric must be positive", i, m.Name, v)
					}
				}
				for name := range res.Layer {
					if !knownLayerMetric(name) {
						t.Errorf("run %d reports %s, which spec.go does not list", i, name)
					}
				}
				if res.Slices < slices {
					t.Errorf("run %d: measured phase has %d slices, want at least %d", i, res.Slices, slices)
				}
				runs[i] = res
			}
			// The UDP workload's own work is fixed, but how the kernel
			// batches datagrams is not (identical runs differed by up to
			// 1.7 % in allocations per round trip), so it is held to the
			// metric's 3 % bound and only the simulated workloads to exact
			// counts and 1 % on allocations.
			tol := 0.01
			if w.Name == "udp-collector" {
				tol = 0.03
			} else {
				for _, name := range exact {
					if a, b := runs[0].Layer[name], runs[1].Layer[name]; a != b {
						t.Errorf("%s differs between identical runs: %g vs %g", name, a, b)
					}
				}
			}
			a, b := runs[0].E2E["allocs_per_event"], runs[1].E2E["allocs_per_event"]
			t.Logf("allocs_per_event %g and %g", a, b)
			if math.Abs(a-b) > tol*a {
				t.Errorf("allocs_per_event %g vs %g differ by more than %g%%", a, b, 100*tol)
			}
		})
	}
}

func knownLayerMetric(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

func TestDriverLineHasEveryMetric(t *testing.T) {
	r := newResult("w", &runEnv{seed: 1})
	for _, traced := range []bool{false, true} {
		line := driverLine(r, traced)
		want := endToEnd
		if traced {
			want = perLayer
		}
		for _, m := range want {
			if !strings.Contains(line, `"`+m.Name+`":{`) {
				t.Errorf("traced=%v: driver line lacks %s", traced, m.Name)
			}
		}
	}
}
