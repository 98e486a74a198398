package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and spec.go one
// contract: same workloads, same metrics, same units, directions and
// bounds, same default run length.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, runSeconds = %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in spec", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: JSON %+v, spec {%s %s}", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in JSON, %d in spec", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: JSON %+v, spec %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in JSON, %d in spec", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: JSON %+v, spec %+v", i, j, m)
		}
		if seen[m.Name] {
			t.Errorf("duplicate metric %s", m.Name)
		}
		seen[m.Name] = true
	}
}
