package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"p2go/internal/dataflow"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

// TestExportChromeFlows builds a minimal two-node causal trace by hand
// — rule r1 on nA produces a tuple that rule r2 on nB consumes — and
// checks the export: valid JSON, one complete event per activation,
// and a flow arrow connecting the nodes.
func TestExportChromeFlows(t *testing.T) {
	storeA := table.NewStore()
	trA, err := New(storeA, "nA", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sA := &dataflow.Strand{Plan: &dataflow.Plan{RuleID: "r1", Stages: 0}}
	in := tuple.New("ev", tuple.Str("nA"), tuple.ID(1)).WithID(1)
	out := tuple.New("msg", tuple.Str("nB"), tuple.ID(2)).WithID(2)
	trA.Register(in.ID, in.Name, "nA", 1, "nA", 10)
	trA.Register(out.ID, out.Name, "nA", 2, "nB", 10) // headed to nB
	trA.Input(sA, in, 10)
	trA.Output(sA, out, 10.5)
	trA.TaskDone()

	storeB := table.NewStore()
	trB, err := New(storeB, "nB", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sB := &dataflow.Strand{Plan: &dataflow.Plan{RuleID: "r2", Stages: 0}}
	// nB assigned local ID 7 to the tuple nA sent as its ID 2.
	arrived := tuple.New("msg", tuple.Str("nB"), tuple.ID(2)).WithID(7)
	outB := tuple.New("done", tuple.Str("nB"), tuple.ID(3)).WithID(8)
	trB.Register(arrived.ID, arrived.Name, "nA", 2, "nB", 11)
	trB.Register(outB.ID, outB.Name, "nB", 8, "nB", 11)
	trB.Input(sB, arrived, 11)
	trB.Output(sB, outB, 11.25)
	trB.TaskDone()

	var buf bytes.Buffer
	stats, err := ExportChrome(&buf, []ExportNode{
		{Addr: "nB", Store: storeB, Now: 20}, // unsorted on purpose
		{Addr: "nA", Store: storeA, Now: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RuleExecs != 2 {
		t.Errorf("RuleExecs = %d, want 2", stats.RuleExecs)
	}
	if stats.Flows != 1 {
		t.Errorf("Flows = %d, want 1", stats.Flows)
	}
	if len(stats.FlowNodes) != 2 || stats.FlowNodes[0] != "nA" || stats.FlowNodes[1] != "nB" {
		t.Errorf("FlowNodes = %v, want [nA nB]", stats.FlowNodes)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
	}
	if phases["X"] != 2 || phases["s"] != 1 || phases["f"] != 1 {
		t.Errorf("event phases = %v, want 2 X, 1 s, 1 f", phases)
	}

	// Determinism: a second export of the same state is byte-identical.
	var buf2 bytes.Buffer
	if _, err := ExportChrome(&buf2, []ExportNode{
		{Addr: "nA", Store: storeA, Now: 20},
		{Addr: "nB", Store: storeB, Now: 20},
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("export is not deterministic for equal inputs")
	}
}
