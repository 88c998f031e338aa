package main

import (
	"encoding/json"
	"os"
	"testing"

	"elsc/internal/kernel"
)

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the workloads and
// metrics the code reports: same names in the same order, same units and
// directions.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i] != (metric{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], m)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestCheckFlagsEveryFailure covers each output check a job must pass.
func TestCheckFlagsEveryFailure(t *testing.T) {
	j := workloads[0].jobs(1)[0]
	good := outcome{ops: 10, settled: 10, want: 10, complete: true}
	if err := check(j, good, &kernel.Stats{}); err != nil {
		t.Fatalf("good outcome rejected: %v", err)
	}
	incomplete := good
	incomplete.complete = false
	short := good
	short.settled = 9
	for name, c := range map[string]struct {
		out outcome
		st  kernel.Stats
	}{
		"incomplete": {incomplete, kernel.Stats{}},
		"short":      {short, kernel.Stats{}},
		"rescue":     {good, kernel.Stats{IdleTickRescues: 1}},
	} {
		if err := check(j, c.out, &c.st); err == nil {
			t.Errorf("%s: not flagged", name)
		}
	}
}
