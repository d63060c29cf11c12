package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// BENCHMARK.json at the repository root must list exactly the metrics
// and workloads this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		var out []string
		for _, x := range list {
			out = append(out, x.Name)
		}
		return out
	}
	var wl []string
	for name := range workloads {
		wl = append(wl, name)
	}
	slices.Sort(wl)
	got := names(spec.Workloads)
	slices.Sort(got)
	if !slices.Equal(got, wl) {
		t.Errorf("workloads %v, program has %v", got, wl)
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, e2eNames) {
		t.Errorf("end_to_end %v, program reports %v", got, e2eNames)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, layerNames) {
		t.Errorf("per_layer %v, program reports %v", got, layerNames)
	}
}
