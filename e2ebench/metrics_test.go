package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the program's metric tables and
// the repository's BENCHMARK.json naming the same metrics with the same
// units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		list  []entry
		units map[string]string
	}{{"end_to_end", doc.EndToEnd, endToEndUnits}, {"per_layer", doc.PerLayer, perLayerUnits()}} {
		listed := map[string]bool{}
		for _, m := range c.list {
			listed[m.Name] = true
			if u, ok := c.units[m.Name]; !ok {
				t.Errorf("%s: BENCHMARK.json lists %s, which the program does not report", c.what, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s: %s has unit %s in BENCHMARK.json, %s in the program", c.what, m.Name, m.Unit, u)
			}
		}
		for name := range c.units {
			if !listed[name] {
				t.Errorf("%s: the program reports %s, which BENCHMARK.json does not list", c.what, name)
			}
		}
	}
}

func TestConformFillsOnlyPerLayerMetrics(t *testing.T) {
	m := metrics{"setup_s": {1, "s"}}
	if err := conform(m, endToEndUnits, false); err == nil {
		t.Error("a timed run missing end-to-end metrics conformed")
	}
	m = metrics{"sampling.plan_ms": {3, "ms"}}
	if err := conform(m, perLayerUnits(), true); err != nil {
		t.Fatal(err)
	}
	if len(m) != len(perLayerUnits()) || m["sampling.plan_ms"].Value != 3 || m["service.spill_writes"] != (metric{0, "count"}) {
		t.Errorf("filled per-layer metrics: %v", m)
	}
	if err := conform(metrics{"sampling.plan_ms": {3, "s"}}, perLayerUnits(), true); err == nil {
		t.Error("a metric with the wrong unit conformed")
	}
	if err := conform(metrics{"made_up": {3, "s"}}, perLayerUnits(), true); err == nil {
		t.Error("an unlisted metric conformed")
	}
}
