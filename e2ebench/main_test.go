package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestManifest checks that BENCHMARK.json lists exactly the workloads
// and metrics this program reports.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadOrder)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's table:\n%+v\n%+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's table:\n%+v\n%+v", m.PerLayer, perLayer)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs every workload at the reduced smoke scale, untraced
// and traced, with all of its correctness checks.
func TestSmoke(t *testing.T) {
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				e := newEnv(w, 3, 300*time.Millisecond, traced, smokeScale())
				if err := workloads[w](e); err != nil {
					t.Fatal(err)
				}
				res := e.result()
				if !res.Correct {
					t.Fatalf("checks failed: %v", e.errs)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					v := res.Metrics[d.Name].Value
					if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
						t.Errorf("%s = %v", d.Name, v)
					}
				}
				if traced {
					path := filepath.Join(t.TempDir(), "spans.jsonl")
					if err := e.tr.writeFile(path); err != nil {
						t.Fatal(err)
					}
					if e.tr.count() == 0 {
						t.Error("traced run recorded no spans")
					}
				}
			})
		}
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) in
	// Python is [2.75, 5.5, 8.25].
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
