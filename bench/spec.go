package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric declared in BENCHMARK.json. Bound is the share of
// the baseline's median an end-to-end metric may worsen by; per-layer metrics
// carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the single declaration of workload and
// metric names, units, directions and bounds: the program reads it at start
// and refuses to report a run that does not produce every declared metric.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent:
// run.sh runs the program from the checkout root, `go test` from bench/.
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, c := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(c)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", lastErr)
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
