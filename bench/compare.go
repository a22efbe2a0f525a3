package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readOutFile(path string) (*outFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *outFile) untraced(workload string) *runResult {
	for _, r := range f.Results {
		if r.Workload == workload && !r.Trace {
			return r
		}
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, A, B, the change
// in the metric's worse direction as a share of A, the bound, and a verdict:
// "worse" when B is worse than A by more than the bound, "ok" otherwise. One
// run a side cannot resolve a change smaller than the run-to-run spread, so a
// change within the bound in either direction reads "ok", and a metric a file
// lacks reads "unresolved".
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	a, err := readOutFile(pathA)
	if err != nil {
		return err
	}
	b, err := readOutFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A = %s (seed %d, %s)   B = %s (seed %d, %s)\n", pathA, a.Seed, a.Go, pathB, b.Seed, b.Go)
	fmt.Printf("%-15s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	worse := 0
	for _, w := range spec.Workloads {
		ra, rb := a.untraced(w.Name), b.untraced(w.Name)
		for _, ms := range spec.EndToEnd {
			if ra == nil || rb == nil {
				fmt.Printf("%-15s %-14s %14s %14s %9s %6.0f%%  unresolved (no untraced run in both files)\n", w.Name, ms.Name, "-", "-", "-", 100*ms.Bound)
				continue
			}
			va, okA := ra.Metrics[ms.Name]
			vb, okB := rb.Metrics[ms.Name]
			if !okA || !okB || va == 0 {
				fmt.Printf("%-15s %-14s %14.6g %14.6g %9s %6.0f%%  unresolved\n", w.Name, ms.Name, va, vb, "-", 100*ms.Bound)
				continue
			}
			delta := (vb - va) / va
			if ms.Better == "higher" {
				delta = -delta
			}
			verdict := "ok"
			if delta > ms.Bound {
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-15s %-14s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", w.Name, ms.Name, va, vb, 100*delta, 100*ms.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
