// Command bench is the repository's benchmark: it boots a real proxy on a
// loopback listener, drives it from this one process, checks every response
// against the origin's bytes, and prints end-to-end metrics (untraced run) or
// per-layer metrics and a cost budget (traced run). BENCHMARK.json at the
// repository root declares its workloads and metrics; README.md explains them.
//
//	bash bench/run.sh --workload hit_small --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1 --out result.json      # every workload, both runs
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	traceOut string
	compare  bool
	args     []string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed phases (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
	flag.StringVar(&o.out, "out", "", "write every result of this invocation as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans, one JSON object per line, to this file (with every workload: FILE.<workload>)")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()
	o.trace, o.args = trace == 1, flag.Args()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Go      string       `json:"go"`
	NumCPU  int          `json:"nproc"`
	Results []*runResult `json:"results"`
}

func realMain(o options) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(spec, o.args[0], o.args[1])
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{seed: o.seed, seconds: o.seconds, sz: fullSizes(), window: fullWindow, setups: fullSetups, traceOut: o.traceOut}
	file := outFile{Seed: o.seed, Seconds: o.seconds, Go: runtime.Version(), NumCPU: runtime.NumCPU()}
	runOne := func(name string, trace bool) (*runResult, error) {
		c := cfg
		c.trace = trace
		if o.traceOut != "" && o.workload == "" {
			c.traceOut = o.traceOut + "." + name
		}
		res, err := runWorkload(name, c)
		if err != nil {
			return nil, err
		}
		if err := checkDeclared(spec, res); err != nil {
			return nil, err
		}
		printResult(spec, res)
		file.Results = append(file.Results, res)
		return res, nil
	}
	var last *runResult
	if o.workload != "" {
		if !spec.hasWorkload(o.workload) {
			return fmt.Errorf("workload %q is not declared in BENCHMARK.json", o.workload)
		}
		if last, err = runOne(o.workload, o.trace); err != nil {
			return err
		}
	} else {
		for _, w := range spec.Workloads {
			for _, trace := range []bool{false, true} {
				if _, err := runOne(w.Name, trace); err != nil {
					return err
				}
			}
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if last != nil {
		// The driver's contract: one JSON object as the last line.
		fmt.Println(resultLine(spec, last))
	}
	return nil
}

func declared(spec *benchSpec, trace bool) []metricSpec {
	if trace {
		return spec.PerLayer
	}
	return spec.EndToEnd
}

// checkDeclared refuses a result that lacks a declared metric, holds an
// undeclared one, or holds a value that is not a finite number: the program
// and BENCHMARK.json must not drift apart.
func checkDeclared(spec *benchSpec, res *runResult) error {
	want := map[string]bool{}
	for _, ms := range declared(spec, res.Trace) {
		want[ms.Name] = true
		v, ok := res.Metrics[ms.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s is declared in BENCHMARK.json but was not measured", res.Workload, ms.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", res.Workload, ms.Name, v)
		}
	}
	for name := range res.Metrics {
		if !want[name] {
			return fmt.Errorf("%s: metric %s was measured but is not declared in BENCHMARK.json", res.Workload, name)
		}
	}
	return nil
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(spec *benchSpec, res *runResult) string {
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]lineMetric{}}
	for _, ms := range declared(spec, res.Trace) {
		line.Metrics[ms.Name] = lineMetric{res.Metrics[ms.Name], ms.Unit}
	}
	b, _ := json.Marshal(line)
	return string(b)
}

func arrow(better string) string {
	if better == "higher" {
		return "higher is better"
	}
	return "lower is better"
}

func printResult(spec *benchSpec, res *runResult) {
	kind := "untraced run: end-to-end metrics"
	if res.Trace {
		kind = "traced run: per-layer metrics"
	}
	fmt.Printf("== %s (%s) ==\n", res.Workload, kind)
	for _, n := range res.Notes {
		fmt.Printf("   %s\n", n)
	}
	fmt.Printf("   attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, ms := range declared(spec, res.Trace) {
		fmt.Printf("%-34s %16.6g %-7s (%s)\n", ms.Name, res.Metrics[ms.Name], ms.Unit, arrow(ms.Better))
	}
	if len(res.Extras) > 0 {
		fmt.Println("-- harness and workload-specific diagnostics (not in BENCHMARK.json) --")
		ex := append([]namedValue(nil), res.Extras...)
		sort.SliceStable(ex, func(i, j int) bool { return ex[i].Name < ex[j].Name })
		for _, e := range ex {
			fmt.Printf("%-34s %16.6g %s\n", e.Name, e.Value, e.Unit)
		}
	}
	if len(res.Budget) > 0 {
		fmt.Println("-- per-request budget: rows of a path sum to its direct ServeHTTP time --")
		fmt.Printf("%-5s %-20s %10s %12s %10s %7s\n", "path", "layer", "calls/req", "ns/call", "us/req", "share")
		for _, r := range res.Budget {
			fmt.Printf("%-5s %-20s %10.2f %12.0f %10.2f %6.1f%%\n", r.Path, r.Layer, r.CallsPerReq, r.NsPerCall, r.UsPerReq, 100*r.Share)
		}
	}
	fmt.Println(strings.Repeat("-", 60))
}
