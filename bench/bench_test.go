package main

import (
	"encoding/json"
	"math"
	"testing"
)

// TestSmoke runs every workload BENCHMARK.json declares, untraced and traced,
// at smoke-test sizes, and checks that each run reports exactly the declared
// metrics, each finite and in its declared unit — so the program and the
// declaration cannot drift apart — and that every response was verified.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json declares %d workloads, %d end-to-end and %d per-layer metrics",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	// session_replay mostly sleeps on emulated delays, so its two runs start
	// now and go on beside the loopback runs, which take their turns: they
	// would push each other off their intended paths on two cores.
	type finished struct {
		res *runResult
		err error
	}
	run := func(name string, trace bool) finished {
		cfg := runConfig{seed: 7, seconds: 0.4, trace: trace, sz: shortSizes(), short: true, window: shortWindow, setups: 1}
		res, err := runWorkload(name, cfg)
		return finished{res, err}
	}
	replays := map[bool]chan finished{false: make(chan finished, 1), true: make(chan finished, 1)}
	for trace, ch := range replays {
		go func() { ch <- run("session_replay", trace) }()
	}
	var names []string // the declared workloads, session_replay last
	for _, w := range spec.Workloads {
		if w.Name != "session_replay" {
			names = append(names, w.Name)
		}
	}
	names = append(names, "session_replay")
	if len(names) != len(spec.Workloads) {
		t.Fatal("BENCHMARK.json does not declare session_replay")
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			kind := map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name+kind, func(t *testing.T) {
				var r finished
				if name == "session_replay" {
					r = <-replays[trace]
				} else {
					r = run(name, trace)
				}
				if r.err != nil {
					t.Fatal(r.err)
				}
				checkSmoke(t, spec, r.res)
			})
		}
	}
}

func checkSmoke(t *testing.T, spec *benchSpec, res *runResult) {
	if err := checkDeclared(spec, res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, %d of %d failed; notes %v", res.Correct, res.Failed, res.Attempted, res.Notes)
	}
	var line struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(resultLine(spec, res)), &line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	want := declared(spec, res.Trace)
	if len(line.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, BENCHMARK.json declares %d", len(line.Metrics), len(want))
	}
	for _, ms := range want {
		got, ok := line.Metrics[ms.Name]
		switch {
		case !ok:
			t.Errorf("%s missing from the result line", ms.Name)
		case got.Unit != ms.Unit:
			t.Errorf("%s has unit %q, declared %q", ms.Name, got.Unit, ms.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s = %v", ms.Name, got.Value)
		case !res.Trace && got.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must be positive", ms.Name, got.Value)
		}
	}
}
