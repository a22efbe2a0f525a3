// Command appx-bench regenerates the tables and figures of the paper's
// evaluation (§6) against the emulated testbed.
//
// Usage:
//
//	appx-bench                         # everything, default parameters
//	appx-bench -experiment fig13       # one experiment
//	appx-bench -users 30 -duration 3m  # the full-size user study
//
// Experiments: table1 table2 table3 fig11 fig12 fig13 fig14 fig15 fig16
// fig17 ablation mech faultsweep cachesweep overload warmstart
// clustersweep chaossweep stream all. The stream experiment additionally
// writes machine-readable results to BENCH_stream.json in the working
// directory.
//
// With -admin it is an operator client instead: it fetches the typed
// /appx/v1/{stats,health,spans} views from a running appx-proxy and renders
// a one-page summary:
//
//	appx-bench -admin http://127.0.0.1:8080 -admin-spans 20
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"appx/internal/exp"
)

func main() {
	var (
		which     = flag.String("experiment", "all", "experiment to run")
		scale     = flag.Float64("scale", 0.2, "emulated time scale (1 = paper-real)")
		runs      = flag.Int("runs", 5, "microbenchmark repetitions per app")
		users     = flag.Int("users", 8, "user-study participants")
		duration  = flag.Duration("duration", 3*time.Minute, "per-user session length")
		think     = flag.Float64("think-speed", 10, "extra think-time compression")
		events    = flag.Int("fuzz-events", 400, "fuzzing events for Table 3")
		seed      = flag.Int64("seed", 42, "random seed")
		chaosSeed = flag.Int64("chaos-seed", 0, "chaossweep fault-schedule seed (0 = -seed); a fixed seed replays the same fault pattern")

		admin      = flag.String("admin", "", "base URL of a running appx-proxy; render its /appx/v1 admin views instead of running experiments")
		adminSpans = flag.Int("admin-spans", 10, "recent spans to fetch in -admin mode")
	)
	flag.Parse()

	if *admin != "" {
		if err := runAdmin(*admin, *adminSpans, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "appx-bench:", err)
			os.Exit(1)
		}
		return
	}

	p := exp.Params{
		Scale:         *scale,
		Runs:          *runs,
		Users:         *users,
		TraceDuration: *duration,
		ThinkSpeed:    *think,
		FuzzEvents:    *events,
		Seed:          *seed,
	}

	cs := *chaosSeed
	if cs == 0 {
		cs = *seed
	}
	if err := run(*which, p, cs); err != nil {
		fmt.Fprintln(os.Stderr, "appx-bench:", err)
		os.Exit(1)
	}
}

func run(which string, p exp.Params, chaosSeed int64) error {
	sel := map[string]bool{}
	for _, w := range strings.Split(which, ",") {
		sel[strings.TrimSpace(w)] = true
	}
	want := func(name string) bool { return sel["all"] || sel[name] }
	section := func(s string) { fmt.Println(s); fmt.Println() }

	if want("table1") {
		section(exp.RunTable1().Render())
	}
	if want("table2") {
		section(exp.RunTable2().Render())
	}
	if want("table3") {
		res, err := exp.RunTable3(p)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("fig11") {
		res, err := exp.RunFig11()
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("fig12") {
		res, err := exp.RunFig12()
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("fig13") {
		res, err := exp.RunFig13(p)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("fig14") {
		res, err := exp.RunFig14(p)
		if err != nil {
			return err
		}
		section(res.Render())
	}

	var sweep *exp.RTTSweep
	if want("fig15") || want("fig16") {
		var err error
		sweep, err = exp.RunFig15(p, nil)
		if err != nil {
			return err
		}
	}
	if want("fig15") {
		section(sweep.Render())
	}
	if want("fig16") {
		res, err := exp.RunFig16(p, sweep, nil)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("fig17") {
		res, err := exp.RunFig17(p, nil)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("ablation") {
		res, err := exp.RunAblation()
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("mech") {
		res, err := exp.RunMechAblation(p)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("faultsweep") {
		res, err := exp.RunFaultSweep(p.Seed, nil)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("cachesweep") {
		res, err := exp.RunCacheSweep(p.Seed, nil)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("overload") {
		res, err := exp.RunOverload(p.Seed, nil)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("warmstart") {
		res, err := exp.RunWarmStart(p.Seed)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("clustersweep") {
		res, err := exp.RunClusterSweep(p.Seed)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("chaossweep") {
		res, err := exp.RunChaosSweep(chaosSeed)
		if err != nil {
			return err
		}
		section(res.Render())
	}
	if want("stream") {
		res, err := exp.RunStreamBench(p.Seed)
		if err != nil {
			return err
		}
		section(res.Render())
		if err := res.WriteJSON("BENCH_stream.json"); err != nil {
			return err
		}
		fmt.Println("wrote BENCH_stream.json")
		fmt.Println()
	}
	return nil
}
