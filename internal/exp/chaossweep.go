package exp

import (
	"fmt"
	"os"

	"appx/internal/chaos"
)

// ChaosSweepRow is one schedule's outcome: workload tallies, origin
// fetches, the worst per-instance fill p99, hedge activity, and every oracle
// violation.
type ChaosSweepRow struct {
	Schedule     string
	Requests     int
	Availability float64
	Sheds        int
	Failures     int
	// Origin counts fetches that reached the origin, prefetches included:
	// what the fleet's sharing (peer fill, relay) failed to absorb.
	Origin       int64
	P50Ms        float64
	P99Ms        float64
	FillP99Ms    float64
	Hedges       int64
	HedgeWins    int64
	DiskFaults   int64
	WarmRestores int
	Violations   []chaos.Violation
}

// ChaosSweep runs every builtin fault schedule against a seeded 3-instance
// cluster with the invariant oracle armed, then replays the slow-peer
// schedule with hedging disabled to price what hedged reads buy.
type ChaosSweep struct {
	Seed      int64
	Instances int
	Rows      []ChaosSweepRow

	// HedgedFillP99Ms / UnhedgedFillP99Ms compare the slow-peer schedule's
	// worst fill p99 with hedging on (the builtin run above) and off.
	HedgedFillP99Ms   float64
	UnhedgedFillP99Ms float64
	// UnhedgedViolations carries oracle breaks from the control run (the
	// control must hold the invariants too — it is slower, not broken).
	UnhedgedViolations []chaos.Violation
}

// Violations sums oracle breaks across every run.
func (c *ChaosSweep) Violations() int {
	n := len(c.UnhedgedViolations)
	for _, r := range c.Rows {
		n += len(r.Violations)
	}
	return n
}

// RunChaosSweep replays all builtin schedules and the hedging control run.
func RunChaosSweep(seed int64) (*ChaosSweep, error) {
	if seed == 0 {
		seed = 42
	}
	root, err := os.MkdirTemp("", "appx-chaos-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	out := &ChaosSweep{Seed: seed, Instances: 3}
	for _, sched := range chaos.Schedules() {
		opts := chaos.Options{Seed: seed, Instances: 3}
		if sched.Persist {
			opts.StateRoot = fmt.Sprintf("%s/%s", root, sched.Name)
		}
		rep, err := chaos.Run(opts, sched)
		if err != nil {
			return nil, fmt.Errorf("chaossweep %s: %w", sched.Name, err)
		}
		out.Rows = append(out.Rows, ChaosSweepRow{
			Schedule:     rep.Schedule,
			Requests:     rep.Requests,
			Availability: rep.Availability,
			Sheds:        rep.Sheds,
			Failures:     rep.Failures,
			Origin:       rep.Origin,
			P50Ms:        rep.P50Ms,
			P99Ms:        rep.P99Ms,
			FillP99Ms:    rep.FillP99Ms,
			Hedges:       rep.HedgesLaunched,
			HedgeWins:    rep.HedgeWins,
			DiskFaults:   rep.DiskFaultsInjected,
			WarmRestores: rep.WarmRestores,
			Violations:   rep.Violations,
		})
		if sched.Name == "slowpeer" {
			out.HedgedFillP99Ms = rep.FillP99Ms
		}
	}

	slow, ok := chaos.ScheduleByName("slowpeer")
	if !ok {
		return nil, fmt.Errorf("chaossweep: slowpeer schedule missing")
	}
	control, err := chaos.Run(chaos.Options{Seed: seed, Instances: 3, DisableHedging: true}, slow)
	if err != nil {
		return nil, fmt.Errorf("chaossweep slowpeer control: %w", err)
	}
	out.UnhedgedFillP99Ms = control.FillP99Ms
	out.UnhedgedViolations = control.Violations
	return out, nil
}

// Render formats the schedule table and the hedging comparison.
func (c *ChaosSweep) Render() string {
	rows := make([][]string, 0, len(c.Rows))
	for _, r := range c.Rows {
		verdict := "ok"
		if len(r.Violations) > 0 {
			verdict = fmt.Sprintf("%d VIOLATIONS", len(r.Violations))
		}
		rows = append(rows, []string{
			r.Schedule,
			fmt.Sprintf("%d", r.Requests),
			fmtPct(r.Availability),
			fmt.Sprintf("%d", r.Sheds),
			fmt.Sprintf("%d", r.Failures),
			fmt.Sprintf("%d", r.Origin),
			fmt.Sprintf("%.2f", r.P50Ms),
			fmt.Sprintf("%.2f", r.P99Ms),
			fmt.Sprintf("%.2f", r.FillP99Ms),
			fmt.Sprintf("%d/%d", r.HedgeWins, r.Hedges),
			fmt.Sprintf("%d", r.DiskFaults),
			verdict,
		})
	}
	head := fmt.Sprintf(
		"Chaos sweep (seed %d): seeded fault schedules vs a %d-instance cluster, invariant oracle armed\n"+
			"slow-peer hedging: fill p99 %.2f ms hedged vs %.2f ms unhedged\n"+
			"oracle: %d violations across all runs\n",
		c.Seed, c.Instances, c.HedgedFillP99Ms, c.UnhedgedFillP99Ms, c.Violations())
	out := head + table(
		[]string{"schedule", "requests", "avail", "sheds", "failures", "origin", "p50 ms", "p99 ms", "fill p99 ms", "hedge w/l", "disk faults", "oracle"},
		rows)
	for _, r := range c.Rows {
		for _, v := range r.Violations {
			out += fmt.Sprintf("\n  VIOLATION %s/%s: %s", r.Schedule, v.Invariant, v.Detail)
		}
	}
	for _, v := range c.UnhedgedViolations {
		out += fmt.Sprintf("\n  VIOLATION slowpeer-unhedged/%s: %s", v.Invariant, v.Detail)
	}
	return out
}
