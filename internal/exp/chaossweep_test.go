package exp

import "testing"

// TestChaosSweepAcceptance pins the sweep's acceptance bars: at least four
// distinct seeded schedules run against the 3-instance cluster with zero
// oracle violations and >= 99% availability (sheds excluded); the slow-peer
// schedule's misses are absorbed by peer fill, so at most a quarter of its
// requests reach the origin; and hedged reads beat the unhedged control on
// fill p99. The margin is the injected 100ms stall, so the comparison holds
// under -race despite its slowdown.
func TestChaosSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance chaos experiment")
	}
	res, err := RunChaosSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("only %d schedules ran, want >= 4", len(res.Rows))
	}
	if n := res.Violations(); n != 0 {
		t.Fatalf("%d oracle violations:\n%s", n, res.Render())
	}
	seen := map[string]ChaosSweepRow{}
	for _, r := range res.Rows {
		seen[r.Schedule] = r
		if r.Requests == 0 {
			t.Fatalf("%s: no workload driven", r.Schedule)
		}
		if r.Failures != 0 {
			t.Fatalf("%s: %d foreground failures", r.Schedule, r.Failures)
		}
		if r.Availability < 0.99 {
			t.Fatalf("%s: availability %.4f, acceptance bar is 0.99", r.Schedule, r.Availability)
		}
	}
	if df, ok := seen["diskfault"]; !ok || df.DiskFaults == 0 {
		t.Fatalf("diskfault schedule injected nothing: %+v", seen["diskfault"])
	}
	if sp, ok := seen["slowpeer"]; !ok || sp.Hedges == 0 || sp.HedgeWins == 0 {
		t.Fatalf("slowpeer schedule launched no winning hedges: %+v", seen["slowpeer"])
	}
	if sp := seen["slowpeer"]; 4*sp.Origin > int64(sp.Requests) {
		t.Fatalf("slowpeer: %d of %d requests reached the origin, want at most a quarter (peer fill absorbs them)",
			sp.Origin, sp.Requests)
	}
	if res.HedgedFillP99Ms <= 0 || res.UnhedgedFillP99Ms <= 0 {
		t.Fatalf("fill p99 missing: hedged %.2f, unhedged %.2f", res.HedgedFillP99Ms, res.UnhedgedFillP99Ms)
	}
	if res.HedgedFillP99Ms >= res.UnhedgedFillP99Ms {
		t.Fatalf("hedged fill p99 %.2f ms did not beat unhedged %.2f ms",
			res.HedgedFillP99Ms, res.UnhedgedFillP99Ms)
	}
}
