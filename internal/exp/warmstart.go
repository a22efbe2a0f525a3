package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"appx/internal/httpmsg"
	"appx/internal/persist"
	"appx/internal/proxy"
	"appx/internal/sig"
)

// WarmStartRow is one post-restart batch (one user session: feed open plus
// full catalog consumption) with the cache hit ratio that batch saw under
// each restart mode.
type WarmStartRow struct {
	Batch int
	// Warm: intact snapshot + disk tier on the same state directory.
	// Corrupt: every snapshot rung overwritten with garbage (cold start,
	// counted). Cold: fresh empty state directory (first boot).
	Warm, Corrupt, Cold float64
}

// WarmStart measures crash-recovery quality: the same trained proxy is
// "killed" (snapshot + flushed spill queue, no graceful handover) and
// restarted three ways. The warm restart should recover the pre-kill steady
// state almost immediately; the corrupt restart must degrade to exactly the
// cold curve — never to an error.
type WarmStart struct {
	Seed int64
	// SteadyState is the pre-kill hit ratio of a fully warmed user session.
	SteadyState float64
	// Outcome per restart mode, as reported by the proxy ("restored",
	// "failed", "cold").
	WarmOutcome, CorruptOutcome, ColdOutcome string
	// RecoveredPct is the first post-restart batch's warm hit ratio over the
	// pre-kill steady state — the issue's ≥80% acceptance criterion.
	RecoveredPct float64
	Rows         []WarmStartRow
}

const warmstartBatches = 4

// RunWarmStart runs the experiment. Deterministic: frozen clock, fixed
// catalog, and a single prefetch worker per proxy.
func RunWarmStart(seed int64) (*WarmStart, error) {
	if seed == 0 {
		seed = 42
	}
	out := &WarmStart{Seed: seed}

	root, err := os.MkdirTemp("", "appx-warmstart-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Three identically trained state directories, then three restart modes.
	dirs := map[string]string{}
	for _, mode := range []string{"warm", "corrupt", "cold"} {
		dir := filepath.Join(root, mode)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		dirs[mode] = dir
		if mode == "cold" {
			continue // the cold baseline starts from an empty directory
		}
		steady, err := warmstartTrain(dir)
		if err != nil {
			return nil, fmt.Errorf("warmstart train (%s): %w", mode, err)
		}
		out.SteadyState = steady
	}
	for _, name := range []string{persist.SnapshotFile, persist.SnapshotPrevFile} {
		path := filepath.Join(dirs["corrupt"], name)
		if _, err := os.Stat(path); err == nil {
			if err := os.WriteFile(path, []byte("garbage, not an envelope"), 0o644); err != nil {
				return nil, err
			}
		}
	}

	curves := map[string][]float64{}
	for _, mode := range []string{"warm", "corrupt", "cold"} {
		curve, outcome, err := warmstartReplay(dirs[mode])
		if err != nil {
			return nil, fmt.Errorf("warmstart replay (%s): %w", mode, err)
		}
		curves[mode] = curve
		switch mode {
		case "warm":
			out.WarmOutcome = outcome
		case "corrupt":
			out.CorruptOutcome = outcome
		case "cold":
			out.ColdOutcome = outcome
		}
	}
	for i := 0; i < warmstartBatches; i++ {
		out.Rows = append(out.Rows, WarmStartRow{
			Batch:   i + 1,
			Warm:    curves["warm"][i],
			Corrupt: curves["corrupt"][i],
			Cold:    curves["cold"][i],
		})
	}
	if out.SteadyState > 0 {
		out.RecoveredPct = curves["warm"][0] / out.SteadyState
	}
	return out, nil
}

// warmstartUpstream serves the cachesweep catalog: a feed of ids fanning out
// into fixed-size assets.
func warmstartUpstream() proxy.UpstreamFunc {
	return func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/feed" {
			ids := make([]string, cacheCatalog)
			for i := range ids {
				ids[i] = fmt.Sprintf("a%d", i)
			}
			body, _ := json.Marshal(map[string]any{"ids": ids})
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   body}, nil
		}
		return &httpmsg.Response{Status: 200, Body: bytes.Repeat([]byte("x"), cacheAssetSize)}, nil
	}
}

// warmstartGraph is the cachesweep graph with an optional field on the
// asset: its instance class is known only from a live asset request, so a
// fresh user's first assets wait for one — the proxy cannot build them from
// the feed request alone — and what a cold restart lacks is what the warm
// one restored.
func warmstartGraph() *sig.Graph {
	g := cacheSweepGraph()
	asset := g.Sig("cw:asset#0")
	asset.Query = append(asset.Query, sig.Field{Key: "thumb", Value: sig.Literal("1"), Optional: true})
	return g
}

func warmstartProxy(dir string) *proxy.Proxy {
	g := warmstartGraph()
	now := time.Unix(1_700_000_000, 0)
	return proxy.New(proxy.Options{Graph: g, Upstream: warmstartUpstream(), Workers: 1,
		StateDir: dir,
		Now:      func() time.Time { return now },
	})
}

// warmstartSession drives one user through a feed open and the full catalog,
// returning the hit ratio of just that session.
func warmstartSession(px *proxy.Proxy, user string) (float64, error) {
	get := func(path, id string) error {
		req := &httpmsg.Request{Method: "GET", Host: "app.example", Path: path,
			Header: []httpmsg.Field{{Key: "X-Appx-User", Value: user}}}
		if id != "" {
			req.Query = []httpmsg.Field{{Key: "id", Value: id}}
		}
		_, err := httpmsg.ServeViaHandler(px, req)
		return err
	}
	before := px.Stats().Snapshot()
	if err := get("/feed", ""); err != nil {
		return 0, err
	}
	px.Drain()
	for j := 0; j < cacheCatalog; j++ {
		if err := get("/asset", fmt.Sprintf("a%d", j)); err != nil {
			return 0, err
		}
	}
	px.Drain()
	after := px.Stats().Snapshot()
	lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses)
	if lookups == 0 {
		return 0, nil
	}
	return float64(after.Hits-before.Hits) / float64(lookups), nil
}

// warmstartTrain warms a proxy on dir, measures the steady-state session hit
// ratio, then "kills" it: snapshot, flush the spill queue, abandon. Returns
// the steady-state ratio.
func warmstartTrain(dir string) (float64, error) {
	px := warmstartProxy(dir)
	defer px.Close()

	// Teach the asset exemplar with one live request, then warm with two
	// sessions; the third is the measured steady state.
	seedReq := &httpmsg.Request{Method: "GET", Host: "app.example", Path: "/asset",
		Header: []httpmsg.Field{{Key: "X-Appx-User", Value: "t1"}},
		Query:  []httpmsg.Field{{Key: "id", Value: "seed"}}}
	if _, err := httpmsg.ServeViaHandler(px, seedReq); err != nil {
		return 0, err
	}
	var steady float64
	for i := 1; i <= 3; i++ {
		r, err := warmstartSession(px, fmt.Sprintf("t%d", i))
		if err != nil {
			return 0, err
		}
		steady = r
	}
	if err := px.SnapshotNow(); err != nil {
		return 0, err
	}
	px.DiskTier().Flush()
	return steady, nil
}

// warmstartReplay boots a proxy on dir and replays fresh user sessions,
// returning the per-batch hit-ratio curve and the restore outcome.
func warmstartReplay(dir string) ([]float64, string, error) {
	px := warmstartProxy(dir)
	defer px.Close()
	curve := make([]float64, 0, warmstartBatches)
	for i := 1; i <= warmstartBatches; i++ {
		r, err := warmstartSession(px, fmt.Sprintf("r%d", i))
		if err != nil {
			return nil, "", err
		}
		curve = append(curve, r)
	}
	return curve, px.RestoreOutcome(), nil
}

// Render formats the recovery curves.
func (w *WarmStart) Render() string {
	rows := make([][]string, 0, len(w.Rows))
	for _, r := range w.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Batch),
			fmtPct(r.Warm),
			fmtPct(r.Corrupt),
			fmtPct(r.Cold),
		})
	}
	head := fmt.Sprintf(
		"Warm-restart recovery (seed %d): post-kill hit ratio per session batch\n"+
			"pre-kill steady state %s; first warm batch recovers %s of it\n"+
			"restore outcomes: warm=%q corrupt=%q cold=%q\n",
		w.Seed, fmtPct(w.SteadyState), fmtPct(w.RecoveredPct),
		w.WarmOutcome, w.CorruptOutcome, w.ColdOutcome)
	return head + table([]string{"batch", "warm restart", "corrupt snapshot", "cold start"}, rows)
}
