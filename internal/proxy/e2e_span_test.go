package proxy

// End-to-end span coverage: a generated interaction trace replayed through
// an emulated device whose transport is the in-process proxy. Every client
// request that enters ServeHTTP must finish exactly one lifecycle span, and
// each span's attributed stage time must fit inside its wall time. Shed and
// error outcomes are driven explicitly (drain, faulted host).

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/apps"
	"appx/internal/config"
	"appx/internal/device"
	"appx/internal/httpmsg"
	"appx/internal/interp"
	"appx/internal/obs"
	"appx/internal/obs/adminv1"
	"appx/internal/static"
	"appx/internal/trace"
)

// countingTransport counts client round trips entering the proxy.
type countingTransport struct {
	inner interp.Transport
	n     atomic.Int64
}

func (c *countingTransport) RoundTrip(r *httpmsg.Request) (*httpmsg.Response, error) {
	c.n.Add(1)
	return c.inner.RoundTrip(r)
}

func TestSpansCoverTraceReplayEndToEnd(t *testing.T) {
	app := apps.Wish()
	g, err := static.Analyze(app.APK.Program, app.Name, app.APK.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	cfg := config.Default(g)
	origin := &originUpstream{handler: app.Handler(0)}
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Host == "dead.example" {
			return nil, errors.New("connect: connection refused")
		}
		return origin.RoundTrip(ctx, r)
	})
	p := New(Options{Graph: g, Config: cfg, Upstream: up})
	t.Cleanup(p.Close)

	const userKey = "10.9.9.9"
	ct := &countingTransport{inner: &proxyTransport{p: p, user: userKey}}
	d, err := device.New(device.Config{
		APK:       app.APK,
		Transport: ct,
		User:      userKey,
		Props:     interp.DeviceProps{UserAgent: "AppxTest/1.0", Locale: "en-US", AppVersion: app.APK.Manifest.Version},
	})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	tr := trace.Generate(app.APK, userKey, 7, 20*time.Second)
	for _, m := range trace.Replay(d, tr, 1000) {
		if m.Err != nil {
			t.Fatalf("replay %s: %v", m.Event.Widget, m.Err)
		}
	}
	p.Drain()

	// An error outcome: the faulted host answers 502 after its one attempt.
	if resp, err := ct.RoundTrip(&httpmsg.Request{Method: "GET", Host: "dead.example", Path: "/x"}); err != nil || resp.Status != 502 {
		t.Fatalf("faulted host: resp=%+v err=%v", resp, err)
	}
	// A shed outcome: draining refuses new proxied work with a 503.
	p.BeginDrain()
	if resp, err := ct.RoundTrip(&httpmsg.Request{Method: "GET", Host: "app.example", Path: "/y"}); err != nil || resp.Status != 503 {
		t.Fatalf("drained request: resp=%+v err=%v", resp, err)
	}

	// Exactly one span per client request — replayed trace plus the two
	// explicit requests, nothing more (prefetches do not produce spans).
	total := uint64(ct.n.Load())
	if got := p.SpanTotal(); got != total {
		t.Fatalf("span total = %d, want one per request = %d", got, total)
	}

	spans := p.RecentSpans(int(total))
	if len(spans) != int(total) {
		t.Fatalf("recent spans = %d, want %d (ring must hold the whole run)", len(spans), total)
	}
	for _, s := range spans {
		if s.Outcome == obs.OutcomeUnknown {
			t.Fatalf("span %d finished without an outcome", s.ID)
		}
		// Stages are disjoint timeline slices; their sum must fit inside the
		// measured wall time (1ms slack for clock granularity).
		if sum := s.StageSum(); sum > s.Wall+time.Millisecond {
			t.Fatalf("span %d stage sum %v exceeds wall %v", s.ID, sum, s.Wall)
		}
	}

	// The typed stats block agrees: hits, origins, one error, one shed.
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", adminv1.PathStats, nil))
	var stats adminv1.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if stats.Requests.Total != total {
		t.Fatalf("stats requests total = %d, want %d", stats.Requests.Total, total)
	}
	if stats.Requests.Outcomes["error"].Count != 1 {
		t.Fatalf("error outcome count = %d, want 1", stats.Requests.Outcomes["error"].Count)
	}
	if stats.Requests.Outcomes["shed"].Count != 1 {
		t.Fatalf("shed outcome count = %d, want 1", stats.Requests.Outcomes["shed"].Count)
	}
	if stats.Requests.Outcomes["origin"].Count == 0 {
		t.Fatal("no origin outcomes from a live replay")
	}
	var sum int64
	for _, o := range stats.Requests.Outcomes {
		sum += o.Count
	}
	if uint64(sum) != total {
		t.Fatalf("outcome counts sum to %d, want %d", sum, total)
	}
}
