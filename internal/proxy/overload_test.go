package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/obs/adminv1"
	"appx/internal/sig"
)

// overloadGraph builds a one-host list→item dependency graph: each /list
// response fans out into item prefetches.
func overloadGraph() *sig.Graph {
	g := sig.NewGraph("t")
	pred := &sig.Signature{ID: "t:list#0", Method: "GET", URI: sig.Literal("app.example/list")}
	succ := &sig.Signature{ID: "t:item#0", Method: "GET", URI: sig.Literal("app.example/item"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(pred.ID, "ids[*]")}}}
	g.Add(pred)
	g.Add(succ)
	g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: succ.ID, RespPath: "ids[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	return g
}

// TestAdmissionGateSheds: with one admission slot occupied by a stalled
// request, the next arrival is shed with a 503 after the bounded wait, the
// shed is counted, and the stalled request still completes once released.
func TestAdmissionGateSheds(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/slow" {
			close(entered)
			<-release
		}
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	g := sig.NewGraph("t")
	cfg := config.Default(g)
	cfg.Overload = &config.Overload{
		MaxConcurrentRequests: 1,
		AdmissionWait:         config.Duration(5 * time.Millisecond),
	}
	p := New(Options{Graph: g, Config: cfg, Upstream: up, DisablePrefetch: true})
	t.Cleanup(p.Close)

	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest("GET", "http://app.example/slow", nil))
		done <- rec.Code
	}()
	<-entered

	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", "http://app.example/fast", nil))
	if rec.Code != 503 {
		t.Fatalf("second request while gate full = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "overloaded") {
		t.Fatalf("shed body = %q, want overload notice", rec.Body.String())
	}
	if _, shed := p.AdmissionCounts(); shed != 1 {
		t.Fatalf("admission shed count = %d, want 1", shed)
	}

	close(release)
	if code := <-done; code != 200 {
		t.Fatalf("stalled request completed with %d, want 200", code)
	}
	if admitted, _ := p.AdmissionCounts(); admitted != 1 {
		t.Fatalf("admitted count = %d, want 1", admitted)
	}
}

// TestDrainingRefusesNewWork: after BeginDrain, proxied requests are refused
// with 503 while the status surface keeps answering and reports the
// draining mode as degraded health.
func TestDrainingRefusesNewWork(t *testing.T) {
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	g := sig.NewGraph("t")
	p := New(Options{Graph: g, Config: config.Default(g), Upstream: up, DisablePrefetch: true})
	t.Cleanup(p.Close)

	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", "http://app.example/x", nil))
	if rec.Code != 200 {
		t.Fatalf("pre-drain request = %d, want 200", rec.Code)
	}

	p.BeginDrain()
	if !p.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	rec = httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", "http://app.example/x", nil))
	if rec.Code != 503 {
		t.Fatalf("post-drain request = %d, want 503", rec.Code)
	}

	rec = httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", adminv1.PathHealth, nil))
	if rec.Code != 200 {
		t.Fatalf("%s during drain = %d, want 200", adminv1.PathHealth, rec.Code)
	}
	var health adminv1.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("health not JSON: %v", err)
	}
	if health.Status != "degraded" {
		t.Fatalf("health status during drain = %v, want degraded", health.Status)
	}
	if health.Overload.Mode != "draining" {
		t.Fatalf("overload mode during drain = %v, want draining", health.Overload.Mode)
	}
}

// TestShedRetryAfterMode: a draining proxy's 503 carries the drain-mode
// Retry-After hint, not the generic one.
func TestShedRetryAfterMode(t *testing.T) {
	p := New(Options{Graph: sig.NewGraph("t"), Workers: 1})
	t.Cleanup(p.Close)
	p.BeginDrain()
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", "http://h.example/x", nil))
	if rec.Code != 503 {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "5" {
		t.Fatalf("Retry-After = %q, want 5 while draining", ra)
	}
}

// TestPrefetchPanicRecovered: a reconstruction whose origin call panics is
// recovered by the worker, counted as a prefetch failure, feeds the
// signature's backoff into suspension, and leaves the pool alive for both
// later prefetches and live traffic. Regression for the seed scheduler,
// where one panicking task killed a worker goroutine for good.
func TestPrefetchPanicRecovered(t *testing.T) {
	var mu sync.Mutex
	round := 0
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		mu.Lock()
		defer mu.Unlock()
		if r.Path == "/list" {
			round++
			ids := make([]string, 4)
			for i := range ids {
				ids[i] = fmt.Sprintf("p%d-%d", round, i)
			}
			body, _ := json.Marshal(map[string]any{"ids": ids})
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   body}, nil
		}
		for _, q := range r.Query {
			if q.Key == "id" && strings.HasPrefix(q.Value, "p") {
				panic("origin client bug: prefetch-only id " + q.Value)
			}
		}
		return &httpmsg.Response{Status: 200, Body: []byte(`{}`)}, nil
	})
	g := overloadGraph()
	now := time.Unix(1_700_000_000, 0)
	p := New(Options{Graph: g, Upstream: up, Workers: 2,
		Now:  func() time.Time { return now },
		Rand: func() float64 { return 0 },
	})
	t.Cleanup(p.Close)
	pt := &proxyTransport{p: p, user: "panic-user"}

	// Teach the item exemplar with a live, non-panicking id.
	if resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "app.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "seed"}}}); err != nil || resp.Status != 200 {
		t.Fatalf("exemplar request: %v %v", resp, err)
	}
	// The list fan-out spawns prefetches for ids the client never asked
	// for; every one of them panics inside the origin call.
	if resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "app.example", Path: "/list"}); err != nil || resp.Status != 200 {
		t.Fatalf("list request: %v %v", resp, err)
	}
	p.Drain()

	m := p.SchedMetrics()
	if m.Panics == 0 {
		t.Fatal("no recovered panics counted")
	}
	snap := p.Stats().Snapshot()
	if snap.PerSig["t:item#0"].PrefetchErrors == 0 {
		t.Fatal("recovered panic not counted as prefetch error")
	}
	if _, until := p.sigs.byID["t:item#0"].backoff(); !p.opts.Now().Before(until) {
		t.Fatal("panicking signature not suspended by failure backoff")
	}
	// The pool survived: live traffic still flows through the proxy.
	resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "app.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "seed2"}}})
	if err != nil || resp.Status != 200 {
		t.Fatalf("live request after panics: %v %v", resp, err)
	}
}

// TestStatsExposeOverloadAndSched: both operational endpoints carry the
// overload and per-class scheduler blocks.
func TestStatsExposeOverloadAndSched(t *testing.T) {
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	g := sig.NewGraph("t")
	p := New(Options{Graph: g, Config: config.Default(g), Upstream: up})
	t.Cleanup(p.Close)

	fetch := func(path string, into any) {
		t.Helper()
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s = %d, want 200", path, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("%s not JSON: %v", path, err)
		}
	}
	check := func(path string, ovl adminv1.Overload, sch adminv1.Sched) {
		t.Helper()
		if ovl.Mode != "normal" {
			t.Fatalf("%s overload block = %+v, want normal", path, ovl)
		}
		if sch.Capacity != 4096 {
			t.Fatalf("%s sched capacity = %d, want 4096", path, sch.Capacity)
		}
	}
	var stats adminv1.StatsResponse
	fetch(adminv1.PathStats, &stats)
	check(adminv1.PathStats, stats.Overload, stats.Sched)
	var health adminv1.HealthResponse
	fetch(adminv1.PathHealth, &health)
	check(adminv1.PathHealth, health.Overload, health.Sched)
}
