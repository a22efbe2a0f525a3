package proxy

// Integration tests for the sharded prefetch store as wired into the proxy:
// the cross-user shared tier, the cache telemetry surface, the sliding-window
// data budget, the per-prefetch deadline, and user-state LRU eviction.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/cache"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/netem"
	"appx/internal/obs/adminv1"
	"appx/internal/sig"
)

// sharedGraph builds a one-host fan-out: a list endpoint whose ids feed item
// fetches. Both signatures are free of per-user wildcards, so the items are
// shared-tier eligible.
func sharedGraph() *sig.Graph {
	g := sig.NewGraph("t")
	pred := &sig.Signature{ID: "t:list#0", Method: "GET", URI: sig.Literal("h.example/list")}
	succ := &sig.Signature{ID: "t:item#0", Method: "GET", URI: sig.Literal("h.example/item"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(pred.ID, "ids[*]")}}}
	g.Add(pred)
	g.Add(succ)
	g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: succ.ID, RespPath: "ids[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	return g
}

func TestSharedTierCrossUserHit(t *testing.T) {
	g := sharedGraph()
	var itemCalls atomic.Int64
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/list" {
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   []byte(`{"ids":["1","2","3","4"]}`)}, nil
		}
		itemCalls.Add(1)
		return &httpmsg.Response{Status: 200, Body: []byte(`{"item":"payload"}`)}, nil
	})
	p := New(Options{Graph: g, Upstream: up})
	defer p.Close()

	// Alice teaches the item exemplar, then her list view fans out into
	// prefetches. The item signature carries no per-user values, so the
	// entries land in the shared tier.
	alice := &proxyTransport{p: p, user: "1.1.1.1"}
	if _, err := alice.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "0"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/list"}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if n, _ := p.Cache().ScopeStats(cache.SharedScope); n == 0 {
		t.Fatal("fan-out produced no shared-tier entries")
	}

	// Bob never visited, but his exact-match request is served from Alice's
	// prefetch without touching the origin.
	before := itemCalls.Load()
	bob := &proxyTransport{p: p, user: "2.2.2.2"}
	resp, err := bob.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != `{"item":"payload"}` {
		t.Fatalf("shared hit served wrong response: %d %q", resp.Status, resp.Body)
	}
	if got := itemCalls.Load(); got != before {
		t.Fatalf("cross-user request reached the origin: %d -> %d item fetches", before, got)
	}
	snap := p.Stats().Snapshot()
	if snap.SharedHits == 0 {
		t.Fatal("no shared-tier hits counted")
	}
	if snap.SharedHitRatio() <= 0 {
		t.Fatalf("shared hit ratio = %v", snap.SharedHitRatio())
	}
}

func TestSharedEligibility(t *testing.T) {
	g := sharedGraph()
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200}, nil
	})
	p := New(Options{Graph: g, Upstream: up})
	defer p.Close()
	s := g.Sig("t:item#0")
	req := &httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item"}
	if !p.sharedEligible(s, req) {
		t.Fatal("dep-only signature with a clean request should be shared-eligible")
	}
	// A materialized request carrying anything credential-shaped stays per
	// user, whatever the exact header name.
	for _, h := range []string{"Cookie", "Authorization", "X-Session-Id", "X-Account-Ref", "Api-Token"} {
		r2 := req.Clone()
		r2.Header = append(r2.Header, httpmsg.Field{Key: h, Value: "v"})
		if p.sharedEligible(s, r2) {
			t.Fatalf("header %s did not deny sharing", h)
		}
	}
	// But ordinary headers survive the denylist.
	r3 := req.Clone()
	r3.Header = append(r3.Header, httpmsg.Field{Key: "User-Agent", Value: "X/1.0"})
	if !p.sharedEligible(s, r3) {
		t.Fatal("User-Agent header wrongly denied sharing")
	}
	// Signatures with per-user runtime wildcards never share.
	wild := &sig.Signature{ID: "t:wild#0", Method: "GET", URI: sig.Literal("h.example/w"),
		Query: []sig.Field{{Key: "tok", Value: sig.Wildcard("tok")}}}
	if wild.UserAgnostic() {
		t.Fatal("wildcard signature reported user-agnostic")
	}
	if p.sharedEligible(wild, req) {
		t.Fatal("wildcard signature was shared-eligible")
	}
	// The config switch disables the tier outright.
	cfg := config.Default(g)
	cfg.Cache = &config.Cache{DisableSharedTier: true}
	p2 := New(Options{Graph: g, Config: cfg, Upstream: up})
	defer p2.Close()
	if p2.sharedEligible(s, req) {
		t.Fatal("DisableSharedTier did not deny sharing")
	}
}

func TestHealthReportsCacheTelemetry(t *testing.T) {
	g := sharedGraph()
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/list" {
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   []byte(`{"ids":["1","2","3"]}`)}, nil
		}
		return &httpmsg.Response{Status: 200, Body: []byte(`{}`)}, nil
	})
	p := New(Options{Graph: g, Upstream: up})
	defer p.Close()
	alice := &proxyTransport{p: p, user: "1.1.1.1"}
	if _, err := alice.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "0"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/list"}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	bob := &proxyTransport{p: p, user: "2.2.2.2"}
	if _, err := bob.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "2"}}}); err != nil {
		t.Fatal(err)
	}

	get := func(path string, into any) {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("%s = %d", path, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("%s not JSON: %v", path, err)
		}
	}

	var health adminv1.HealthResponse
	get(adminv1.PathHealth, &health)
	c := health.Cache
	if c.ResidentBytes <= 0 {
		t.Fatalf("cache residentBytes = %d", c.ResidentBytes)
	}
	if c.SharedEntries <= 0 || c.SharedBytes <= 0 {
		t.Fatalf("shared tier not visible: entries=%d bytes=%d", c.SharedEntries, c.SharedBytes)
	}
	if c.SharedHits < 1 || c.SharedHitRatio <= 0 {
		t.Fatalf("shared hits not reported: hits=%d ratio=%v", c.SharedHits, c.SharedHitRatio)
	}

	var stats adminv1.StatsResponse
	get(adminv1.PathStats, &stats)
	if stats.CacheResidentBytes <= 0 {
		t.Fatalf("stats cacheResidentBytes = %d", stats.CacheResidentBytes)
	}
	if stats.SharedHitRatio <= 0 {
		t.Fatalf("stats sharedHitRatio = %v, want > 0", stats.SharedHitRatio)
	}
}

// roundUpstream serves the sharedGraph origin with fresh ids per list fetch,
// so every round spawns new prefetch work.
type roundUpstream struct {
	mu    sync.Mutex
	round int
}

func (ru *roundUpstream) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	if r.Path == "/list" {
		ru.round++
		ids := make([]string, 4)
		for i := range ids {
			ids[i] = fmt.Sprintf("r%d-%d", ru.round, i)
		}
		body, _ := json.Marshal(map[string]any{"ids": ids})
		return &httpmsg.Response{Status: 200,
			Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
			Body:   body}, nil
	}
	return &httpmsg.Response{Status: 200, Body: make([]byte, 1000)}, nil
}

func TestDataBudgetWindowResets(t *testing.T) {
	g := sharedGraph()
	cfg := config.Default(g)
	cfg.DataBudgetBytes = 1 // any prefetched byte exhausts the period
	now := time.Unix(1_700_000_000, 0)
	p := New(Options{Graph: g, Config: cfg, Upstream: &roundUpstream{}, Workers: 1,
		Now: func() time.Time { return now }})
	defer p.Close()
	pt := &proxyTransport{p: p, user: "budget-user"}
	get := func(path, id string) {
		t.Helper()
		req := &httpmsg.Request{Method: "GET", Host: "h.example", Path: path}
		if id != "" {
			req.Query = []httpmsg.Field{{Key: "id", Value: id}}
		}
		if _, err := pt.RoundTrip(req); err != nil {
			t.Fatal(err)
		}
	}
	get("/item", "seed") // teach the exemplar
	get("/list", "")
	p.Drain()
	first := p.Stats().Snapshot().Prefetches
	if first == 0 {
		t.Fatal("no prefetch before the budget was exhausted")
	}
	// Same window, fresh fan-out: the exhausted budget must suppress it.
	get("/list", "")
	p.Drain()
	if mid := p.Stats().Snapshot().Prefetches; mid != first {
		t.Fatalf("budget did not suppress within the window: %d -> %d", first, mid)
	}
	// Still the same window just short of its hour.
	now = now.Add(budgetWindow - time.Second)
	get("/list", "")
	p.Drain()
	if mid := p.Stats().Snapshot().Prefetches; mid != first {
		t.Fatalf("budget did not suppress within the window: %d -> %d", first, mid)
	}
	// A new accounting period starts once the window elapses: usage reads
	// zero again and prefetching resumes instead of staying dead forever.
	now = now.Add(time.Second)
	if used := p.DataUsedBytes(); used != 0 {
		t.Fatalf("window roll did not reset usage: %d", used)
	}
	get("/list", "")
	p.Drain()
	if after := p.Stats().Snapshot().Prefetches; after <= first {
		t.Fatalf("prefetching did not resume in the new window: %d -> %d", first, after)
	}
}

func TestPrefetchTimeoutBoundsStalledOrigin(t *testing.T) {
	// Two hosts sharing one real TCP origin: the list stays healthy while
	// every item connection stalls mid-I/O. Without the per-prefetch
	// deadline each worker would hang for the full stall.
	g := sig.NewGraph("t")
	pred := &sig.Signature{ID: "t:slist#0", Method: "GET", URI: sig.Literal("live.example/list")}
	succ := &sig.Signature{ID: "t:sitem#0", Method: "GET", URI: sig.Literal("stall.example/item"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(pred.ID, "ids[*]")}}}
	g.Add(pred)
	g.Add(succ)
	g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: succ.ID, RespPath: "ids[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/list", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ids":["1","2"]}`))
	})
	mux.HandleFunc("/item", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	})
	srv := &http.Server{Handler: mux}
	// Every request must dial a fresh connection so the injector's fault
	// wrapping (applied at dial time) covers the prefetch traffic too.
	srv.SetKeepAlivesEnabled(false)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	addr := ln.Addr().String()
	up := NewNetUpstream(map[string]string{"live.example": addr, "stall.example": addr}, nil)
	// The per-prefetch deadline shortened from its 20 s so the test does not
	// wait out the 5 s stall; every other value is the proxy's own.
	tun := defaultTuning()
	tun.prefetchTimeout = 150 * time.Millisecond
	p := newProxy(Options{Graph: g, Upstream: up, Workers: 1}, tun)
	defer p.Close()
	pt := &proxyTransport{p: p, user: "stall-user"}

	// Teach the item exemplar fault-free, then stall the item host.
	if _, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "stall.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "seed"}}}); err != nil {
		t.Fatal(err)
	}
	in := netem.NewInjector(1)
	in.SetFault("stall.example", netem.Fault{StallProb: 1, StallDelay: 5 * time.Second})
	up.SetFaults(in)

	start := time.Now()
	if _, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "live.example", Path: "/list"}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("prefetch deadline did not bound the stalled origin: drained in %v", elapsed)
	}
	if st := p.Stats().Snapshot().PerSig["t:sitem#0"]; st.PrefetchErrors == 0 {
		t.Fatal("stalled prefetches reported no errors")
	}
}

func TestMaxUsersEvictsLeastRecentlySeen(t *testing.T) {
	g := sig.NewGraph("t")
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200}, nil
	})
	now := time.Unix(1_700_000_000, 0)
	p := New(Options{Graph: g, Upstream: up, Now: func() time.Time { return now }})
	defer p.Close()

	p.user("old")
	p.Cache().Put("old", "k", &cache.Entry{
		Resp:    &httpmsg.Response{Status: 200, Body: []byte("x")},
		Expires: now.Add(time.Hour),
	})
	now = now.Add(time.Minute)
	p.user("fresh")
	for i := 2; i < maxUsers; i++ {
		p.user(fmt.Sprint("filler", i))
	}
	now = now.Add(time.Minute)
	p.user("new") // over maxUsers: the least recently seen state must go

	p.mu.Lock()
	_, oldAlive := p.users["old"]
	_, freshAlive := p.users["fresh"]
	p.mu.Unlock()
	if oldAlive || !freshAlive {
		t.Fatalf("LRU eviction picked the wrong user: old=%v fresh=%v", oldAlive, freshAlive)
	}
	if n, b := p.Cache().ScopeStats("old"); n != 0 || b != 0 {
		t.Fatalf("evicted user's cache not dropped: %d entries, %d bytes", n, b)
	}
}
