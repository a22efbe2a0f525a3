package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"appx/internal/cache"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/obs"
)

// lifecycleTally is what the finish seam has recorded so far: finished
// spans and TTFB samples.
type lifecycleTally struct {
	spans uint64
	ttfb  int64
}

func tally(p *Proxy) lifecycleTally {
	return lifecycleTally{spans: p.SpanTotal(), ttfb: p.ttfb.Count()}
}

// exitPathUpstream serves the overloadGraph app. /list fans out item ids,
// dead.example refuses connections, and /stall blocks until released (to
// hold an admission slot).
type exitPathUpstream struct {
	stallEntered chan struct{}
	stallRelease chan struct{}
}

func (u *exitPathUpstream) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	switch {
	case r.Host == "dead.example":
		return nil, errors.New("connect: connection refused")
	case r.Path == "/list":
		body, _ := json.Marshal(map[string]any{"ids": []string{"a", "b"}})
		return &httpmsg.Response{Status: 200,
			Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}}, Body: body}, nil
	case r.Path == "/stall":
		close(u.stallEntered)
		<-u.stallRelease
	}
	return &httpmsg.Response{Status: 200, Body: []byte("body of " + r.Path)}, nil
}

// TestExitPathsFinishOnce drives every way a proxied request can end and
// checks the finish seam's contract on each: exactly one span carrying the
// right outcome and signature, and one TTFB sample exactly when response
// bytes (not a proxy-generated error) reached the client.
func TestExitPathsFinishOnce(t *testing.T) {
	const itemSig, listSig = "t:item#0", "t:list#0"
	g := overloadGraph()
	cfg := config.Default(g)
	cfg.Overload = &config.Overload{MaxConcurrentRequests: 2, AdmissionWait: config.Duration(5 * time.Millisecond)}
	up := &exitPathUpstream{stallEntered: make(chan struct{}), stallRelease: make(chan struct{})}
	now := time.Unix(1_700_000_000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	p := New(Options{Graph: g, Config: cfg, Upstream: up, Now: clock,
		Rand: func() float64 { return 0 }, MaxBodyBytes: 16})
	t.Cleanup(p.Close)

	get := func(url string) *http.Request {
		r := httptest.NewRequest("GET", url, nil)
		r.RemoteAddr = "10.1.1.1:999"
		return r
	}
	serve := func(r *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, r)
		return rec
	}
	// check serves r and asserts the seam's deltas plus the newest span.
	check := func(name string, r *http.Request, status int, outcome obs.Outcome, sigID string, ttfb int64) {
		t.Helper()
		before := tally(p)
		rec := serve(r)
		after := tally(p)
		if rec.Code != status {
			t.Fatalf("%s: status %d, want %d (%q)", name, rec.Code, status, rec.Body.String())
		}
		if d := after.spans - before.spans; d != 1 {
			t.Fatalf("%s: %d spans finished, want 1", name, d)
		}
		if sp := p.RecentSpans(1)[0]; sp.Outcome != outcome || sp.SigID != sigID {
			t.Fatalf("%s: span outcome=%v sig=%q, want %v %q", name, sp.Outcome, sp.SigID, outcome, sigID)
		}
		if d := after.ttfb - before.ttfb; d != ttfb {
			t.Fatalf("%s: %d TTFB samples, want %d", name, d, ttfb)
		}
	}

	check("origin via flight (exemplar)", get("http://app.example/item?id=seed"), 200, obs.OutcomeOrigin, itemSig, 1)
	check("origin via flight (list)", get("http://app.example/list"), 200, obs.OutcomeOrigin, listSig, 1)
	p.Drain() // items a and b are prefetched
	check("prefetch-hit", get("http://app.example/item?id=a"), 200, obs.OutcomePrefetchHit, itemSig, 1)

	check("origin via passthrough", get("http://app.example/unmatched"), 200, obs.OutcomeOrigin, "", 1)
	check("upstream 502 via passthrough", get("http://dead.example/x"), 502, obs.OutcomeError, "", 0)

	bad := get("http://app.example/x")
	bad.Body = io.NopCloser(iotest.ErrReader(errors.New("client went away")))
	check("400 malformed", bad, 400, obs.OutcomeError, "", 0)
	big := httptest.NewRequest("POST", "http://app.example/x", strings.NewReader(strings.Repeat("x", 64)))
	check("413 body too large", big, 413, obs.OutcomeError, "", 0)

	// Gate shed: both admission slots held by stalled requests.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); serve(get("http://app.example/stall")) }()
	<-up.stallEntered
	p.gate.slots <- struct{}{} // occupy the second slot directly
	check("gate shed", get("http://app.example/fast"), 503, obs.OutcomeShed, "", 0)
	if _, shed := p.AdmissionCounts(); shed != 1 {
		t.Fatalf("admission shed count = %d, want 1", shed)
	}
	<-p.gate.slots
	close(up.stallRelease)
	wg.Wait()

	p.BeginDrain()
	check("drain shed", get("http://app.example/item?id=a"), 503, obs.OutcomeShed, "", 0)
}

// TestFlightExitPathsFinishOnce covers the two exits only concurrency
// reaches: an attach-hit on another client's in-flight fetch, and a flight
// whose origin fetch fails (502 with the flight torn down).
func TestFlightExitPathsFinishOnce(t *testing.T) {
	g := streamGraph()
	up := &gatedUpstream{
		started: make(chan struct{}), release: make(chan struct{}),
		part1: []byte("first-half;"), part2: []byte("second-half"),
	}
	p := New(Options{Graph: g, Upstream: up})
	defer p.Close()
	send := func(w http.ResponseWriter) {
		r := httptest.NewRequest("GET", "http://h.example/big", nil)
		r.RemoteAddr = "9.9.9.9:1"
		p.ServeHTTP(w, r)
	}
	before := tally(p)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); send(newNotifyWriter()) }()
	<-up.started
	attacher := newNotifyWriter()
	go func() { defer wg.Done(); send(attacher) }()
	<-attacher.headerAt
	close(up.release)
	wg.Wait()
	after := tally(p)
	if after.spans-before.spans != 2 || after.ttfb-before.ttfb != 2 {
		t.Fatalf("owner+attacher recorded %+v → %+v, want 2 spans, 2 TTFB samples", before, after)
	}
	outcomes := map[obs.Outcome]int{}
	for _, sp := range p.RecentSpans(2) {
		if sp.SigID != "t:big#0" {
			t.Fatalf("span %v sig = %q, want t:big#0", sp.Outcome, sp.SigID)
		}
		outcomes[sp.Outcome]++
	}
	if outcomes[obs.OutcomeOrigin] != 1 || outcomes[obs.OutcomeAttachHit] != 1 {
		t.Fatalf("outcomes = %v, want one origin and one attach-hit", outcomes)
	}
	waitChunksReleased(t, p)

	// A matched request whose origin fetch fails: 502, error outcome, still
	// attributed to its signature, flight removed.
	pf := New(Options{Graph: g, Upstream: UpstreamFunc(func(context.Context, *httpmsg.Request) (*httpmsg.Response, error) {
		return nil, errors.New("connect: connection refused")
	})})
	defer pf.Close()
	before = tally(pf)
	rec := httptest.NewRecorder()
	pf.ServeHTTP(rec, httptest.NewRequest("GET", "http://h.example/big", nil))
	after = tally(pf)
	sp := pf.RecentSpans(1)[0]
	if rec.Code != 502 || sp.Outcome != obs.OutcomeError || sp.SigID != "t:big#0" {
		t.Fatalf("failed flight: status %d outcome %v sig %q, want 502 error t:big#0", rec.Code, sp.Outcome, sp.SigID)
	}
	if after.spans-before.spans != 1 || after.ttfb != before.ttfb {
		t.Fatalf("failed flight recorded %+v → %+v, want 1 span, 0 TTFB samples", before, after)
	}
	flights := 0
	for _, ks := range pf.keys.snapshot() {
		if ks.fl != nil {
			flights++
		}
	}
	if flights != 0 {
		t.Fatalf("%d flights left registered after a failed fetch", flights)
	}
}

// discardWriter is an allocation-free ResponseWriter for alloc tests.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestHitPathFinishAllocs pins the cost of the path every request takes,
// with the span window full: sealing a request allocates nothing, and a
// whole cache hit stays within its allocation budget.
func TestHitPathFinishAllocs(t *testing.T) {
	g := streamGraph()
	now := time.Unix(1_700_000_000, 0)
	p := New(Options{Graph: g, Now: func() time.Time { return now },
		Upstream: UpstreamFunc(func(context.Context, *httpmsg.Request) (*httpmsg.Response, error) {
			return nil, errors.New("unreachable: every request is a hit")
		})})
	defer p.Close()
	r := httptest.NewRequest("GET", "http://h.example/big", nil)
	r.RemoteAddr = "9.9.9.9:1"
	req, err := httpmsg.FromHTTPLimited(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.store.Put("9.9.9.9", req.CanonicalKey(), &cache.Entry{
		Resp:    &httpmsg.Response{Status: 200, Body: []byte("cached")},
		SigID:   "t:big#0",
		Expires: now.Add(time.Hour),
	})
	w := &discardWriter{h: http.Header{}}
	serveHit := func() {
		clear(w.h)
		p.ServeHTTP(w, r)
	}
	for i := 0; i < 1100; i++ { // fill the 1024-span window
		serveHit()
	}
	if sp := p.RecentSpans(1)[0]; sp.Outcome != obs.OutcomePrefetchHit {
		t.Fatalf("warm-up request outcome = %v, want prefetch-hit", sp.Outcome)
	}
	// A nil span is a no-op: what remains of finish is the TTFB sample, with
	// no pooled object to add noise.
	finish := testing.AllocsPerRun(200, func() {
		x := exchange{sigID: "t:big#0", start: now, first: now}
		p.finish(&x, obs.OutcomePrefetchHit)
	})
	if finish != 0 {
		t.Fatalf("finish allocates %v per request, want 0", finish)
	}
	// A hit costs 6; the one alloc of slack absorbs sync.Pool's randomized
	// drops under -race.
	if hit := testing.AllocsPerRun(200, serveHit); hit > 6+1 {
		t.Fatalf("cache hit costs %v allocs/request, want 6", hit)
	}
}

// blockingTier is a cache.Tier whose Drop blocks until released.
type blockingTier struct {
	entered chan string
	release chan struct{}
}

func (b *blockingTier) Spill(string, string, *cache.Entry)       {}
func (b *blockingTier) Load(string, string) (*cache.Entry, bool) { return nil, false }
func (b *blockingTier) Drop(scope string) {
	b.entered <- scope
	<-b.release
}

// TestPruneDoesNotBlockForeground: dropping a pruned (or evicted) user's
// scope reaches the disk tier — a directory walk and removal per user. That
// I/O must happen outside the global user lock: while a drop is stuck, a
// concurrent request for another user still completes.
func TestPruneDoesNotBlockForeground(t *testing.T) {
	g := streamGraph()
	now := time.Unix(1_700_000_000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	up := UpstreamFunc(func(context.Context, *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	p := New(Options{Graph: g, Upstream: up, Now: clock})
	defer p.Close()
	tier := &blockingTier{entered: make(chan string, 4), release: make(chan struct{})}
	p.store.Close()
	p.store = cache.New(cache.Options{Tier: tier, Now: clock})

	serveAs := func(user string) int {
		r := httptest.NewRequest("GET", "http://h.example/big", nil)
		r.RemoteAddr = user + ":1"
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, r)
		return rec.Code
	}
	// served runs a foreground request and fails the test if it is stuck
	// behind the blocked drop.
	served := func(what, user string) {
		t.Helper()
		done := make(chan int, 1)
		go func() { done <- serveAs(user) }()
		select {
		case code := <-done:
			if code != 200 {
				t.Fatalf("%s: status %d, want 200", what, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: foreground request blocked behind a tier drop", what)
		}
	}

	serveAs("1.1.1.1")
	clockMu.Lock()
	now = now.Add(time.Hour)
	clockMu.Unlock()
	serveAs("2.2.2.2")

	// Prune: 1.1.1.1 is idle; its tier drop blocks.
	pruned := make(chan int, 1)
	go func() { pruned <- p.PruneUsers(30 * time.Minute) }()
	if scope := <-tier.entered; scope != "1.1.1.1" {
		t.Fatalf("pruned scope %q, want 1.1.1.1", scope)
	}
	served("during prune", "2.2.2.2")
	tier.release <- struct{}{}
	if n := <-pruned; n != 1 {
		t.Fatalf("PruneUsers = %d, want 1", n)
	}

	// maxUsers eviction: once the table is full, a further user evicts the
	// least recently seen one (2.2.2.2), and that drop blocks too — only the
	// evicting request waits.
	clockMu.Lock()
	now = now.Add(time.Minute)
	clockMu.Unlock()
	for i := 2; i < maxUsers; i++ {
		p.user(fmt.Sprint("filler", i))
	}
	serveAs("3.3.3.3")
	evicting := make(chan int, 1)
	go func() { evicting <- serveAs("4.4.4.4") }()
	<-tier.entered
	served("during eviction", "3.3.3.3")
	tier.release <- struct{}{}
	if code := <-evicting; code != 200 {
		t.Fatalf("evicting request: status %d, want 200", code)
	}
}
