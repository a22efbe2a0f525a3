package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"appx/internal/cache"
	"appx/internal/httpmsg"
	"appx/internal/netem"
	"appx/internal/obs/adminv1"
	"appx/internal/proxy/resilience"
	"appx/internal/sig"
)

// resilienceGraph builds a two-host dependency graph: a healthy list
// endpoint whose response fans out into detail fetches on the same healthy
// host and on a separately faultable host.
func resilienceGraph() *sig.Graph {
	g := sig.NewGraph("t")
	pred := &sig.Signature{ID: "t:list#0", Method: "GET", URI: sig.Literal("ok.example/list")}
	okSucc := &sig.Signature{ID: "t:okitem#0", Method: "GET", URI: sig.Literal("ok.example/detail"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(pred.ID, "ok[*]")}}}
	sickSucc := &sig.Signature{ID: "t:sickitem#0", Method: "GET", URI: sig.Literal("sick.example/item"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(pred.ID, "sick[*]")}}}
	g.Add(pred)
	g.Add(okSucc)
	g.Add(sickSucc)
	g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: okSucc.ID, RespPath: "ok[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: sickSucc.ID, RespPath: "sick[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	return g
}

// faultableUpstream serves the two-host origin in process. Requests for
// sick.example consult a seeded netem fault injector once one is installed
// (the injector's connect-refusal draw stands in for a refused dial), and
// every /list response carries fresh ids so each round spawns new prefetch
// work instead of deduplicating against the previous round's.
type faultableUpstream struct {
	// planning is write-held by drive while a /list request — and with it
	// the planning of the round's whole fan-out — is in progress; prefetch
	// round trips wait on it, so "a round is queued before any of it
	// executes" holds by construction instead of by goroutine timing.
	planning sync.RWMutex

	mu         sync.Mutex
	round      int
	perRound   int
	faults     *netem.Injector
	rejectSick bool
	calls      map[string]int // host → requests that reached the origin
}

func newFaultableUpstream(perRound int) *faultableUpstream {
	return &faultableUpstream{perRound: perRound, calls: map[string]int{}}
}

func (f *faultableUpstream) setFaults(in *netem.Injector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = in
}

func (f *faultableUpstream) reached(host string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[host]
}

func (f *faultableUpstream) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	if r.Path != "/list" {
		f.planning.RLock()
		defer f.planning.RUnlock()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if r.Host == "sick.example" && f.faults != nil && f.faults.ConnectRefused(r.Host) {
		return nil, fmt.Errorf("dial %s: %w", r.Host, netem.ErrInjectedRefusal)
	}
	f.calls[r.Host]++
	if r.Host == "sick.example" && f.rejectSick {
		return &httpmsg.Response{Status: 404, Body: []byte("no such item")}, nil
	}
	if r.Path == "/list" {
		f.round++
		ok := make([]string, f.perRound)
		sick := make([]string, f.perRound)
		for i := range ok {
			ok[i] = fmt.Sprintf("r%d-%d", f.round, i)
			sick[i] = fmt.Sprintf("s%d-%d", f.round, i)
		}
		body, _ := json.Marshal(map[string]any{"ok": ok, "sick": sick})
		return &httpmsg.Response{Status: 200,
			Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
			Body:   body}, nil
	}
	return &httpmsg.Response{Status: 200, Body: []byte(`{}`)}, nil
}

// resLab wires the two-host graph, a faultable origin, and a proxy with
// deterministic time and randomness into one driveable fixture.
type resLab struct {
	t  *testing.T
	p  *Proxy
	up *faultableUpstream
	pt *proxyTransport
}

func newResLab(t *testing.T, seed int64, tun tuning) *resLab {
	t.Helper()
	g := resilienceGraph()
	up := newFaultableUpstream(6)
	now := time.Unix(1_700_000_000, 0)
	rnd := rand.New(rand.NewSource(seed))
	// Workers: 1 keeps prefetch execution single-threaded so the injector's
	// seeded draw sequence — and therefore every breaker transition — is
	// identical run to run.
	p := newProxy(Options{Graph: g, Upstream: up, Workers: 1,
		Now:  func() time.Time { return now },
		Rand: rnd.Float64,
	}, tun)
	t.Cleanup(p.Close)
	l := &resLab{t: t, p: p, up: up, pt: &proxyTransport{p: p, user: "res-user"}}
	// Teach both successor exemplars before any fault exists.
	l.get("ok.example", "/detail", "seed")
	l.get("sick.example", "/item", "seed")
	return l
}

func (l *resLab) get(host, path, id string) *httpmsg.Response {
	l.t.Helper()
	req := &httpmsg.Request{Method: "GET", Host: host, Path: path}
	if id != "" {
		req.Query = []httpmsg.Field{{Key: "id", Value: id}}
	}
	resp, err := l.pt.RoundTrip(req)
	if err != nil {
		l.t.Fatalf("GET %s%s: %v", host, path, err)
	}
	return resp
}

// drive runs n list rounds: each teaches the proxy a fresh id fan-out,
// drains the prefetch queue, then consumes two of the round's healthy
// details (which must hit if prefetching stayed healthy).
func (l *resLab) drive(n int) {
	l.t.Helper()
	for i := 0; i < n; i++ {
		l.up.planning.Lock()
		l.get("ok.example", "/list", "")
		l.up.planning.Unlock()
		l.p.Drain()
		round := l.up.round
		l.get("ok.example", "/detail", fmt.Sprintf("r%d-0", round))
		l.get("ok.example", "/detail", fmt.Sprintf("r%d-1", round))
	}
}

func (l *resLab) health() adminv1.HealthResponse {
	l.t.Helper()
	req := httptest.NewRequest("GET", adminv1.PathHealth, nil)
	rec := httptest.NewRecorder()
	l.p.ServeHTTP(rec, req)
	if rec.Code != 200 {
		l.t.Fatalf("%s = %d", adminv1.PathHealth, rec.Code)
	}
	var out adminv1.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		l.t.Fatalf("%s not JSON: %v", adminv1.PathHealth, err)
	}
	return out
}

// breakerOnly is the tuning of the breaker tests: the breaker at its
// constant threshold, isolated from retries (one try per request) and from
// the signature backoff, whose limit of 3 would suspend the signature before
// the breaker's 5 failures.
func breakerOnly() tuning {
	tun := defaultTuning()
	tun.retryAttempts, tun.prefetchFailureLimit = 1, 1000
	return tun
}

// TestBreakerStopsPrefetchingDeadHost: a host refusing every connection
// stops receiving prefetch traffic after the breaker opens — the origin
// sees zero prefetch requests, failures stop at the breaker threshold, and
// later rounds are suppressed at planning time.
func TestBreakerStopsPrefetchingDeadHost(t *testing.T) {
	l := newResLab(t, 7, breakerOnly())
	in := netem.NewInjector(7)
	in.SetFault("sick.example", netem.Fault{ConnectRefuseProb: 1})
	l.up.setFaults(in)

	taught := l.up.reached("sick.example") // the exemplar-teaching request
	l.drive(6)

	snap := l.p.Stats().Snapshot()
	sick := snap.PerSig["t:sickitem#0"]
	if sick.PrefetchErrors != breakerFailures {
		t.Fatalf("prefetch errors = %d, want exactly the breaker threshold %d", sick.PrefetchErrors, breakerFailures)
	}
	if sick.PrefetchSuppressed == 0 {
		t.Fatal("no prefetches suppressed after breaker opened")
	}
	if got := l.up.reached("sick.example"); got != taught {
		t.Fatalf("dead host still received %d prefetch requests", got-taught)
	}
	if st := l.p.Breakers().State("sick.example"); st != resilience.Open {
		t.Fatalf("sick.example breaker = %v, want open", st)
	}
	// The healthy host is unaffected: every round's fan-out prefetched, and
	// the consumed details all hit.
	ok := snap.PerSig["t:okitem#0"]
	if ok.Prefetches != 6*6 {
		t.Fatalf("healthy prefetches = %d, want 36", ok.Prefetches)
	}
	if ok.Hits != 2*6 {
		t.Fatalf("healthy hits = %d, want 12", ok.Hits)
	}
	if st := l.p.Breakers().State("ok.example"); st != resilience.Closed {
		t.Fatalf("ok.example breaker = %v, want closed", st)
	}
}

// TestFaultSweepDegradesGracefully is the acceptance scenario: 30 %
// injected connect-failure on one host, driven until a run of refusals as
// long as the breaker threshold opens its breaker. The sick host's error
// count plateaus once it is open, the healthy host's hit behaviour is
// byte-for-byte identical to a fault-free run of as many rounds, and
// /appx/health reports the open breaker.
func TestFaultSweepDegradesGracefully(t *testing.T) {
	const seed, maxRounds = 42, 500

	// Faulted run: 30 % of sick.example connection attempts refused.
	l := newResLab(t, seed, breakerOnly())
	in := netem.NewInjector(seed)
	in.SetFault("sick.example", netem.Fault{ConnectRefuseProb: 0.3})
	l.up.setFaults(in)
	rounds := 0
	for l.p.Breakers().State("sick.example") != resilience.Open && rounds < maxRounds {
		l.drive(1)
		rounds++
	}
	t.Logf("breaker opened after %d rounds", rounds)

	// Fault-free reference run.
	clean := newResLab(t, seed, breakerOnly())
	clean.drive(rounds)
	cleanOK := clean.p.Stats().Snapshot().PerSig["t:okitem#0"]

	snap := l.p.Stats().Snapshot()
	sick := snap.PerSig["t:sickitem#0"]
	if sick.PrefetchErrors == 0 {
		t.Fatal("no injected failures observed")
	}
	if st := l.p.Breakers().State("sick.example"); st != resilience.Open {
		t.Fatalf("sick.example breaker = %v, want open after sustained faults", st)
	}
	// Plateau: with the breaker open (and a frozen clock, so it never times
	// out into half-open), further rounds add suppressions but no errors.
	l.drive(3)
	after := l.p.Stats().Snapshot().PerSig["t:sickitem#0"]
	if after.PrefetchErrors != sick.PrefetchErrors {
		t.Fatalf("errors kept growing after breaker opened: %d -> %d",
			sick.PrefetchErrors, after.PrefetchErrors)
	}
	if after.PrefetchSuppressed <= sick.PrefetchSuppressed {
		t.Fatalf("suppression count did not grow: %d -> %d",
			sick.PrefetchSuppressed, after.PrefetchSuppressed)
	}
	// Healthy host unaffected: same hits and prefetches as the clean run.
	ok := snap.PerSig["t:okitem#0"]
	if ok.Hits != cleanOK.Hits || ok.Hits == 0 {
		t.Fatalf("healthy host hits changed under fault: clean=%d faulted=%d", cleanOK.Hits, ok.Hits)
	}
	if ok.Prefetches != cleanOK.Prefetches {
		t.Fatalf("healthy host prefetches changed under fault: clean=%d faulted=%d",
			cleanOK.Prefetches, ok.Prefetches)
	}
	// /appx/v1/health reports the open breaker.
	h := l.health()
	if h.Status != "degraded" {
		t.Fatalf("health status = %v, want degraded", h.Status)
	}
	if sickBr, ok := h.Breakers["sick.example"]; !ok || sickBr.State != "open" {
		t.Fatalf("health breakers = %v, want sick.example open", h.Breakers)
	}
}

// TestSigBackoffSuspendsRejectedSignature: an origin that answers
// reconstructions with 404 does not trip the breaker (the host is healthy),
// but the signature's consecutive-failure backoff suspends it.
func TestSigBackoffSuspendsRejectedSignature(t *testing.T) {
	l := newResLab(t, 3, defaultTuning())
	l.up.mu.Lock()
	l.up.rejectSick = true
	l.up.mu.Unlock()

	l.drive(5)
	snap := l.p.Stats().Snapshot()
	sick := snap.PerSig["t:sickitem#0"]
	// Round 1 queues a full fan-out before the limit is reached, so every
	// instance of that round executes; later rounds are suppressed at
	// planning time and the reject count stays put.
	if sick.PrefetchRejects != 6 {
		t.Fatalf("prefetch rejects = %d, want one round's fan-out of 6", sick.PrefetchRejects)
	}
	if sick.PrefetchSuppressed == 0 {
		t.Fatal("suspended signature still planning prefetches")
	}
	if st := l.p.Breakers().State("sick.example"); st != resilience.Closed {
		t.Fatalf("breaker = %v for a host that answers; rejects must not trip it", st)
	}
	h := l.health()
	if h.Status != "degraded" {
		t.Fatalf("health status = %v, want degraded while a signature is suspended", h.Status)
	}
	if _, ok := h.SuspendedSignatures["t:sickitem#0"]; !ok {
		t.Fatalf("suspendedSignatures = %v, want t:sickitem#0", h.SuspendedSignatures)
	}
}

// TestPrefetchBodyErrorCountsAsFailure: a prefetch whose origin answers 200
// and then dies mid-body is a prefetch error like a failed round trip —
// counted, nothing cached, the dedup claim given back, and the signature
// suspended at the failure limit: the list names prefetchFailureLimit ids.
func TestPrefetchBodyErrorCountsAsFailure(t *testing.T) {
	const failAfter = 100 // bytes of body before the stream breaks
	var mu sync.Mutex
	var brokenKeys []string // canonical keys of the prefetches whose body broke
	up := UpstreamFunc(func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		switch {
		case r.Path == "/list":
			body, _ := json.Marshal(map[string]any{"ids": []string{"a", "b", "c"}})
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}}, Body: body}, nil
		case r.Query[0].Value == "seed":
			return &httpmsg.Response{Status: 200, Body: []byte("whole")}, nil
		}
		mu.Lock()
		brokenKeys = append(brokenKeys, r.CanonicalKey())
		mu.Unlock()
		resp := &httpmsg.Response{Status: 200}
		resp.SetStream(io.NopCloser(io.MultiReader(
			bytes.NewReader(bytes.Repeat([]byte("x"), failAfter)),
			iotest.ErrReader(errors.New("connection reset mid-body")))))
		return resp, nil
	})
	g := overloadGraph()
	now := time.Unix(1_700_000_000, 0)
	p := New(Options{Graph: g, Upstream: up, Workers: 1,
		Now: func() time.Time { return now }})
	t.Cleanup(p.Close)
	pt := &proxyTransport{p: p, user: "body-user"}
	if resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "app.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "seed"}}}); err != nil || resp.Status != 200 {
		t.Fatalf("exemplar request: %v %v", resp, err)
	}
	if resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "app.example", Path: "/list"}); err != nil || resp.Status != 200 {
		t.Fatalf("list request: %v %v", resp, err)
	}
	p.Drain()

	mu.Lock()
	defer mu.Unlock()
	if len(brokenKeys) != prefetchFailureLimit {
		t.Fatalf("%d prefetches reached the origin, want %d", len(brokenKeys), prefetchFailureLimit)
	}
	if st := p.Stats().Snapshot().PerSig["t:item#0"]; st.PrefetchErrors != prefetchFailureLimit {
		t.Fatalf("prefetch errors = %d, want every broken body counted", st.PrefetchErrors)
	}
	var text strings.Builder
	p.Registry().WritePrometheus(&text)
	if !strings.Contains(text.String(), fmt.Sprintf("appx_prefetch_errors_total %d\n", prefetchFailureLimit)) {
		t.Fatalf("appx_prefetch_errors_total did not rise to %d", prefetchFailureLimit)
	}
	if got := p.streamStats.bodyOverflows.Load(); got != 0 {
		t.Fatalf("body overflows = %d: a broken stream is not an over-cap body", got)
	}
	if n := p.Cache().Metrics().Entries; n != 0 {
		t.Fatalf("%d entries cached from broken bodies", n)
	}
	// The dedup claim is free again in whichever scope held it.
	for _, key := range brokenKeys {
		for _, scope := range []string{"body-user", cache.SharedScope} {
			if p.keys.snapshot()[issueKey(scope, key)].holder != nil {
				t.Fatalf("claim %q/%q still held after its prefetch failed", scope, key)
			}
		}
	}
	if _, until := p.sigs.byID["t:item#0"].backoff(); !p.opts.Now().Before(until) {
		t.Fatal("signature not suspended after prefetch_failure_limit broken bodies")
	}
}

// TestForwardRetryMasksTransientFailure: a live client GET gets one fast
// retry before the proxy reports 502, and non-idempotent methods do not.
func TestForwardRetryMasksTransientFailure(t *testing.T) {
	g := sig.NewGraph("t")
	g.Add(&sig.Signature{ID: "t:a#0", Method: "GET", URI: sig.Literal("h.example/x")})
	var calls, fails int
	var mu sync.Mutex
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if fails > 0 {
			fails--
			return nil, fmt.Errorf("transient origin failure")
		}
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	p := New(Options{Graph: g, Upstream: up})
	defer p.Close()
	pt := &proxyTransport{p: p, user: "retry-user"}

	fails = 1
	resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/x"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("GET after transient failure: %v status=%d", err, resp.Status)
	}
	if calls != 2 || p.Stats().Retries() != 1 {
		t.Fatalf("calls = %d retries = %d, want 2 and 1", calls, p.Stats().Retries())
	}

	// Non-idempotent requests must not be replayed: one failed attempt → 502.
	mu.Lock()
	calls, fails = 0, 1
	mu.Unlock()
	resp, err = pt.RoundTrip(&httpmsg.Request{Method: "POST", Host: "h.example", Path: "/x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 502 {
		t.Fatalf("POST status = %d, want 502 without retry", resp.Status)
	}
	if calls != 1 || p.Stats().Retries() != 1 {
		t.Fatalf("POST calls = %d retries = %d, want 1 attempt and no new retry", calls, p.Stats().Retries())
	}
}
