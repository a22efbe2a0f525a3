package proxy

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"appx/internal/httpmsg"
	"appx/internal/proxy/resilience"
	"appx/internal/sig"
)

// attemptLog is a stub origin that records the context each attempt was
// handed. The first fail attempts fail with a transport error; the rest
// answer status (200 by default, with a streamed body), so a test reads the
// deadlines and watches each context live and die instead of waiting.
type attemptLog struct {
	mu     sync.Mutex
	ctxs   []context.Context
	fail   int
	status int
}

func (a *attemptLog) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ctxs = append(a.ctxs, ctx)
	if len(a.ctxs) <= a.fail {
		return nil, errors.New("transient origin failure")
	}
	if a.status != 0 {
		return &httpmsg.Response{Status: a.status}, nil
	}
	resp := &httpmsg.Response{Status: 200}
	resp.SetStream(io.NopCloser(strings.NewReader("body")))
	return resp, nil
}

func (a *attemptLog) calls() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.ctxs)
}

// roundTripProxy builds a proxy on an empty graph over up, on a frozen clock
// the test moves through the returned pointer.
func roundTripProxy(t *testing.T, up Upstream, tun tuning) (*Proxy, *time.Time) {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	p := newProxy(Options{Graph: sig.NewGraph("t"), Upstream: up,
		Now: func() time.Time { return now }}, tun)
	t.Cleanup(p.Close)
	return p, &now
}

// deadlineWithin fails unless ctx has a deadline d after [from, to].
func deadlineWithin(t *testing.T, what string, ctx context.Context, from, to time.Time, d time.Duration) time.Time {
	t.Helper()
	dl, ok := ctx.Deadline()
	if !ok || dl.Before(from.Add(d)) || dl.After(to.Add(d)) {
		t.Fatalf("%s: deadline %v (set %v), want %v out", what, dl, ok, d)
	}
	return dl
}

// TestRoundTripPerAttemptDeadline: each attempt runs under a deadline of
// its own, attemptTimeout out, given up when the attempt fails.
func TestRoundTripPerAttemptDeadline(t *testing.T) {
	up := &attemptLog{fail: 2}
	p, _ := roundTripProxy(t, up, defaultTuning())
	before := time.Now()
	if _, err := p.roundTrip(context.Background(), getReq("/"), false); err == nil {
		t.Fatal("two failed attempts returned no error")
	}
	after := time.Now()
	if len(up.ctxs) != 2 || up.ctxs[0] == up.ctxs[1] {
		t.Fatalf("%d attempts, want 2 under contexts of their own", len(up.ctxs))
	}
	for i, ctx := range up.ctxs {
		deadlineWithin(t, "attempt", ctx, before, after, attemptTimeout)
		if ctx.Err() == nil {
			t.Fatalf("attempt %d's context outlived its failure", i)
		}
	}
}

// TestRoundTripExhaustsAttempts: a replayable request gets retryAttempts
// tries and then the last error.
func TestRoundTripExhaustsAttempts(t *testing.T) {
	up := &attemptLog{fail: 10}
	tun := defaultTuning()
	tun.retryAttempts = 3
	p, _ := roundTripProxy(t, up, tun)
	if _, err := p.roundTrip(context.Background(), getReq("/"), false); err == nil || err.Error() != "transient origin failure" {
		t.Fatalf("err = %v, want the last attempt's", err)
	}
	if up.calls() != 3 || p.Stats().Retries() != 2 {
		t.Fatalf("%d attempts, %d retries, want 3 and 2", up.calls(), p.Stats().Retries())
	}
}

// TestRoundTripSucceedsAfterTransientFailure: a replayable request whose
// first attempt fails gets the second attempt's answer.
func TestRoundTripSucceedsAfterTransientFailure(t *testing.T) {
	up := &attemptLog{fail: 1}
	p, _ := roundTripProxy(t, up, defaultTuning())
	resp, err := p.roundTrip(context.Background(), getReq("/"), false)
	if err != nil {
		t.Fatalf("roundTrip: %v", err)
	}
	defer resp.CloseBody()
	if resp.Status != 200 || up.calls() != 2 {
		t.Fatalf("status=%d calls=%d, want 200 after 2 calls", resp.Status, up.calls())
	}
}

// TestRoundTripOnlyReplayableMethods: a method that may change state and
// carries no idempotency key is sent once, however many attempts are set.
func TestRoundTripOnlyReplayableMethods(t *testing.T) {
	tun := defaultTuning()
	tun.retryAttempts = 3
	for _, method := range []string{"POST", "PUT", "DELETE", "PATCH"} {
		up := &attemptLog{fail: 10}
		p, _ := roundTripProxy(t, up, tun)
		r := getReq("/")
		r.Method = method
		if _, err := p.roundTrip(context.Background(), r, false); err == nil {
			t.Fatalf("%s: expected error", method)
		}
		if up.calls() != 1 || p.Stats().Retries() != 0 {
			t.Fatalf("%s retried: %d calls, %d retries, want 1 and 0", method, up.calls(), p.Stats().Retries())
		}
	}
}

// TestRoundTripCountsRetries: the proxy-wide counter (the admin "retries"
// key) counts attempts beyond the first, forwarded and prefetched alike, and
// a first-try success adds none.
func TestRoundTripCountsRetries(t *testing.T) {
	up := &attemptLog{fail: 1}
	p, _ := roundTripProxy(t, up, defaultTuning())
	for _, prefetch := range []bool{false, true} {
		up.mu.Lock()
		up.ctxs, up.fail = nil, 1
		up.mu.Unlock()
		resp, err := p.roundTrip(context.Background(), getReq("/"), prefetch)
		if err != nil {
			t.Fatalf("prefetch=%v: %v", prefetch, err)
		}
		resp.CloseBody()
	}
	resp, err := p.roundTrip(context.Background(), getReq("/"), false)
	if err != nil {
		t.Fatal(err)
	}
	resp.CloseBody()
	if n := p.Stats().Retries(); n != 2 {
		t.Fatalf("%d retries counted, want 2", n)
	}
	if snap := p.Stats().Snapshot(); snap.Retries != 2 {
		t.Fatalf("snapshot retries = %d, want 2", snap.Retries)
	}
}

// TestRoundTripHonoursCallerContext: a cancelled caller gets its own error,
// and nothing reaches the origin or the breaker.
func TestRoundTripHonoursCallerContext(t *testing.T) {
	up := &attemptLog{}
	p, _ := roundTripProxy(t, up, defaultTuning())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, prefetch := range []bool{false, true} {
		if _, err := p.roundTrip(ctx, getReq("/"), prefetch); !errors.Is(err, context.Canceled) {
			t.Fatalf("prefetch=%v: err = %v, want context.Canceled", prefetch, err)
		}
	}
	if up.calls() != 0 {
		t.Fatal("attempted a round trip under a cancelled context")
	}
	if b := p.breakers.Snapshot()["o.example"]; b.ConsecutiveFailures != 0 {
		t.Fatalf("%d breaker failures for attempts never made", b.ConsecutiveFailures)
	}
	// A forwarded GET whose client leaves while its first attempt fails is
	// not retried, and no retry is counted.
	ctx, cancel = context.WithCancel(context.Background())
	calls := 0
	p, _ = roundTripProxy(t, UpstreamFunc(func(context.Context, *httpmsg.Request) (*httpmsg.Response, error) {
		calls++
		cancel()
		return nil, errors.New("transient origin failure")
	}), defaultTuning())
	if _, err := p.roundTrip(ctx, getReq("/"), false); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 || p.Stats().Retries() != 0 {
		t.Fatalf("%d attempts and %d retries counted after the client left, want 1 and 0", calls, p.Stats().Retries())
	}
}

// TestRoundTripOneDeadlineContextPerAttempt: a caller whose deadline is
// already the earliest bound is handed down as is — no second timer context
// nested inside it, on the retry either — and closing the streamed body
// does not cancel what the caller still owns.
func TestRoundTripOneDeadlineContextPerAttempt(t *testing.T) {
	up := &attemptLog{fail: 1}
	p, _ := roundTripProxy(t, up, defaultTuning())
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := p.roundTrip(ctx, getReq("/"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(up.ctxs) != 2 || up.ctxs[0] != ctx || up.ctxs[1] != ctx {
		t.Fatal("an attempt ran under a derived context although the caller's deadline is the earlier one")
	}
	resp.CloseBody()
	if ctx.Err() != nil {
		t.Fatal("closing the body cancelled the caller's context")
	}
}

// TestRoundTripPerAttemptTimeoutStillApplies: with no caller deadline, or a
// later one, the attempt gets its own, which outlives roundTrip for a
// streaming body and dies when the body closes.
func TestRoundTripPerAttemptTimeoutStillApplies(t *testing.T) {
	later, cancelLater := context.WithTimeout(context.Background(), time.Hour)
	defer cancelLater()
	for name, caller := range map[string]context.Context{"no deadline": context.Background(), "later deadline": later} {
		up := &attemptLog{}
		p, _ := roundTripProxy(t, up, defaultTuning())
		before := time.Now()
		resp, err := p.roundTrip(caller, getReq("/"), false)
		if err != nil {
			t.Fatal(err)
		}
		actx := up.ctxs[0]
		deadlineWithin(t, name, actx, before, time.Now(), attemptTimeout)
		if actx.Err() != nil {
			t.Fatalf("%s: the attempt context died before its streaming body was closed", name)
		}
		resp.CloseBody()
		if actx.Err() == nil {
			t.Fatalf("%s: closing the body left the attempt context alive", name)
		}
	}
}

// TestRoundTripPrefetchTotalTimeout: a prefetch's prefetchTimeout, counted
// from its first attempt, bounds every attempt and the streamed body; a
// forwarded request under the same tuning keeps attemptTimeout.
func TestRoundTripPrefetchTotalTimeout(t *testing.T) {
	tun := defaultTuning()
	tun.prefetchTimeout = attemptTimeout / 2
	up := &attemptLog{fail: 1}
	p, _ := roundTripProxy(t, up, tun)
	before := time.Now()
	resp, err := p.roundTrip(context.Background(), getReq("/"), true)
	if err != nil {
		t.Fatal(err)
	}
	after := time.Now()
	if len(up.ctxs) != 2 {
		t.Fatalf("%d attempts, want 2", len(up.ctxs))
	}
	first := deadlineWithin(t, "first attempt", up.ctxs[0], before, after, tun.prefetchTimeout)
	if second, _ := up.ctxs[1].Deadline(); !second.Equal(first) {
		t.Fatalf("the retry's deadline %v is not the first attempt's %v: the bound restarted", second, first)
	}
	if up.ctxs[1].Err() != nil {
		t.Fatal("the bound cut the streamed body before it was closed")
	}
	resp.CloseBody()
	if up.ctxs[1].Err() == nil {
		t.Fatal("closing the body left the prefetch's context alive")
	}

	up = &attemptLog{}
	p, _ = roundTripProxy(t, up, tun)
	before = time.Now()
	if resp, err = p.roundTrip(context.Background(), getReq("/"), false); err != nil {
		t.Fatal(err)
	}
	resp.CloseBody()
	deadlineWithin(t, "forwarded attempt", up.ctxs[0], before, time.Now(), attemptTimeout)
}

// TestRoundTripPrefetchGatedByOpenBreaker: the breaker is asked before each
// prefetch attempt. Once open, a prefetch fails fast without reaching the
// origin — the retry too, when the first attempt is the one that opened
// it — and after the open time one probe goes through and heals it.
func TestRoundTripPrefetchGatedByOpenBreaker(t *testing.T) {
	up := &attemptLog{fail: 1 << 20}
	p, now := roundTripProxy(t, up, defaultTuning())
	for i := 0; i < breakerFailures-1; i++ {
		p.breakers.ReportFailure("o.example")
	}
	if _, err := p.roundTrip(context.Background(), getReq("/"), true); err != errBreakerOpen {
		t.Fatalf("err = %v, want the retry refused by the breaker its first attempt opened", err)
	}
	if up.calls() != 1 || p.Stats().Retries() != 0 {
		t.Fatalf("%d attempts reached the origin and %d retries were counted, want the first alone and none", up.calls(), p.Stats().Retries())
	}
	if _, err := p.roundTrip(context.Background(), getReq("/"), true); err != errBreakerOpen || up.calls() != 1 {
		t.Fatalf("err = %v after %d attempts: a prefetch to an open breaker reached the origin", err, up.calls())
	}
	*now = now.Add(breakerOpenTimeout)
	up.mu.Lock()
	up.fail = 0
	up.mu.Unlock()
	resp, err := p.roundTrip(context.Background(), getReq("/"), true)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	resp.CloseBody()
	if st := p.breakers.State("o.example"); st != resilience.Closed {
		t.Fatalf("state after a healed probe = %v, want closed", st)
	}
}

// TestFetchFlightCountsOpenBreakerAsSuppressed: a prefetch whose host's
// breaker opened after it was queued is suppression, not an origin failure.
func TestFetchFlightCountsOpenBreakerAsSuppressed(t *testing.T) {
	p, commit := commitFixture(t, false)
	frozen := time.Unix(1_800_000_000, 0)
	p.opts.Now = func() time.Time { return frozen }
	for i := 0; i < breakerFailures; i++ {
		p.breakers.ReportFailure("h.example")
	}
	commit()
	st := p.Stats().Snapshot().PerSig["t:img#0"]
	if st.PrefetchSuppressed != 1 || st.PrefetchErrors != 0 || st.Prefetches != 0 {
		t.Fatalf("suppressed %d, errors %d, prefetches %d: want one suppression and nothing else",
			st.PrefetchSuppressed, st.PrefetchErrors, st.Prefetches)
	}
}

// TestRoundTripForwardStillReportsToBreaker: a forwarded request is tried
// even once its host's breaker is open — the client asked — and every
// failure still reaches the breaker.
func TestRoundTripForwardStillReportsToBreaker(t *testing.T) {
	up := &attemptLog{fail: 1 << 20}
	p, _ := roundTripProxy(t, up, breakerOnly())
	for i := 0; i <= breakerFailures; i++ {
		p.roundTrip(context.Background(), getReq("/"), false)
	}
	if up.calls() != breakerFailures+1 {
		t.Fatalf("%d forwarded attempts reached the origin, want %d", up.calls(), breakerFailures+1)
	}
	if st := p.breakers.State("o.example"); st != resilience.Open {
		t.Fatalf("state = %v, want open", st)
	}
}

// TestRoundTripFiveHundredCountsAsBreakerFailure: a 5xx is the origin's
// answer, returned to the caller and not retried, and a breaker failure.
func TestRoundTripFiveHundredCountsAsBreakerFailure(t *testing.T) {
	up := &attemptLog{status: 503}
	p, _ := roundTripProxy(t, up, defaultTuning())
	for i := 0; i < breakerFailures; i++ {
		resp, err := p.roundTrip(context.Background(), getReq("/"), false)
		if err != nil || resp.Status != 503 {
			t.Fatalf("%v, %+v: want the 503 itself", err, resp)
		}
	}
	if up.calls() != breakerFailures || p.Stats().Retries() != 0 {
		t.Fatalf("%d attempts, %d retries: a 503 was retried", up.calls(), p.Stats().Retries())
	}
	if st := p.breakers.State("o.example"); st != resilience.Open {
		t.Fatalf("state after a 5xx streak = %v, want open", st)
	}
}

// ctxBody is a streamed origin body that dies with the context of the
// attempt that fetched it, in reads small enough that several happen.
type ctxBody struct {
	ctx context.Context
	r   io.Reader
}

func (b *ctxBody) Read(p []byte) (int, error) {
	if err := b.ctx.Err(); err != nil {
		return 0, err
	}
	if len(p) > 100 {
		p = p[:100]
	}
	return b.r.Read(p)
}

// TestForwardedStreamOutlivesRoundTrip: a forwarded body streams to the
// client after roundTrip has returned, on the flight path and on a plain
// passthrough, so the attempt's context must live until the body is
// closed: cancelled at return, the client would get a truncated body.
func TestForwardedStreamOutlivesRoundTrip(t *testing.T) {
	g := sig.NewGraph("t")
	g.Add(&sig.Signature{ID: "t:a#0", Method: "GET", URI: sig.Literal("h.example/flight")})
	whole := bytes.Repeat([]byte("0123456789"), 1000)
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		resp := &httpmsg.Response{Status: 200}
		resp.SetStream(io.NopCloser(&ctxBody{ctx: ctx, r: bytes.NewReader(whole)}))
		return resp, nil
	})
	p := New(Options{Graph: g, Upstream: up})
	defer p.Close()
	pt := &proxyTransport{p: p, user: "stream-user"}
	for _, path := range []string{"/flight", "/passthrough"} {
		resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: path})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Body, whole) {
			t.Fatalf("%s: the client read %d of %d body bytes", path, len(resp.Body), len(whole))
		}
	}
}
