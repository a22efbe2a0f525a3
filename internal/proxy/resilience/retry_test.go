package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"appx/internal/httpmsg"
)

// flakyUpstream fails the first n calls, then succeeds.
type flakyUpstream struct {
	failFirst int
	calls     int
}

func (f *flakyUpstream) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	f.calls++
	if f.calls <= f.failFirst {
		return nil, fmt.Errorf("transient failure %d", f.calls)
	}
	return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
}

func instantSleep(ctx context.Context, d time.Duration) error { return nil }

func TestRetrySucceedsAfterTransientFailure(t *testing.T) {
	up := &flakyUpstream{failFirst: 1}
	rt := NewRetrier(up, RetryOptions{MaxAttempts: 2, Sleep: instantSleep}, nil, false)
	resp, err := rt.RoundTrip(context.Background(), &httpmsg.Request{Method: "GET", Host: "h", Path: "/"})
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if resp.Status != 200 || up.calls != 2 {
		t.Fatalf("status=%d calls=%d, want 200 after 2 calls", resp.Status, up.calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	up := &flakyUpstream{failFirst: 10}
	rt := NewRetrier(up, RetryOptions{MaxAttempts: 3, Sleep: instantSleep}, nil, false)
	_, err := rt.RoundTrip(context.Background(), &httpmsg.Request{Method: "GET", Host: "h", Path: "/"})
	if err == nil {
		t.Fatal("expected error after exhausting attempts")
	}
	if up.calls != 3 {
		t.Fatalf("calls = %d, want 3", up.calls)
	}
}

func TestRetryOnlyIdempotentMethods(t *testing.T) {
	for _, method := range []string{"POST", "PUT", "DELETE", "PATCH"} {
		up := &flakyUpstream{failFirst: 10}
		rt := NewRetrier(up, RetryOptions{MaxAttempts: 3, Sleep: instantSleep}, nil, false)
		if _, err := rt.RoundTrip(context.Background(), &httpmsg.Request{Method: method, Host: "h", Path: "/"}); err == nil {
			t.Fatalf("%s: expected error", method)
		}
		if up.calls != 1 {
			t.Fatalf("%s retried: %d calls, want 1", method, up.calls)
		}
	}
}

func TestRetryCountsCallback(t *testing.T) {
	up := &flakyUpstream{failFirst: 2}
	var retries int
	rt := NewRetrier(up, RetryOptions{MaxAttempts: 3, Sleep: instantSleep,
		OnRetry: func(host string, attempt int) { retries++ }}, nil, false)
	if _, err := rt.RoundTrip(context.Background(), &httpmsg.Request{Method: "GET", Host: "h", Path: "/"}); err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if retries != 2 {
		t.Fatalf("OnRetry fired %d times, want 2", retries)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base, max := 100*time.Millisecond, time.Second
	// The full-jitter envelope: attempt k draws uniformly from
	// [0, min(max, base<<k)).
	for attempt := 0; attempt < 8; attempt++ {
		ceil := base << attempt
		if ceil > max {
			ceil = max
		}
		for i := 0; i < 200; i++ {
			d := Backoff(attempt, base, max, rng.Float64)
			if d < 0 || d >= ceil {
				t.Fatalf("attempt %d: backoff %v outside [0, %v)", attempt, d, ceil)
			}
		}
	}
}

func TestBackoffDeterministicWithSeededRand(t *testing.T) {
	seq := func() []time.Duration {
		rng := rand.New(rand.NewSource(5))
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = Backoff(i, 50*time.Millisecond, 2*time.Second, rng.Float64)
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestRetryPerAttemptDeadline(t *testing.T) {
	// Each attempt gets its own deadline: an upstream that blocks until its
	// context expires fails per attempt rather than hanging forever.
	attempts := 0
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		attempts++
		<-ctx.Done()
		return nil, ctx.Err()
	})
	rt := NewRetrier(up, RetryOptions{
		MaxAttempts: 2, PerAttemptTimeout: 20 * time.Millisecond, Sleep: instantSleep,
	}, nil, false)
	start := time.Now()
	_, err := rt.RoundTrip(context.Background(), &httpmsg.Request{Method: "GET", Host: "h", Path: "/"})
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("per-attempt deadlines did not bound the call: %v", elapsed)
	}
}

func TestRetryHonoursCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	up := &flakyUpstream{}
	rt := NewRetrier(up, RetryOptions{Sleep: instantSleep}, nil, false)
	if _, err := rt.RoundTrip(ctx, &httpmsg.Request{Method: "GET", Host: "h", Path: "/"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if up.calls != 0 {
		t.Fatal("attempted a round trip under a cancelled context")
	}
}

func TestRetryGatedByOpenBreaker(t *testing.T) {
	clock := newFakeClock()
	bs := NewBreakers(BreakerOptions{FailureThreshold: 2, OpenTimeout: 10 * time.Second, Now: clock.Now})
	up := &flakyUpstream{failFirst: 100}
	rt := NewRetrier(up, RetryOptions{MaxAttempts: 1, Sleep: instantSleep}, bs, true)
	req := &httpmsg.Request{Method: "GET", Host: "sick", Path: "/"}
	// Two failures trip the breaker; the third call fails fast with ErrOpen
	// without reaching the upstream.
	for i := 0; i < 2; i++ {
		rt.RoundTrip(context.Background(), req)
	}
	calls := up.calls
	_, err := rt.RoundTrip(context.Background(), req)
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
	if up.calls != calls {
		t.Fatal("gated request still reached the upstream")
	}
	// After the timeout, the probe goes through and heals the circuit.
	clock.Advance(10 * time.Second)
	up.failFirst = 0
	up.calls = 0
	if _, err := rt.RoundTrip(context.Background(), req); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := bs.State("sick"); got != Closed {
		t.Fatalf("state after healed probe = %v, want closed", got)
	}
}

func TestRetryUngatedStillReportsToBreaker(t *testing.T) {
	clock := newFakeClock()
	bs := NewBreakers(BreakerOptions{FailureThreshold: 2, OpenTimeout: 10 * time.Second, Now: clock.Now})
	up := &flakyUpstream{failFirst: 100}
	rt := NewRetrier(up, RetryOptions{MaxAttempts: 1, Sleep: instantSleep}, bs, false)
	req := &httpmsg.Request{Method: "GET", Host: "sick", Path: "/"}
	for i := 0; i < 3; i++ {
		rt.RoundTrip(context.Background(), req)
	}
	// Ungated: every call still reaches the upstream even once open...
	if up.calls != 3 {
		t.Fatalf("upstream calls = %d, want 3", up.calls)
	}
	// ...but the breaker has observed the failures.
	if got := bs.State("sick"); got != Open {
		t.Fatalf("state = %v, want open", got)
	}
}

func TestRetryFiveHundredCountsAsBreakerFailure(t *testing.T) {
	clock := newFakeClock()
	bs := NewBreakers(BreakerOptions{FailureThreshold: 2, OpenTimeout: time.Second, Now: clock.Now})
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 503}, nil
	})
	rt := NewRetrier(up, RetryOptions{MaxAttempts: 1, Sleep: instantSleep}, bs, false)
	req := &httpmsg.Request{Method: "GET", Host: "h", Path: "/"}
	for i := 0; i < 2; i++ {
		if _, err := rt.RoundTrip(context.Background(), req); err != nil {
			t.Fatalf("RoundTrip: %v", err) // 5xx is returned, not retried
		}
	}
	if got := bs.State("h"); got != Open {
		t.Fatalf("state after 5xx streak = %v, want open", got)
	}
}

// attemptContexts records the context each attempt was handed and answers
// with a streaming body, so the tests below can watch it live and die.
type attemptContexts struct {
	ctxs []context.Context
	fail int // leading attempts that fail
}

func (a *attemptContexts) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	a.ctxs = append(a.ctxs, ctx)
	if len(a.ctxs) <= a.fail {
		return nil, errors.New("transient")
	}
	resp := &httpmsg.Response{Status: 200}
	resp.SetStream(io.NopCloser(strings.NewReader("body")))
	return resp, nil
}

var getReq = &httpmsg.Request{Method: "GET", Host: "h", Path: "/"}

// TestRetryOneDeadlineContextPerAttempt: a caller whose deadline is already
// the earliest bound is handed down as is — no second timer context nested
// inside it — and closing the streamed body must not cancel what the caller
// still owns.
func TestRetryOneDeadlineContextPerAttempt(t *testing.T) {
	up := &attemptContexts{}
	rt := NewRetrier(up, RetryOptions{PerAttemptTimeout: time.Minute, Sleep: instantSleep}, nil, false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := rt.RoundTrip(ctx, getReq)
	if err != nil {
		t.Fatal(err)
	}
	if up.ctxs[0] != ctx {
		t.Fatal("attempt ran under a derived context although the caller's deadline is the earlier one")
	}
	resp.CloseBody()
	if ctx.Err() != nil {
		t.Fatal("closing the body cancelled the caller's context")
	}
}

// TestRetryPerAttemptTimeoutStillApplies: with no caller deadline, or a
// later one, each attempt gets its own — which fires on a stalled attempt,
// outlives RoundTrip for a streaming body, and dies when the body closes.
func TestRetryPerAttemptTimeoutStillApplies(t *testing.T) {
	later, cancelLater := context.WithTimeout(context.Background(), time.Hour)
	defer cancelLater()
	for name, caller := range map[string]context.Context{"no deadline": context.Background(), "later deadline": later} {
		up := &attemptContexts{}
		rt := NewRetrier(up, RetryOptions{PerAttemptTimeout: time.Minute, Sleep: instantSleep}, nil, false)
		before := time.Now()
		resp, err := rt.RoundTrip(caller, getReq)
		if err != nil {
			t.Fatal(err)
		}
		actx := up.ctxs[0]
		dl, ok := actx.Deadline()
		if !ok || dl.Before(before.Add(time.Minute)) || dl.After(time.Now().Add(time.Minute)) {
			t.Fatalf("%s: attempt deadline %v (set %v), want one minute out", name, dl, ok)
		}
		if actx.Err() != nil {
			t.Fatalf("%s: the attempt context died before its streaming body was closed", name)
		}
		resp.CloseBody()
		if actx.Err() == nil {
			t.Fatalf("%s: closing the body left the attempt context alive", name)
		}
	}
	// And it fires: TestRetryPerAttemptDeadline blocks two attempts on it.
}

// TestRetryTotalTimeout: TotalTimeout caps every attempt's deadline from the
// first attempt on, and no retry starts whose wait would outlast it.
func TestRetryTotalTimeout(t *testing.T) {
	up := &attemptContexts{fail: 1}
	rt := NewRetrier(up, RetryOptions{MaxAttempts: 2, PerAttemptTimeout: time.Minute, TotalTimeout: 90 * time.Second,
		BaseDelay: time.Millisecond, Sleep: instantSleep}, nil, false)
	before := time.Now()
	resp, err := rt.RoundTrip(context.Background(), getReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.CloseBody()
	if len(up.ctxs) != 2 {
		t.Fatalf("%d attempts, want 2", len(up.ctxs))
	}
	first, _ := up.ctxs[0].Deadline()
	second, _ := up.ctxs[1].Deadline()
	if first.After(time.Now().Add(time.Minute)) || second.Before(before.Add(time.Minute)) || second.After(time.Now().Add(90*time.Second)) {
		t.Fatalf("deadlines %v then %v: want the per-attempt minute, then the 90 s total", first.Sub(before), second.Sub(before))
	}

	// A total bound shorter than the backoff: the first failure is final.
	up = &attemptContexts{fail: 2}
	rt = NewRetrier(up, RetryOptions{MaxAttempts: 2, TotalTimeout: 50 * time.Millisecond,
		BaseDelay: time.Hour, MaxDelay: time.Hour, Rand: func() float64 { return 0.5 }, Sleep: instantSleep}, nil, false)
	if _, err := rt.RoundTrip(context.Background(), getReq); err == nil || len(up.ctxs) != 1 {
		t.Fatalf("err %v after %d attempts, want the first failure and no retry", err, len(up.ctxs))
	}
}
