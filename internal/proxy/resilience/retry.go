package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"appx/internal/httpmsg"
)

// Upstream mirrors the proxy's origin-side transaction interface. It is
// declared here (structurally identical to proxy.Upstream) so the middleware
// can wrap any upstream without an import cycle.
type Upstream interface {
	RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error)
}

// UpstreamFunc adapts a function to Upstream.
type UpstreamFunc func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error)

// RoundTrip implements Upstream.
func (f UpstreamFunc) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	return f(ctx, r)
}

// ErrOpen is returned (wrapped) when a request is rejected because the
// host's circuit breaker is open.
var ErrOpen = errors.New("resilience: circuit open")

// RetryOptions configures the retrying middleware.
type RetryOptions struct {
	// MaxAttempts bounds total tries per idempotent request, including the
	// first (default 2: one fast retry). Non-idempotent requests always get
	// exactly one attempt.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff between attempts (default
	// 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// PerAttemptTimeout bounds each individual attempt (default 15s). The
	// caller's context still bounds the whole request.
	PerAttemptTimeout time.Duration
	// TotalTimeout, when > 0, bounds the whole request — every attempt, the
	// waits between them, and a streamed body — from its first attempt, for
	// callers that have no deadline of their own to hand down (prefetches).
	TotalTimeout time.Duration
	// Rand supplies the jitter draws in [0,1); defaults to math/rand.
	// Injected for deterministic tests.
	Rand func() float64
	// Sleep waits between attempts; defaults to a context-aware timer.
	// Injected so tests run instantly.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when set, is called before each retry attempt (attempt is
	// 1-based: 1 = first retry).
	OnRetry func(host string, attempt int)
}

func (o *RetryOptions) fill() {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 50 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Second
	}
	if o.PerAttemptTimeout <= 0 {
		o.PerAttemptTimeout = 15 * time.Second
	}
	if o.Rand == nil {
		o.Rand = rand.Float64
	}
	if o.Sleep == nil {
		o.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// Backoff computes the delay before retry `attempt` (0-based) using capped
// exponential backoff with full jitter: uniform in [0, min(max, base<<attempt)).
// Full jitter decorrelates the retry storms of many callers hitting the same
// sick origin.
func Backoff(attempt int, base, max time.Duration, rnd func() float64) time.Duration {
	if base <= 0 {
		return 0
	}
	ceil := base
	for i := 0; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if max > 0 && ceil > max {
		ceil = max
	}
	return time.Duration(rnd() * float64(ceil))
}

// idempotent reports whether a request is safe to replay against the origin.
// Retrying is restricted to side-effect-free methods: replaying a POST could
// alter app state (violating the proxy's R3 transparency guarantee).
func idempotent(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, "get", "head":
		return true
	}
	return false
}

// Retrier is an Upstream middleware: per-attempt deadlines, breaker
// accounting, and capped-backoff retries for idempotent requests.
type Retrier struct {
	next Upstream
	opts RetryOptions

	// breakers, when set, receives success/failure reports for every
	// attempt. When gate is also true, requests to a host whose breaker is
	// not admitting traffic fail fast with ErrOpen.
	breakers *Breakers
	gate     bool
}

// NewRetrier wraps next. breakers may be nil (no circuit accounting); gate
// selects whether an open breaker rejects requests outright (the prefetch
// path) or merely records outcomes (the live-forwarding path, which must
// still try on the client's behalf).
func NewRetrier(next Upstream, opts RetryOptions, breakers *Breakers, gate bool) *Retrier {
	opts.fill()
	return &Retrier{next: next, opts: opts, breakers: breakers, gate: gate}
}

// attemptContext bounds one attempt by the earliest of the per-attempt
// timeout, the total bound and the caller's own deadline, with at most one
// timer: a caller whose deadline already is the earliest is handed down as
// is.
func (rt *Retrier) attemptContext(ctx context.Context, overall time.Time) (context.Context, context.CancelFunc) {
	d := time.Now().Add(rt.opts.PerAttemptTimeout)
	if !overall.IsZero() && overall.Before(d) {
		d = overall
	}
	if cur, ok := ctx.Deadline(); ok && !cur.After(d) {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, d)
}

// RoundTrip implements Upstream.
func (rt *Retrier) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	attempts := 1
	if idempotent(r.Method) {
		attempts = rt.opts.MaxAttempts
	}
	var overall time.Time
	if rt.opts.TotalTimeout > 0 {
		overall = time.Now().Add(rt.opts.TotalTimeout)
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rt.breakers != nil && rt.gate {
			if !rt.breakers.Allow(r.Host) {
				return nil, fmt.Errorf("%s: %w", r.Host, ErrOpen)
			}
		}
		actx, cancel := rt.attemptContext(ctx, overall)
		resp, err := rt.next.RoundTrip(actx, r)
		if err == nil && resp != nil && resp.Streaming() {
			// A streaming body outlives this attempt: cancelling now would
			// sever it mid-transfer. The attempt context lives until the
			// caller closes the body; the timeout still bounds a wedged
			// stream because cancel fires when the deadline expires.
			resp.OnBodyClose(cancel)
		} else {
			cancel()
		}
		if rt.breakers != nil {
			if err != nil || (resp != nil && resp.Status >= http.StatusInternalServerError) {
				rt.breakers.ReportFailure(r.Host)
			} else {
				rt.breakers.ReportSuccess(r.Host)
			}
		}
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if attempt+1 >= attempts {
			break
		}
		if rt.opts.OnRetry != nil {
			rt.opts.OnRetry(r.Host, attempt+1)
		}
		wait := Backoff(attempt, rt.opts.BaseDelay, rt.opts.MaxDelay, rt.opts.Rand)
		if !overall.IsZero() && time.Now().Add(wait).After(overall) {
			// The total bound would pass during the wait: no attempt is left.
			return nil, fmt.Errorf("resilience: retry wait: %w", lastErr)
		}
		if err := rt.opts.Sleep(ctx, wait); err != nil {
			return nil, fmt.Errorf("resilience: retry wait: %w", lastErr)
		}
	}
	return nil, lastErr
}
