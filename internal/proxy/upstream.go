package proxy

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"appx/internal/httpmsg"
	"appx/internal/netem"
)

// Upstream performs origin-side HTTP transactions on behalf of the proxy —
// both forwarded client requests and prefetches. The context carries the
// caller's cancellation (a disconnected client, an attempt's deadline) all
// the way to the origin connection.
type Upstream interface {
	RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error)
}

// UpstreamFunc adapts a function to Upstream.
type UpstreamFunc func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error)

// RoundTrip implements Upstream.
func (f UpstreamFunc) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	return f(ctx, r)
}

// errBreakerOpen is a prefetch's answer when its host's breaker refused
// the attempt: nothing reached the origin.
var errBreakerOpen = errors.New("proxy: origin circuit open")

// roundTrip is the proxy's one origin call: forwarded requests and
// prefetches reach opts.Upstream here and nowhere else, so every attempt
// reports to its host's breaker (an error or a status of 500 and up is a
// failure) and every retry that is sent is counted. A replayable request
// (httpmsg.Replayable) whose attempt fails is sent again at once, up to
// retryAttempts tries; any other gets one. Each attempt is bounded by
// attemptTimeout; a caller deadline that is already the earliest is handed
// down as is. A prefetch has no client to bound it: prefetchTimeout bounds
// every attempt and its streamed body together, and an attempt goes out
// only while the host's breaker admits it (errBreakerOpen otherwise).
func (p *Proxy) roundTrip(ctx context.Context, r *httpmsg.Request, prefetch bool) (*httpmsg.Response, error) {
	attempts := 1
	if httpmsg.Replayable(r) {
		attempts = p.tun.retryAttempts
	}
	var overall time.Time
	if prefetch {
		overall = time.Now().Add(p.tun.prefetchTimeout)
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if prefetch && !p.breakers.Allow(r.Host) {
			return nil, errBreakerOpen
		}
		if attempt > 0 {
			p.stats.countRetry()
		}
		actx, cancel := attemptContext(ctx, overall)
		var resp *httpmsg.Response
		resp, err = p.opts.Upstream.RoundTrip(actx, r)
		if err == nil && resp.Streaming() {
			// The body outlives this call: its attempt context lives until
			// the caller closes it, and the deadline still ends a wedged
			// stream.
			resp.OnBodyClose(cancel)
		} else {
			cancel()
		}
		if err != nil || resp.Status >= http.StatusInternalServerError {
			p.breakers.ReportFailure(r.Host)
		} else {
			p.breakers.ReportSuccess(r.Host)
		}
		if err == nil {
			return resp, nil
		}
	}
	return nil, err
}

// attemptContext bounds one attempt by the earliest of attemptTimeout, the
// overall bound (when set) and the caller's own deadline, with at most one
// timer: a caller whose deadline already is the earliest is handed down as
// is.
func attemptContext(ctx context.Context, overall time.Time) (context.Context, context.CancelFunc) {
	d := time.Now().Add(attemptTimeout)
	if !overall.IsZero() && overall.Before(d) {
		d = overall
	}
	if cur, ok := ctx.Deadline(); ok && !cur.After(d) {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, d)
}

// NetUpstream is the origin client (httpmsg.Client, DESIGN.md §14) over
// emulated WAN links: each logical hostname resolves to a real listener
// address and is shaped by its configured netem link (Table 2's per-host
// proxy↔origin RTTs). Its idle pool is keyed by logical host.
//
// It follows no redirect: the device must receive the origin's own 3xx —
// bytes the origin sent for this request — not the redirect target's answer.
type NetUpstream struct {
	client *httpmsg.Client

	mu      sync.RWMutex
	resolve map[string]string
	links   map[string]netem.Link
	faults  *netem.Injector
}

// NewNetUpstream builds an upstream with the given host→address resolution
// table and per-host link shaping. Hosts without a link entry are unshaped.
func NewNetUpstream(resolve map[string]string, links map[string]netem.Link) *NetUpstream {
	u := &NetUpstream{
		resolve: make(map[string]string, len(resolve)),
		links:   make(map[string]netem.Link, len(links)),
	}
	for k, v := range resolve {
		u.resolve[k] = v
	}
	for k, v := range links {
		u.links[k] = v
	}
	u.client = httpmsg.NewClient(u.dial)
	return u
}

// RoundTrip implements Upstream on the origin client.
func (u *NetUpstream) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	return u.client.RoundTrip(ctx, r)
}

// CloseIdleConnections closes every idle origin connection.
func (u *NetUpstream) CloseIdleConnections() { u.client.CloseIdleConnections() }

// SetFaults installs (or clears, with nil) a fault injector: every dial
// first consults the injector's connect-refusal draw for the logical host,
// and established connections run through its per-I/O fault model.
func (u *NetUpstream) SetFaults(in *netem.Injector) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.faults = in
}

func (u *NetUpstream) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		// No port (or not host:port shaped): treat the whole string as the
		// logical host.
		host = addr
	}
	u.mu.RLock()
	real, ok := u.resolve[host]
	link := u.links[host]
	faults := u.faults
	u.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("proxy: no origin registered for host %q", host)
	}
	if faults != nil && faults.ConnectRefused(host) {
		return nil, fmt.Errorf("proxy: dial %s: %w", host, netem.ErrInjectedRefusal)
	}
	d := netem.Dialer{Link: link, Timeout: 10 * time.Second}
	c, err := d.DialContext(ctx, network, real)
	if err != nil {
		return nil, err
	}
	if faults != nil {
		c = faults.WrapConn(c, host)
	}
	return c, nil
}
