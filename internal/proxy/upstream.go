package proxy

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"appx/internal/httpmsg"
	"appx/internal/netem"
)

// Upstream performs origin-side HTTP transactions on behalf of the proxy —
// both forwarded client requests and prefetches. The context carries the
// caller's cancellation (a disconnected client, a per-attempt deadline from
// the retry middleware) all the way to the origin connection.
type Upstream interface {
	RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error)
}

// UpstreamFunc adapts a function to Upstream.
type UpstreamFunc func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error)

// RoundTrip implements Upstream.
func (f UpstreamFunc) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	return f(ctx, r)
}

// NetUpstream dials origin servers over emulated WAN links: each logical
// hostname resolves to a real listener address and is shaped by its
// configured netem link (Table 2's per-host proxy↔origin RTTs).
//
// It follows no redirect: the device must receive the origin's own 3xx —
// bytes the origin sent for this request — not the redirect target's answer.
type NetUpstream struct {
	idle idlePool

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
	return u
}

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
