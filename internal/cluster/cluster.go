package cluster

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/httpmsg"
	"appx/internal/obs/adminv1"
	"appx/internal/proxy/resilience"
)

// Config declares an instance's place in the fleet. The zero value means
// "not clustered" (Enabled() == false) and the proxy runs exactly as before.
type Config struct {
	// Self is this instance's advertised host:port — the address peers dial
	// and the ring member name. Clustering is on iff Self is non-empty.
	Self string
	// Peers is the static seed list (host:port each). Self may appear in it
	// (convenient for passing one identical flag to every instance); it is
	// ignored. Membership beyond this list is not discovered — dead peers
	// are probed forever and rejoin when they answer again.
	Peers []string
	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 500ms).
	ProbeTimeout time.Duration
	// FailureThreshold is the consecutive probe failures that mark a peer
	// dead (default 3).
	FailureThreshold int
	// Now supplies time for breaker state; defaults to time.Now. Membership
	// deliberately does NOT inherit the proxy's injectable clock: several
	// experiments freeze it, and a frozen clock would keep open breakers
	// from ever half-opening, making peer rejoin undetectable.
	Now func() time.Time
	// Dial, when non-nil, replaces the default dialer of the cluster's one
	// HTTP client, so it opens every connection to a peer: probes, relays
	// and peeks. The chaos harness injects netem-faulted dials here;
	// production leaves it nil.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
}

// Enabled reports whether this config turns clustering on.
func (c Config) Enabled() bool { return c.Self != "" }

// Replicas is how many ring siblings (beyond the owner) a peer fill
// consults.
const Replicas = 2

func (c *Config) fill() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Cluster tracks fleet membership and answers ownership queries. One lives
// inside each clustered proxy. Probing starts on Start and stops on Close.
type Cluster struct {
	cfg   Config
	peers []string // deduped, Self removed

	// breakers holds one circuit breaker per peer, keyed by host:port.
	// Closed = alive. Allow() doubles as probe pacing: an open breaker
	// rejects probes until OpenTimeout (2x ProbeInterval) elapses, then
	// admits one half-open probe — so a dead peer is probed at half rate
	// and a single success revives it.
	breakers *resilience.Breakers

	// client carries probes, relays and peeks, pooling connections per peer.
	client *httpmsg.Client

	mu       sync.Mutex
	ring     *Ring
	alive    map[string]bool
	onChange func()

	// ctx is the cluster's root context; Close cancels it, aborting
	// in-flight probes, forwards, and peer fills instead of letting them
	// wait out their timeouts during a drain.
	ctx    context.Context
	cancel context.CancelFunc

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	probeFailures atomic.Int64
	rebuilds      atomic.Int64
	drainErrors   atomic.Int64
}

// DrainErrors reports how many response-body drains failed mid-read — the
// once-silent error path in drain, now surfaced for the registry.
func (c *Cluster) DrainErrors() int64 { return c.drainErrors.Load() }

// New builds a Cluster from cfg. The ring starts optimistic — every
// configured peer is presumed alive until probes say otherwise — so a fleet
// booting in any order converges without a thundering herd of forwards to
// not-yet-up peers failing foreground requests (forward errors fall back to
// local serving anyway).
func New(cfg Config) *Cluster {
	cfg.fill()
	dial := cfg.Dial
	if dial == nil {
		dial = new(net.Dialer).DialContext
	}
	c := &Cluster{
		cfg:    cfg,
		alive:  map[string]bool{},
		client: httpmsg.NewClient(dial),
		stop:   make(chan struct{}),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	seen := map[string]struct{}{cfg.Self: {}}
	for _, p := range cfg.Peers {
		if _, dup := seen[p]; dup || p == "" {
			continue
		}
		seen[p] = struct{}{}
		c.peers = append(c.peers, p)
		c.alive[p] = true
	}
	c.breakers = resilience.NewBreakers(resilience.BreakerOptions{
		FailureThreshold: cfg.FailureThreshold,
		OpenTimeout:      2 * cfg.ProbeInterval,
		Now:              cfg.Now,
	})
	c.rebuildRing()
	return c
}

// Start launches the background probe loop. Safe to skip in tests that
// drive ProbeOnce directly.
func (c *Cluster) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.ProbeOnce()
			}
		}
	}()
}

// Close stops probing, cancels in-flight probes/forwards/fills, and
// releases pooled connections. Idempotent.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.cancel()
	c.wg.Wait()
	c.client.CloseIdleConnections()
}

// Self returns this instance's advertised address.
func (c *Cluster) Self() string { return c.cfg.Self }

// Peers returns the configured peer list (deduped, Self removed). The slice
// is fixed after New; callers must not mutate it.
func (c *Cluster) Peers() []string { return c.peers }

// Context returns the cluster's root context. It is canceled by Close, so
// background work parented here (prefetch-path peer fills, probes) dies with
// the cluster during a drain instead of waiting out its own timeout.
func (c *Cluster) Context() context.Context { return c.ctx }

// OnChange registers fn to run (on the probe goroutine) after every
// membership change that rebuilt the ring. The proxy hooks its incremental
// rebalance here.
func (c *Cluster) OnChange(fn func()) {
	c.mu.Lock()
	c.onChange = fn
	c.mu.Unlock()
}

// ProbeOnce health-probes every peer concurrently and rebuilds the ring if
// any aliveness flipped. Exported so tests and the experiment can force a
// membership round without waiting out the ticker.
func (c *Cluster) ProbeOnce() {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		// Allow gates probe pacing: open breaker → skip this round.
		if !c.breakers.Allow(p) {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if c.probe(peer) {
				c.breakers.ReportSuccess(peer)
			} else {
				c.breakers.ReportFailure(peer)
				c.probeFailures.Add(1)
			}
		}(p)
	}
	wg.Wait()

	changed := false
	c.mu.Lock()
	for _, p := range c.peers {
		up := c.breakers.State(p) == resilience.Closed
		if c.alive[p] != up {
			c.alive[p] = up
			changed = true
		}
	}
	var fire func()
	if changed {
		c.rebuildRingLocked()
		fire = c.onChange
	}
	c.mu.Unlock()
	if fire != nil {
		fire()
	}
}

func (c *Cluster) probe(peer string) bool {
	// Parent on the cluster context so Close aborts in-flight probes
	// immediately; a drain no longer waits out ProbeTimeout.
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.ProbeTimeout)
	defer cancel()
	resp, err := c.client.RoundTrip(ctx, &httpmsg.Request{Method: http.MethodGet, Host: peer, Path: adminv1.PathHealth})
	if err != nil {
		return false
	}
	// Drain so the keep-alive connection is reusable.
	c.drain(resp)
	// A draining instance answers health with 503: it is alive but leaving;
	// treat as down so new work stops routing there.
	return resp.Status == http.StatusOK
}

func (c *Cluster) rebuildRing() {
	c.mu.Lock()
	c.rebuildRingLocked()
	c.mu.Unlock()
}

func (c *Cluster) rebuildRingLocked() {
	r := NewRing()
	r.Add(c.cfg.Self)
	for _, p := range c.peers {
		if c.alive[p] {
			r.Add(p)
		}
	}
	c.ring = r
	c.rebuilds.Add(1)
}

// Owner returns the instance owning userKey and whether that is this
// instance. An empty userKey (anonymous request) is always self-owned:
// there is no per-user state to pin.
func (c *Cluster) Owner(userKey string) (addr string, self bool) {
	if userKey == "" {
		return c.cfg.Self, true
	}
	c.mu.Lock()
	addr = c.ring.Owner(userKey)
	c.mu.Unlock()
	return addr, addr == c.cfg.Self
}

// Owns reports whether this instance owns userKey under the current ring.
func (c *Cluster) Owns(userKey string) bool {
	_, self := c.Owner(userKey)
	return self
}

// FillPeers returns the alive siblings to peek for flightKey, owner-first,
// capped at Replicas. Every instance computes the same order for the same
// key, so concurrent missing instances converge on the same first target.
func (c *Cluster) FillPeers(flightKey string) []string {
	c.mu.Lock()
	succ := c.ring.Successors(flightKey, Replicas+1)
	c.mu.Unlock()
	out := make([]string, 0, Replicas)
	for _, s := range succ {
		if s == c.cfg.Self || len(out) == Replicas {
			continue
		}
		out = append(out, s)
	}
	return out
}

// PeerReady reports whether addr's breaker currently admits traffic,
// without consuming the half-open probe slot (that belongs to the health
// prober).
func (c *Cluster) PeerReady(addr string) bool {
	return c.breakers.Ready(addr)
}

// ReportForward feeds a forwarding result into addr's breaker so a peer
// that probes healthy but fails real traffic still trips.
func (c *Cluster) ReportForward(addr string, ok bool) {
	if ok {
		c.breakers.ReportSuccess(addr)
	} else {
		c.breakers.ReportFailure(addr)
	}
}

// Members returns the current ring membership, sorted.
func (c *Cluster) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Members()
}

// Stats fills the membership half of the adminv1 cluster block; the proxy
// adds its forwarding/fill counters on top.
func (c *Cluster) Stats() adminv1.Cluster {
	out := adminv1.Cluster{
		Enabled:       true,
		Self:          c.cfg.Self,
		ProbeFailures: c.probeFailures.Load(),
		RingRebuilds:  c.rebuilds.Load(),
	}
	c.mu.Lock()
	out.Members = c.ring.Members()
	peers := make(map[string]adminv1.ClusterPeer, len(c.peers))
	for _, p := range c.peers {
		peers[p] = adminv1.ClusterPeer{Alive: c.alive[p]}
	}
	c.mu.Unlock()
	snaps := c.breakers.Snapshot()
	for p, v := range peers {
		snap := snaps[p]
		v.Breaker = snap.State.String()
		v.ConsecutiveFailures = snap.ConsecutiveFailures
		peers[p] = v
	}
	out.Peers = peers
	return out
}
