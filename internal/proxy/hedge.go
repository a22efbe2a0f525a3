package proxy

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/cache"
	"appx/internal/obs"
)

// Hedged peer reads: when the first peek of a shared-tier peer fill runs
// slower than an adaptive delay — the primary peer's observed p90 fill
// latency once enough samples exist — one hedge launches to the next ring
// successor and the first entry wins, the shared cancel reaping the loser.
// Hedging is the cheapest tail-latency tool the cluster has and also the
// easiest way to melt an overloaded fleet, so every hedge is gated by a
// cluster-wide launch-rate cap.

const (
	// hedgeDelay is the static hedging delay used until a peer has
	// hedgeMinSamples observed fills: the delay the chaos sweep's slow-peer
	// schedule measures hedging at.
	hedgeDelay = 25 * time.Millisecond
	// hedgeRate caps hedge launches per second across the instance; it is
	// also the token bucket's burst.
	hedgeRate = 64.0
	// hedgeMinSamples is how many observed fills a peer needs before its p90
	// replaces the static delay.
	hedgeMinSamples = 16
	// hedgeDelayFloor bounds adaptive delays from below: loopback p90s are
	// microseconds, and hedging that hot would double every fill's traffic.
	hedgeDelayFloor = 5 * time.Millisecond
)

// hedgeState is the cluster-wide hedging policy: the per-peer adaptive delay
// model, the launch-rate token bucket, and the counters.
type hedgeState struct {
	disabled bool

	// Launch-rate token bucket. Refill runs on the wall clock, not the
	// proxy's injectable one: hedge pacing is a real-time resource control
	// and must not freeze with a frozen test clock.
	mu     sync.Mutex
	tokens float64
	last   time.Time

	// perPeer histograms drive the adaptive delay; all aggregates every
	// peek for the fleet-wide fill p99 the chaos harness compares.
	perPeer map[string]*obs.Histogram
	all     *obs.Histogram

	launched   atomic.Int64
	wins       atomic.Int64
	losses     atomic.Int64
	suppressed atomic.Int64
}

// newHedgeState builds the hedging policy and registers its fill-latency
// histograms. Called exactly once per proxy (from initCluster): the registry
// panics on duplicate series names.
func newHedgeState(disabled bool, reg *obs.Registry, peers []string) *hedgeState {
	h := &hedgeState{disabled: disabled, tokens: hedgeRate, last: time.Now()}
	h.all = reg.Histogram("appx_cluster_fill_latency", "Peer-fill peek latency.", nil)
	h.perPeer = make(map[string]*obs.Histogram, len(peers))
	for _, peer := range peers {
		h.perPeer[peer] = reg.Histogram(`appx_cluster_fill_latency_peer{peer="`+peer+`"}`,
			"Per-peer peer-fill peek latency.", nil)
	}
	return h
}

// delayFor returns the hedging delay against primary peer addr: its observed
// p90 (floored) once enough samples exist, the static delay until then.
func (h *hedgeState) delayFor(addr string) time.Duration {
	if hist := h.perPeer[addr]; hist != nil && hist.Count() >= hedgeMinSamples {
		if d := hist.Quantile(0.90); d > 0 {
			if d < hedgeDelayFloor {
				return hedgeDelayFloor
			}
			return d
		}
	}
	return hedgeDelay
}

// allow spends one hedge token; refill is continuous at hedgeRate per second.
func (h *hedgeState) allow() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	h.tokens += now.Sub(h.last).Seconds() * hedgeRate
	if h.tokens > hedgeRate {
		h.tokens = hedgeRate
	}
	h.last = now
	if h.tokens < 1 {
		return false
	}
	h.tokens--
	return true
}

// observe folds one completed peek's latency into the delay model.
func (h *hedgeState) observe(addr string, d time.Duration) {
	h.all.Observe(d)
	if hist := h.perPeer[addr]; hist != nil {
		hist.Observe(d)
	}
}

// peekResult is one peek attempt's outcome; entry is nil on miss or error.
type peekResult struct {
	addr  string
	entry *cache.Entry
	hedge bool
}

// peekAttempt runs one peek against addr, bounded by the cluster's
// ProbeTimeout (PeekEntry), feeding the peer's breaker and the fill-latency histograms.
func (p *Proxy) peekAttempt(ctx context.Context, addr, key string, hedge bool, out chan<- peekResult) {
	st := p.cluster
	start := time.Now() // real time: these latencies drive real hedge timers
	pe, ok, err := st.c.PeekEntry(ctx, addr, key)
	if err != nil {
		// A loser canceled by the race's shared context is not a peer
		// failure; only genuine errors feed the breaker and error counter.
		if ctx.Err() == nil {
			st.fillErrors.Add(1)
			st.c.ReportForward(addr, false)
		}
		out <- peekResult{addr: addr, hedge: hedge}
		return
	}
	st.hedge.observe(addr, time.Since(start))
	st.c.ReportForward(addr, true)
	var e *cache.Entry
	if ok {
		e = p.entryFromPeer(pe)
	}
	out <- peekResult{addr: addr, entry: e, hedge: hedge}
}

// hedgedPeek races peeks across ready peers for key. Launch policy: peers[0]
// immediately; if it is still outstanding past the adaptive delay, one hedge
// to the next peer (rate-gated); remaining peers launch sequentially only
// once every outstanding attempt has come back empty. Returns the first
// entry found, or nil.
func (p *Proxy) hedgedPeek(ctx context.Context, peers []string, key string) *cache.Entry {
	h := p.cluster.hedge
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reaps any attempt still in flight when a winner returns
	results := make(chan peekResult, len(peers))
	next, outstanding := 0, 0
	launch := func(hedge bool) {
		go p.peekAttempt(ctx, peers[next], key, hedge, results)
		next++
		outstanding++
	}
	launch(false)

	var hedgeC <-chan time.Time
	if !h.disabled && next < len(peers) {
		t := time.NewTimer(h.delayFor(peers[0]))
		defer t.Stop()
		hedgeC = t.C
	}

	hedged := false
	for outstanding > 0 {
		select {
		case r := <-results:
			outstanding--
			if r.entry != nil {
				if hedged {
					if r.hedge {
						h.wins.Add(1)
					} else {
						h.losses.Add(1)
					}
				}
				return r.entry
			}
			// Sequential walk resumes only when the race is empty; the hedge
			// already covers the "one extra attempt in flight" case.
			if outstanding == 0 && next < len(peers) {
				launch(false)
			}
		case <-hedgeC:
			hedgeC = nil
			if next >= len(peers) {
				continue
			}
			if !h.allow() {
				h.suppressed.Add(1)
				continue
			}
			h.launched.Add(1)
			hedged = true
			launch(true)
		case <-ctx.Done():
			return nil
		}
	}
	return nil
}

// FillLatencyQuantile reports the q-quantile of observed peer-fill peek
// latencies (0 when cluster mode is off or nothing was observed). The chaos
// harness uses it to compare hedged vs unhedged fill tails.
func (p *Proxy) FillLatencyQuantile(q float64) time.Duration {
	if p.cluster == nil || p.cluster.hedge == nil {
		return 0
	}
	return p.cluster.hedge.all.Quantile(q)
}
