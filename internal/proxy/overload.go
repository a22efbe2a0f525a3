package proxy

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/config"
)

// This file is the proxy's self-protection layer (the overload-control
// counterpart to the resilience layer's sick-origin handling): a bounded
// admission gate in front of client requests and an AIMD governor that
// scales speculative prefetching down under pressure and back up when the
// proxy is healthy. The paper's premise (§5) is that
// prefetching must never compete with foreground traffic; these mechanisms
// enforce it when the proxy itself is the bottleneck.

// admitGate bounds concurrently served client requests. Arrivals beyond the
// limit wait at most the configured admission wait for a slot and are shed
// with a 503 otherwise — bounded queueing instead of unbounded goroutine
// pileup.
type admitGate struct {
	slots    chan struct{}
	wait     time.Duration
	admitted atomic.Int64
	shed     atomic.Int64
}

// newAdmitGate builds a gate, or returns nil (no gating) when max < 0. max
// arrives defaulted by config.Overload.Filled, never 0.
func newAdmitGate(max int, wait time.Duration) *admitGate {
	if max < 0 {
		return nil
	}
	if wait <= 0 {
		wait = 100 * time.Millisecond
	}
	return &admitGate{slots: make(chan struct{}, max), wait: wait}
}

// acquire reserves a slot, waiting at most the bounded admission wait (or
// until the client gives up). It reports whether the request was admitted.
func (g *admitGate) acquire(ctx context.Context) bool {
	if g == nil {
		return true
	}
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return true
	default:
	}
	timer := time.NewTimer(g.wait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return true
	case <-timer.C:
	case <-ctx.Done():
	}
	g.shed.Add(1)
	return false
}

// release returns a slot taken by acquire.
func (g *admitGate) release() {
	if g != nil {
		<-g.slots
	}
}

// counts reports lifetime admissions and sheds.
func (g *admitGate) counts() (admitted, shed int64) {
	if g == nil {
		return 0, 0
	}
	return g.admitted.Load(), g.shed.Load()
}

// governor is the AIMD prefetch controller. Its level (GovernorMinLevel..1)
// scales speculative prefetching: probability multiplies by the level and
// the effective chain depth shrinks with it. An interval containing any
// overload signal — prefetch queue past its high-water mark, client p95
// past the target, or an admission shed — halves the level; a clean
// interval steps it back up additively. At the floor the proxy stops
// speculative prefetching entirely (shedding mode).
type governor struct {
	cfg config.Overload
	now func() time.Time

	mu         sync.Mutex
	level      float64
	lastAdjust time.Time
	lastShed   time.Time
	overloaded bool
	samples    int64
	decreases  int64
	increases  int64
}

func newGovernor(cfg config.Overload, now func() time.Time) *governor {
	return &governor{cfg: cfg, now: now, level: 1}
}

// Observe folds one load sample and adjusts at most once per interval.
func (g *governor) Observe(queueFrac float64, p95 time.Duration, shed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	g.samples++
	if g.lastAdjust.IsZero() {
		g.lastAdjust = now
	}
	if shed {
		g.lastShed = now
	}
	target := time.Duration(g.cfg.TargetP95)
	if shed || queueFrac >= g.cfg.QueueHighWater || (target > 0 && p95 > target) {
		g.overloaded = true
	}
	if now.Sub(g.lastAdjust) < time.Duration(g.cfg.GovernorInterval) {
		return
	}
	if g.overloaded {
		g.level *= g.cfg.GovernorDecrease
		if g.level < g.cfg.GovernorMinLevel {
			g.level = g.cfg.GovernorMinLevel
		}
		g.decreases++
	} else {
		g.level += g.cfg.GovernorIncrease
		if g.level > 1 {
			g.level = 1
		}
		g.increases++
	}
	g.overloaded = false
	g.lastAdjust = now
}

// p95Due reports whether the next Observe closes an interval in which the
// latency signal counts: only then is a client p95 worth computing. With
// TargetP95 unset (the default) it answers without touching the lock.
func (g *governor) p95Due() bool {
	if g.cfg.TargetP95 <= 0 {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.lastAdjust.IsZero() && g.now().Sub(g.lastAdjust) >= time.Duration(g.cfg.GovernorInterval)
}

// Level reports the current prefetch level.
func (g *governor) Level() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.level
}

// Shedding reports whether speculative prefetching is fully shed: the level
// sits at its floor, or an admission shed happened within the last interval.
func (g *governor) Shedding() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sheddingLocked()
}

func (g *governor) sheddingLocked() bool {
	if g.level <= g.cfg.GovernorMinLevel {
		return true
	}
	return !g.lastShed.IsZero() && g.now().Sub(g.lastShed) < time.Duration(g.cfg.GovernorInterval)
}

// Mode names the governor's state for telemetry: "normal" (full
// prefetching), "degraded" (reduced level), or "shedding" (speculative work
// fully shed).
func (g *governor) Mode() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.sheddingLocked():
		return "shedding"
	case g.level < 1:
		return "degraded"
	default:
		return "normal"
	}
}

// Adjustments reports lifetime decrease/increase counts.
func (g *governor) Adjustments() (decreases, increases int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.decreases, g.increases
}
