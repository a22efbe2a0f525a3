package proxy

import (
	"context"
	"sync/atomic"
	"time"
)

// This file is the foreground half of the proxy's self-protection (the
// overload-control counterpart to the resilience layer's sick-origin
// handling): a bounded admission gate in front of client requests. The
// paper's premise (§5) is that prefetching must never compete with
// foreground traffic; the speculative half of that — class queue shares and
// enqueue deadlines — lives in the scheduler (internal/proxy/sched).

// admitGate bounds concurrently served client requests. Arrivals beyond the
// limit wait at most the configured admission wait for a slot and are shed
// with a 503 otherwise — bounded queueing instead of unbounded goroutine
// pileup. There is always a gate: config.Overload.Filled hands it a positive
// limit and wait.
type admitGate struct {
	slots    chan struct{}
	wait     time.Duration
	admitted atomic.Int64
	shed     atomic.Int64
}

func newAdmitGate(max int, wait time.Duration) *admitGate {
	return &admitGate{slots: make(chan struct{}, max), wait: wait}
}

// acquire reserves a slot, waiting at most the bounded admission wait (or
// until the client gives up). It reports whether the request was admitted.
func (g *admitGate) acquire(ctx context.Context) bool {
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
func (g *admitGate) release() { <-g.slots }

// counts reports lifetime admissions and sheds.
func (g *admitGate) counts() (admitted, shed int64) {
	return g.admitted.Load(), g.shed.Load()
}
