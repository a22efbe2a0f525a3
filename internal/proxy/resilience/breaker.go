// Package resilience hardens the proxy's origin path against flaky or dead
// origin servers: a per-host three-state circuit breaker and a retrying
// Upstream middleware with capped, jittered exponential backoff. The proxy
// sits between millions of handsets and third-party origins it does not
// control (§4.5, §5 of the paper), so a sick origin must be contained —
// failed fast, probed gently, and never allowed to drain the prefetch
// workers or the data budget.
package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State int

const (
	// Closed passes traffic and counts consecutive failures.
	Closed State = iota
	// Open rejects traffic until OpenTimeout has elapsed.
	Open
	// HalfOpen admits one probe at a time; success closes the circuit,
	// failure reopens it.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerOptions configures a per-host breaker set.
type BreakerOptions struct {
	// FailureThreshold is the consecutive-failure count that trips a closed
	// breaker (default 5).
	FailureThreshold int
	// OpenTimeout is how long an open breaker rejects before admitting a
	// half-open probe (default 10s).
	OpenTimeout time.Duration
	// HalfOpenSuccesses is how many consecutive probe successes close a
	// half-open breaker (default 1).
	HalfOpenSuccesses int
	// Now supplies time; defaults to time.Now. Injected for deterministic
	// tests.
	Now func() time.Time
}

func (o *BreakerOptions) fill() {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 5
	}
	if o.OpenTimeout <= 0 {
		o.OpenTimeout = 10 * time.Second
	}
	if o.HalfOpenSuccesses <= 0 {
		o.HalfOpenSuccesses = 1
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// breaker is one host's circuit state.
type breaker struct {
	state     State
	failures  int // consecutive failures while closed
	successes int // consecutive successes while half-open
	openedAt  time.Time
	probing   bool // a half-open probe is in flight
}

// Breakers is a set of circuit breakers, one per origin host. The zero
// value is not usable; call NewBreakers.
type Breakers struct {
	opts BreakerOptions

	mu    sync.Mutex
	hosts map[string]*breaker
}

// NewBreakers builds a breaker set.
func NewBreakers(opts BreakerOptions) *Breakers {
	opts.fill()
	return &Breakers{opts: opts, hosts: map[string]*breaker{}}
}

func (bs *Breakers) host(host string) *breaker {
	b, ok := bs.hosts[host]
	if !ok {
		b = &breaker{}
		bs.hosts[host] = b
	}
	return b
}

// tick advances an open breaker to half-open once its timeout has elapsed
// (bs.mu held).
func (bs *Breakers) tick(b *breaker) {
	if b.state == Open && bs.opts.Now().Sub(b.openedAt) >= bs.opts.OpenTimeout {
		b.state = HalfOpen
		b.successes = 0
		b.probing = false
	}
}

// Allow reports whether a request to host may proceed, and reserves the
// half-open probe slot when it does. Callers that receive true MUST report
// the outcome via ReportSuccess or ReportFailure.
func (bs *Breakers) Allow(host string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.host(host)
	bs.tick(b)
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default: // Open
		return false
	}
}

// Ready is a side-effect-free preview of Allow: would a request to host be
// admitted right now? The prefetch planner uses it to skip queueing work
// for a host whose breaker would reject it anyway.
func (bs *Breakers) Ready(host string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.host(host)
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		return !b.probing
	default:
		return bs.opts.Now().Sub(b.openedAt) >= bs.opts.OpenTimeout
	}
}

// ReportSuccess records a successful transaction with host.
func (bs *Breakers) ReportSuccess(host string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.host(host)
	bs.tick(b)
	switch b.state {
	case Closed:
		b.failures = 0
	case HalfOpen:
		b.probing = false
		b.successes++
		if b.successes >= bs.opts.HalfOpenSuccesses {
			*b = breaker{} // back to a clean closed state
		}
	case Open:
		// A success while open (an in-flight request that started before the
		// trip) is good news but not a probe; leave the timer running.
	}
}

// ReportFailure records a failed transaction with host.
func (bs *Breakers) ReportFailure(host string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.host(host)
	bs.tick(b)
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= bs.opts.FailureThreshold {
			b.state = Open
			b.openedAt = bs.opts.Now()
		}
	case HalfOpen:
		b.state = Open
		b.openedAt = bs.opts.Now()
		b.probing = false
		b.successes = 0
	case Open:
		// Already open; nothing to count.
	}
}

// State returns host's current breaker state (advancing open → half-open
// when the timeout has elapsed).
func (bs *Breakers) State(host string) State {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.host(host)
	bs.tick(b)
	return b.state
}

// BreakerSnapshot is one host's observable breaker state.
type BreakerSnapshot struct {
	State State
	// ConsecutiveFailures is the closed-state failure streak.
	ConsecutiveFailures int
	// OpenFor is how long the breaker has been open (zero unless open).
	OpenFor time.Duration
}

// Restore seeds the breaker set from a persisted snapshot (warm restart):
// each host's state and failure streak are reinstated, and an open breaker
// resumes its timeout mid-count — openedAt is back-dated by OpenFor so a
// breaker that had 3s of its open window left before the restart has 3s
// left after it. Probe bookkeeping (probing, half-open successes) is
// transient and starts clean. Existing in-memory state for a host is
// overwritten; hosts not in the snapshot are untouched.
func (bs *Breakers) Restore(snap map[string]BreakerSnapshot) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	now := bs.opts.Now()
	for host, s := range snap {
		b := &breaker{state: s.State, failures: s.ConsecutiveFailures}
		if s.State == Open {
			b.openedAt = now.Add(-s.OpenFor)
		}
		bs.hosts[host] = b
	}
}

// Snapshot captures every tracked host's breaker state.
func (bs *Breakers) Snapshot() map[string]BreakerSnapshot {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	out := make(map[string]BreakerSnapshot, len(bs.hosts))
	now := bs.opts.Now()
	for host, b := range bs.hosts {
		bs.tick(b)
		snap := BreakerSnapshot{State: b.state, ConsecutiveFailures: b.failures}
		if b.state == Open {
			snap.OpenFor = now.Sub(b.openedAt)
		}
		out[host] = snap
	}
	return out
}
