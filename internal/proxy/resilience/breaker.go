// Package resilience is a per-host three-state circuit breaker set. The
// proxy sits between millions of handsets and third-party origins it does
// not control (§4.5, §5 of the paper), so a sick origin must be contained —
// failed fast, probed gently, and never allowed to drain the prefetch
// workers or the data budget; the cluster uses the same set to pace its
// peer probes.
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
	// HalfOpen admits one probe at a time; one success closes the circuit,
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

// BreakerOptions configures a per-host breaker set. Every field is
// required.
type BreakerOptions struct {
	// FailureThreshold is the consecutive-failure count that trips a closed
	// breaker.
	FailureThreshold int
	// OpenTimeout is how long an open breaker rejects before admitting a
	// half-open probe. One successful probe closes it.
	OpenTimeout time.Duration
	// Now supplies time.
	Now func() time.Time
}

// breaker is one host's circuit state.
type breaker struct {
	state    State
	failures int // consecutive failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight
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
		*b = breaker{} // the probe succeeded: back to a clean closed state
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
// left after it. The in-flight probe mark is transient and starts clean.
// Existing in-memory state for a host is overwritten; hosts not in the
// snapshot are untouched.
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
