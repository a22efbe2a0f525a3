// Package policy holds the proxy's prefetch fan-out logic behind one
// pluggable interface: given the candidates a predecessor transaction fans
// out to, a Policy decides which survive (Keep) and in what order they are
// attempted (Score).
//
// Two implementations ship: Static keeps the proxy's historical behaviour
// exactly (dependency-graph order, no history), and Markov layers a
// first-order per-user transition model over it that reorders and prunes
// chains by observed behaviour (ROADMAP: "per-user history predicts next
// requests far better than static structure alone", after Zhao et al.).
//
// The proxy consults a Policy once per predecessor transaction, at fan-out
// (learn). Whether a surviving candidate may actually be scheduled —
// probability draw, data budget, signature backoff, breaker — is decided by
// the proxy at issue time and does not vary by policy, so it does not pass
// through here.
package policy

import "time"

// Candidate is one prefetch the proxy is considering.
type Candidate struct {
	// SigID is the candidate signature.
	SigID string
	// Depth is the chain depth this prefetch would run at (0 = fanned out
	// from live traffic).
	Depth int
	// Index is the candidate's position in the caller's slice; callers use
	// it to correlate decisions back to their own bookkeeping after
	// reordering.
	Index int
	// Prior is the configured issue probability (per-signature probability
	// × user scale).
	Prior float64
}

// Decision is a Policy's verdict on one Candidate.
type Decision struct {
	Candidate

	// Keep false means the candidate should not be instantiated at all
	// (chain-depth ceiling, or history says the transition is too unlikely
	// to pay for). KeepReason names why.
	Keep       bool
	KeepReason string

	// Score orders candidates: higher runs earlier. Static scores by Prior;
	// Markov by estimated transition probability.
	Score float64
}

// Decision reasons.
const (
	ReasonDepth    = "depth"    // beyond the chain-depth ceiling
	ReasonUnlikely = "unlikely" // history says this transition is improbable
)

// Stats is a point-in-time snapshot of a policy's model and activity.
// Static policies report zeroes.
type Stats struct {
	// Users is the number of per-user models held.
	Users int
	// Rows is the total transition rows (distinct observed "from"
	// signatures) across users.
	Rows int
	// Transitions is the total (from, to) pairs tracked.
	Transitions int
	// TableBytes estimates the model's memory footprint.
	TableBytes int64

	// Observations counts Observe calls folded into the model.
	Observations int64
	// RankCalls counts Rank invocations.
	RankCalls int64
	// Pruned counts candidates dropped with ReasonUnlikely.
	Pruned int64
	// Reordered counts Rank calls whose output order differed from the
	// input order.
	Reordered int64
}

// Policy ranks prefetch candidates and (optionally) learns from observed
// traffic. Implementations must be safe for concurrent use.
type Policy interface {
	// Name identifies the policy ("static", "markov").
	Name() string
	// Rank decides each candidate's fate. from is the signature the
	// candidates would be prefetched after (the predecessor); empty means
	// "no transition context" and disables history scoring. The returned
	// slice is a permutation of decisions over the input candidates,
	// ordered best-first.
	Rank(user, from string, cands []Candidate) []Decision
	// Observe folds one live signature hit for a user into the model.
	Observe(user, sigID string, now time.Time)
	// Stats snapshots the model for telemetry.
	Stats() Stats
}

// Hooks carries what every policy needs from the proxy.
type Hooks struct {
	// MaxDepth is the chain-depth ceiling: candidates deeper than it are not
	// kept. 0 means no ceiling.
	MaxDepth int
}

// decide is the verdict shared by every policy: keep unless the candidate
// sits beyond the depth ceiling, score by prior.
func (h Hooks) decide(c Candidate) Decision {
	d := Decision{Candidate: c, Keep: true, Score: c.Prior}
	if h.MaxDepth > 0 && c.Depth > h.MaxDepth {
		d.Keep = false
		d.KeepReason = ReasonDepth
	}
	return d
}
