// Package policy is inert: nothing outside it and the benchmark module calls
// it. The proxy's fan-out rule — every switched-on successor whose condition
// holds, in dependency-graph order, up to the chain-depth ceiling — is
// learnFrom's own (internal/proxy). Static still states the same rule over
// a batch of candidates; the package stays because the benchmark module
// still times Rank and Observe, and goes once it stops.
package policy

// Candidate is one prefetch the proxy is considering.
type Candidate struct {
	// SigID is the candidate signature.
	SigID string
	// Depth is the chain depth this prefetch would run at (0 = fanned out
	// from live traffic).
	Depth int
	// Index is the candidate's position in the caller's slice; callers use
	// it to correlate decisions back to their own bookkeeping.
	Index int
	// Prior is the configured issue probability (per-signature probability
	// × user scale).
	Prior float64
}

// Decision is the verdict on one Candidate.
type Decision struct {
	Candidate

	// Keep false means the candidate should not be instantiated at all: it
	// sits beyond the chain-depth ceiling. KeepReason names why.
	Keep       bool
	KeepReason string

	// Score orders candidates: higher runs earlier. It is the Prior.
	Score float64
}

// ReasonDepth is the KeepReason of a candidate beyond the chain-depth
// ceiling.
const ReasonDepth = "depth"

// Hooks carries what the fan-out rule needs from the proxy.
type Hooks struct {
	// MaxDepth is the chain-depth ceiling: candidates deeper than it are not
	// kept. 0 means no ceiling.
	MaxDepth int
}

// decide keeps a candidate unless it sits beyond the depth ceiling, and
// scores it by its prior.
func (h Hooks) decide(c Candidate) Decision {
	d := Decision{Candidate: c, Keep: true, Score: c.Prior}
	if h.MaxDepth > 0 && c.Depth > h.MaxDepth {
		d.Keep = false
		d.KeepReason = ReasonDepth
	}
	return d
}
