package policy

import "time"

// Static is inert, like the rest of the package: the proxy applies its rule
// in learnFrom and never calls it. It states that rule over a batch:
// candidates keep their dependency-graph order, no history is consulted, and
// only the chain-depth ceiling prunes.
type Static struct {
	hooks Hooks
}

// NewStatic builds the fan-out rule.
func NewStatic(hooks Hooks) *Static { return &Static{hooks: hooks} }

// Rank applies the depth ceiling and preserves input order. user and from
// are unused: the rule keeps no history.
func (s *Static) Rank(user, from string, cands []Candidate) []Decision {
	ds := make([]Decision, len(cands))
	for i, c := range cands {
		ds[i] = s.hooks.decide(c)
	}
	return ds
}

// Observe is a no-op: the rule learns nothing from traffic.
func (s *Static) Observe(user, sigID string, now time.Time) {}
