package policy

import (
	"sync/atomic"
	"time"
)

// Static is the historical prefetch policy: candidates keep their
// dependency-graph order, no history is consulted, and only the chain-depth
// ceiling prunes. It is the differential baseline every proxy behaviour
// test pins against.
type Static struct {
	hooks     Hooks
	rankCalls atomic.Int64
}

// NewStatic builds the static policy.
func NewStatic(hooks Hooks) *Static { return &Static{hooks: hooks} }

// Name implements Policy.
func (s *Static) Name() string { return "static" }

// Rank implements Policy: apply the depth ceiling, preserve input order.
func (s *Static) Rank(user, from string, cands []Candidate) []Decision {
	s.rankCalls.Add(1)
	ds := make([]Decision, len(cands))
	for i, c := range cands {
		ds[i] = s.hooks.decide(c)
	}
	return ds
}

// Observe implements Policy; static learns nothing.
func (s *Static) Observe(user, sigID string, now time.Time) {}

// Stats implements Policy.
func (s *Static) Stats() Stats { return Stats{RankCalls: s.rankCalls.Load()} }
