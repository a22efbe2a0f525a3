package proxy

import (
	"sync/atomic"
	"time"

	"appx/internal/obs"
	"appx/internal/obs/adminv1"
	"appx/internal/policy"
)

// Prefetch-policy wiring. What varies by policy — which fan-out candidates
// survive and in what order — lives in internal/policy behind the Policy
// interface, with two implementations:
//
//   - static: the historical behaviour, candidates in dependency-graph
//     order. The differential tests pin it byte-identical to the pre-policy
//     proxy.
//   - markov: a per-user first-order transition model that reorders and
//     prunes chains by observed behaviour, fed by observePolicy on every
//     attributed live hit and carried across restarts by the snapshot
//     ladder.
//
// Selection is -prefetch-policy. The policy is consulted once per
// predecessor transaction (rankCandidates); what does not vary by policy —
// the issue-time gates — is Proxy.mayIssue.

// Skip reasons beyond the policy package's own (ReasonDepth, ReasonUnlikely):
// the first three drop a candidate before it reaches the scheduler, the last
// two a task at dispatch (runPrefetch), before any origin byte moves.
const (
	skipNoExemplar  = "no_exemplar"   // materialize failed: run-time values missing
	skipNoDepValues = "no_dep_values" // predecessor response yielded no dependency values
	skipPendingFull = "pending_full"  // per-signature parked-instance cap hit
	skipNoRoom      = "no_room"       // speculation whose only room is an unread sibling's
	skipDataBudget  = "data_budget"   // the window's data budget ran out while it was queued
)

// prefetchSkips counts dropped candidates by reason
// (appx_prefetch_skipped_total).
type prefetchSkips struct {
	noExemplar  atomic.Int64
	noDepValues atomic.Int64
	pendingFull atomic.Int64
	depth       atomic.Int64
	unlikely    atomic.Int64
	noRoom      atomic.Int64
	dataBudget  atomic.Int64
}

// countSkip attributes one dropped candidate to its reason.
func (p *Proxy) countSkip(reason string) {
	switch reason {
	case skipNoExemplar:
		p.skips.noExemplar.Add(1)
	case skipNoDepValues:
		p.skips.noDepValues.Add(1)
	case skipPendingFull:
		p.skips.pendingFull.Add(1)
	case policy.ReasonDepth:
		p.skips.depth.Add(1)
	case policy.ReasonUnlikely:
		p.skips.unlikely.Add(1)
	case skipNoRoom:
		p.skips.noRoom.Add(1)
	case skipDataBudget:
		p.skips.dataBudget.Add(1)
	}
}

// rankBounds buckets the Rank-latency histogram on a microsecond scale: a
// rank call is a handful of map reads and must never show up in request
// latency.
var rankBounds = []time.Duration{
	time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 250 * time.Microsecond,
	time.Millisecond, 5 * time.Millisecond,
}

// initPolicy builds the configured policy.
func (p *Proxy) initPolicy() {
	hooks := policy.Hooks{MaxDepth: maxChainDepth}
	if p.opts.PrefetchPolicy == "markov" {
		p.pol = policy.NewMarkov(hooks, policy.MarkovConfig{
			HalfLife: p.opts.PolicyDecay,
			MaxUsers: p.opts.PolicyMaxUsers,
			Now:      p.clock,
		})
	} else {
		p.pol = policy.NewStatic(hooks)
	}
	p.rankHist = p.reg.Histogram("appx_policy_rank_seconds",
		"Latency of one prefetch-policy Rank call.", rankBounds)
}

// markov returns the history model behind the configured policy, or nil
// when the policy keeps none.
func (p *Proxy) markov() *policy.Markov {
	m, _ := p.pol.(*policy.Markov)
	return m
}

// rankCandidates runs one policy ranking, timed.
func (p *Proxy) rankCandidates(userKey, from string, cands []policy.Candidate) []policy.Decision {
	start := p.opts.Now()
	ds := p.pol.Rank(userKey, from, cands)
	p.rankHist.Observe(p.opts.Now().Sub(start))
	return ds
}

// observePolicy feeds one attributed live hit into the history model.
// Static configurations skip the call — and its clock read — entirely.
func (p *Proxy) observePolicy(userKey, sigID string) {
	if m := p.markov(); m != nil {
		m.Observe(userKey, sigID, p.opts.Now())
	}
}

// registerPolicyBridges exposes the policy layer on the metrics registry.
func (p *Proxy) registerPolicyBridges(reg *obs.Registry) {
	reg.GaugeFunc("appx_policy_users", "Per-user history models held.",
		func() float64 { return float64(p.pol.Stats().Users) })
	reg.GaugeFunc("appx_policy_rows", "Transition rows across users and the global table.",
		func() float64 { return float64(p.pol.Stats().Rows) })
	reg.GaugeFunc("appx_policy_transitions", "Tracked (from, to) transition pairs.",
		func() float64 { return float64(p.pol.Stats().Transitions) })
	reg.GaugeFunc("appx_policy_table_bytes", "Estimated transition-table memory footprint.",
		func() float64 { return float64(p.pol.Stats().TableBytes) })
	reg.CounterFunc("appx_policy_observations_total", "Live hits folded into the history model.",
		func() int64 { return p.pol.Stats().Observations })
	reg.CounterFunc("appx_policy_rank_total", "Policy Rank calls.",
		func() int64 { return p.pol.Stats().RankCalls })
	reg.CounterFunc("appx_policy_pruned_total", "Candidates pruned as history-unlikely.",
		func() int64 { return p.pol.Stats().Pruned })
	reg.CounterFunc("appx_policy_reordered_total", "Rank calls that changed candidate order.",
		func() int64 { return p.pol.Stats().Reordered })
	for _, s := range []struct {
		reason string
		c      *atomic.Int64
	}{
		{skipNoExemplar, &p.skips.noExemplar},
		{skipNoDepValues, &p.skips.noDepValues},
		{skipPendingFull, &p.skips.pendingFull},
		{policy.ReasonDepth, &p.skips.depth},
		{policy.ReasonUnlikely, &p.skips.unlikely},
		{skipNoRoom, &p.skips.noRoom},
		{skipDataBudget, &p.skips.dataBudget},
	} {
		c := s.c
		reg.CounterFunc(`appx_prefetch_skipped_total{reason="`+s.reason+`"}`,
			"Prefetch candidates dropped before scheduling or at dispatch, by reason.", c.Load)
	}
}

// policyV1 assembles the typed policy block of /appx/v1/stats.
func (p *Proxy) policyV1() adminv1.PolicyEntry {
	st := p.pol.Stats()
	return adminv1.PolicyEntry{
		Configured:       p.pol.Name(),
		Users:            st.Users,
		Rows:             st.Rows,
		Transitions:      st.Transitions,
		TableBytes:       st.TableBytes,
		Observations:     st.Observations,
		RankCalls:        st.RankCalls,
		Pruned:           st.Pruned,
		Reordered:        st.Reordered,
		RankP95Micros:    float64(p.rankHist.Quantile(0.95)) / float64(time.Microsecond),
		NoExemplarSkips:  p.skips.noExemplar.Load(),
		NoDepValueSkips:  p.skips.noDepValues.Load(),
		PendingFullSkips: p.skips.pendingFull.Load(),
		DepthSkips:       p.skips.depth.Load(),
		UnlikelySkips:    p.skips.unlikely.Load(),
		NoRoomSkips:      p.skips.noRoom.Load(),
		DataBudgetSkips:  p.skips.dataBudget.Load(),
	}
}
