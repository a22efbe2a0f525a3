package proxy

import (
	"sync/atomic"

	"appx/internal/obs"
	"appx/internal/obs/adminv1"
)

// Prefetch fan-out accounting. learnFrom fans out, in dependency-graph order,
// to every successor that is switched on and whose condition holds, up to
// maxChainDepth; the issue-time gates are Proxy.mayIssue. What this file adds
// is the accounting of every candidate or task dropped on the way.

// Skip reasons: the first four drop a candidate before it reaches the
// scheduler, the last two a task at dispatch (runPrefetch), before any origin
// byte moves.
const (
	skipDepth       = "depth"         // the candidate would sit beyond maxChainDepth
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
	case skipDepth:
		p.skips.depth.Add(1)
	case skipNoRoom:
		p.skips.noRoom.Add(1)
	case skipDataBudget:
		p.skips.dataBudget.Add(1)
	}
}

// registerSkipBridges exposes the skip counters on the metrics registry.
func (p *Proxy) registerSkipBridges(reg *obs.Registry) {
	for _, s := range []struct {
		reason string
		c      *atomic.Int64
	}{
		{skipNoExemplar, &p.skips.noExemplar},
		{skipNoDepValues, &p.skips.noDepValues},
		{skipPendingFull, &p.skips.pendingFull},
		{skipDepth, &p.skips.depth},
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
	return adminv1.PolicyEntry{
		NoExemplarSkips:  p.skips.noExemplar.Load(),
		NoDepValueSkips:  p.skips.noDepValues.Load(),
		PendingFullSkips: p.skips.pendingFull.Load(),
		DepthSkips:       p.skips.depth.Load(),
		NoRoomSkips:      p.skips.noRoom.Load(),
		DataBudgetSkips:  p.skips.dataBudget.Load(),
	}
}
