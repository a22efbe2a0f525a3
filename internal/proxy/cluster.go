package proxy

import (
	"context"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"appx/internal/cache"
	"appx/internal/cluster"
	"appx/internal/httpmsg"
	"appx/internal/obs"
	"appx/internal/obs/adminv1"
)

// Cluster headers. Both are proxy addressing metadata and are stripped
// before canonical keying, like the user header.
const (
	// clusterHopHeader marks a request already relayed once. The receiver
	// serves it locally regardless of ring ownership — a one-hop rule, so
	// two instances with momentarily divergent membership views can never
	// bounce a request A→B→A.
	clusterHopHeader = "X-Appx-Cluster-Hop"
	// clusterForwardedHeader is set on relayed responses with the owner's
	// address, letting load drivers attribute forwarded-request latency.
	clusterForwardedHeader = "X-Appx-Cluster-Forwarded"
)

// clusterState is the proxy side of cluster mode: the membership/routing
// engine plus this instance's forwarding and peer-fill counters.
type clusterState struct {
	c *cluster.Cluster

	// hedge is the hedged-peer-read policy (hedge.go).
	hedge *hedgeState

	forwarded        atomic.Int64
	forwardFallbacks atomic.Int64
	receivedForwards atomic.Int64
	fillAttempts     atomic.Int64
	fillHits         atomic.Int64
	fillMisses       atomic.Int64
	fillErrors       atomic.Int64
	rebalances       atomic.Int64
	scopesDropped    atomic.Int64
	// forwardLoops counts owner responses that arrived already marked
	// forwarded: the owner re-relayed a hopped request, which the one-hop
	// rule forbids. The chaos oracle asserts this stays zero fleet-wide.
	forwardLoops atomic.Int64
}

// initCluster wires cluster mode into a new proxy: membership probing,
// rebalance-on-change, and the appx_cluster_* metric bridges.
func (p *Proxy) initCluster(reg *obs.Registry) {
	st := &clusterState{c: cluster.New(p.opts.Cluster)}
	// The hedge state registers one histogram per configured peer; peers are
	// fixed after New, so this is the one place registration is safe.
	st.hedge = newHedgeState(p.opts.DisableHedging, reg, st.c.Peers())
	p.cluster = st
	st.c.OnChange(p.rebalanceCluster)
	p.registerClusterBridges(reg)
	st.c.Start()
}

func (p *Proxy) registerClusterBridges(reg *obs.Registry) {
	st := p.cluster
	reg.CounterFunc("appx_cluster_forwarded_total", "Requests relayed to their owner instance.",
		st.forwarded.Load)
	reg.CounterFunc("appx_cluster_forward_fallbacks_total", "Relays that fell back to local serving.",
		st.forwardFallbacks.Load)
	reg.CounterFunc("appx_cluster_received_forwards_total", "Requests received with the cluster hop header.",
		st.receivedForwards.Load)
	reg.CounterFunc(`appx_cluster_peer_fill_total{result="hit"}`, "Peer-fill outcomes.",
		st.fillHits.Load)
	reg.CounterFunc(`appx_cluster_peer_fill_total{result="miss"}`, "Peer-fill outcomes.",
		st.fillMisses.Load)
	reg.CounterFunc(`appx_cluster_peer_fill_total{result="error"}`, "Peer-fill outcomes.",
		st.fillErrors.Load)
	reg.CounterFunc("appx_cluster_rebalances_total", "Membership changes that triggered a rebalance.",
		st.rebalances.Load)
	reg.CounterFunc("appx_cluster_scopes_dropped_total", "User scopes dropped because their hash arc moved.",
		st.scopesDropped.Load)
	reg.GaugeFunc("appx_cluster_members", "Instances currently in the ring (self included).",
		func() float64 { return float64(len(st.c.Members())) })
	reg.CounterFunc("appx_cluster_forward_loops_total", "Relayed responses already marked forwarded (one-hop violations).",
		st.forwardLoops.Load)
	reg.CounterFunc("appx_cluster_hedges_launched_total", "Hedged peer-read attempts launched.",
		st.hedge.launched.Load)
	reg.CounterFunc("appx_cluster_hedges_won_total", "Hedged attempts that won the race.",
		st.hedge.wins.Load)
	reg.CounterFunc("appx_cluster_hedges_lost_total", "Hedged attempts the primary beat.",
		st.hedge.losses.Load)
	reg.CounterFunc("appx_cluster_hedges_suppressed_total", "Hedges withheld by the rate cap.",
		st.hedge.suppressed.Load)
}

// rebalanceCluster runs after every ring rebuild (on the probe goroutine):
// user scopes whose hash arc moved to another instance are dropped — their
// new owner re-learns or warm-starts them — and everything else is left
// untouched. Foreground requests never notice: a request for a dropped
// user simply forwards to the new owner on its next arrival.
func (p *Proxy) rebalanceCluster() {
	st := p.cluster
	moved := p.dropUsers(false, func(u *user) bool { return !st.c.Owns(u.key) })
	st.scopesDropped.Add(int64(moved))
	st.rebalances.Add(1)
}

// clusterRelay proxies req to the owner instance at addr and streams the
// answer back. Returns false — and counts a fallback — when the request
// should instead be served locally: peer breaker open, transport failure,
// or the owner itself shedding (503 + Retry-After means "alive but
// refusing"; relaying that would fail a foreground request the local
// instance can still serve). Transport failures feed the peer's breaker;
// shed responses do not.
func (p *Proxy) clusterRelay(x *exchange, addr string) bool {
	st := p.cluster
	if !st.c.PeerReady(addr) {
		st.forwardFallbacks.Add(1)
		return false
	}
	// The clone carries the addressing metadata the owner needs: the user
	// key (the relay's userKey extraction already consumed it) and the hop
	// marker. The local req stays clean for the fallback path. The client's
	// context bounds the hop.
	fwd := x.req.Clone()
	fwd.SetHeader(userHeader, x.user)
	fwd.SetHeader(clusterHopHeader, st.c.Self())
	resp, err := st.c.Forward(x.ctx, addr, fwd)
	if err != nil {
		st.c.ReportForward(addr, false)
		st.forwardFallbacks.Add(1)
		return false
	}
	if resp.Status == http.StatusServiceUnavailable {
		if _, shedding := resp.GetHeader("Retry-After"); shedding {
			// The owner's body streams now: finish it so the pooled peer
			// connection is reusable before serving locally.
			if derr := resp.DrainAndClose(); derr != nil {
				p.streamStats.drainErrors.Add(1)
			}
			st.forwardFallbacks.Add(1)
			return false
		}
	}
	// An owner answering a hopped request must serve locally; a response
	// already marked forwarded means it relayed again. Count the violation
	// and strip the stale marker so the client sees one coherent hop.
	if _, looped := resp.GetHeader(clusterForwardedHeader); looped {
		st.forwardLoops.Add(1)
		resp.DeleteHeader(clusterForwardedHeader)
	}
	st.c.ReportForward(addr, true)
	st.forwarded.Add(1)
	x.w.Header().Set(clusterForwardedHeader, addr)
	resp.WriteTo(x.w)
	x.sp.EndStage(obs.StageWrite)
	return true
}

// clusterPeerFill tries to satisfy a shared-tier miss from ring siblings
// before the origin. The fleet-wide flight key issueKey(SharedScope, key) is
// claimed in the key table: exactly one local goroutine peeks peers for a key
// at a time, and because every instance walks the same owner-first sibling
// order, concurrent missing instances converge on the instance that fetched
// (or is fetching) the entry.
//
// claimed says the caller already holds the key's claim (the prefetch path);
// otherwise the fill holds it, with no task behind it, while it asks, and
// releases it — a miss or a panic included — after any Put of a peer hit.
func (p *Proxy) clusterPeerFill(ctx context.Context, key string, claimed bool) *cache.Entry {
	st := p.cluster
	ikey := issueKey(cache.SharedScope, key)
	// Dead-breaker peers drop out before the race starts, so the hedge
	// successor is always a peer worth asking.
	peers := st.c.FillPeers(ikey)
	ready := peers[:0]
	for _, addr := range peers {
		if st.c.PeerReady(addr) {
			ready = append(ready, addr)
		}
	}
	if len(ready) == 0 {
		return nil
	}
	if !claimed {
		fill := new(prefetch)
		if ok, _ := p.keys.claim(ikey, fill, false); !ok {
			// Another goroutine is already filling or fetching this key; let
			// the caller fall through to its own path rather than wait.
			return nil
		}
		defer p.keys.release(ikey, fill)
	}
	st.fillAttempts.Add(1)
	if e := p.hedgedPeek(ctx, ready, key); e != nil {
		p.store.Put(cache.SharedScope, key, e)
		st.fillHits.Add(1)
		return e
	}
	st.fillMisses.Add(1)
	return nil
}

// entryFromPeer turns a sibling's serialized entry into a local cache
// entry. The TTL travels relative (ExpiresInMs) so instances need no clock
// agreement; an entry at or past expiry is not worth storing, and a TTL too
// long for a time.Duration is malformed (it would wrap into the past). The
// miss cost does not travel: it is this instance's own view of the
// signature's origin time.
func (p *Proxy) entryFromPeer(pe *adminv1.ClusterEntry) *cache.Entry {
	if pe == nil || pe.Status != http.StatusOK || pe.ExpiresInMs <= 0 ||
		pe.ExpiresInMs > math.MaxInt64/int64(time.Millisecond) {
		return nil
	}
	resp := &httpmsg.Response{Status: pe.Status, Body: pe.Body}
	for _, h := range pe.Header {
		resp.Header = append(resp.Header, httpmsg.Field{Key: h.Key, Value: h.Value})
	}
	return p.sigs.byID[pe.SigID].stamp(&cache.Entry{
		Resp:    resp,
		SigID:   pe.SigID,
		Expires: p.opts.Now().Add(time.Duration(pe.ExpiresInMs) * time.Millisecond),
	})
}

// serveClusterEntry answers a sibling's peek (GET /appx/v1/cluster/entry
// ?key=...). Peek is deliberately side-effect-free on this instance: no
// hit/miss counters, no priority refresh — a sibling probing must not distort
// local telemetry or eviction order.
func (p *Proxy) serveClusterEntry(w http.ResponseWriter, r *http.Request) {
	if p.cluster == nil {
		http.Error(w, "appx proxy: cluster mode disabled", http.StatusNotFound)
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "appx proxy: missing key parameter", http.StatusBadRequest)
		return
	}
	e, ok := p.store.Peek(cache.SharedScope, key)
	if !ok || e.Resp == nil || !e.Resp.BodyComplete() {
		// Entries are buffered-complete by construction; a streaming or
		// truncated one must never serialize to a sibling as if whole.
		http.Error(w, "miss", http.StatusNotFound)
		return
	}
	out := adminv1.ClusterEntry{
		SigID:       e.SigID,
		Status:      e.Resp.Status,
		Body:        e.Resp.Body,
		ExpiresInMs: e.Expires.Sub(p.opts.Now()).Milliseconds(),
	}
	for _, h := range e.Resp.Header {
		out.Header = append(out.Header, adminv1.HeaderField{Key: h.Key, Value: h.Value})
	}
	writeJSON(w, out)
}

// clusterV1 assembles the typed cluster block of /appx/v1/stats. The
// zero value (Enabled=false) reports an unclustered instance.
func (p *Proxy) clusterV1() adminv1.Cluster {
	st := p.cluster
	if st == nil {
		return adminv1.Cluster{}
	}
	out := st.c.Stats()
	out.Forwarded = st.forwarded.Load()
	out.ForwardFallbacks = st.forwardFallbacks.Load()
	out.ReceivedForwards = st.receivedForwards.Load()
	out.PeerFill = adminv1.ClusterPeerFill{
		Attempts: st.fillAttempts.Load(),
		Hits:     st.fillHits.Load(),
		Misses:   st.fillMisses.Load(),
		Errors:   st.fillErrors.Load(),
	}
	out.Rebalances = st.rebalances.Load()
	out.ScopesDropped = st.scopesDropped.Load()
	out.ForwardLoops = st.forwardLoops.Load()
	out.Hedge = adminv1.Hedge{
		Enabled:    !st.hedge.disabled,
		Launched:   st.hedge.launched.Load(),
		Wins:       st.hedge.wins.Load(),
		Losses:     st.hedge.losses.Load(),
		Suppressed: st.hedge.suppressed.Load(),
	}
	return out
}

// ClusterStats exposes the cluster stats block (operational tooling and
// tests); Enabled is false when cluster mode is off.
func (p *Proxy) ClusterStats() adminv1.Cluster { return p.clusterV1() }
