package proxy

import (
	"context"
	"errors"
	"net/http"
	"time"

	"appx/internal/cache"
	"appx/internal/httpmsg"
	"appx/internal/obs"
)

// The foreground request lifecycle (DESIGN.md §8). One proxied request is one
// exchange walked through the obs.Stage pipeline by serve and sealed by
// finish. serve and its helpers only *return* the terminal outcome and stamp
// facts on the exchange (signature, first-byte time); finish alone turns
// them into the span's outcome and sig and the TTFB sample.

// exchange is one proxied client request in flight. It lives on ServeHTTP's
// stack: helpers take it by pointer and must not retain it.
type exchange struct {
	ctx  context.Context
	w    http.ResponseWriter
	sp   *obs.Span
	req  *httpmsg.Request
	user string

	// start is the end of the parse stage: the baseline for TTFB and for
	// the origin response time a flight records.
	start time.Time
	// first is when response bytes first reached the client; zero when the
	// request was refused or failed before any origin or cached byte.
	first time.Time
	// sigID is the signature the request was attributed to, if any.
	sigID string
}

// ServeHTTP handles one proxied client request (Figure 10's flow: serve
// fresh prefetched responses directly, otherwise forward, then feed the
// transaction into dynamic learning).
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Origin-form requests (no absolute URI) address the proxy itself
	// rather than an upstream: serve the small operational surface. No span:
	// admin traffic is not part of the accelerated request population.
	if r.URL.Host == "" {
		p.serveStatus(w, r)
		return
	}
	x := exchange{ctx: r.Context(), w: w, sp: p.spans.Start()}
	// Deferred so a panicking stage still seals its span (as OutcomeUnknown).
	var outcome obs.Outcome
	defer func() { p.finish(&x, outcome) }()
	outcome = p.serve(&x, r)
}

// finish seals one exchange: exactly one span and at most one TTFB sample
// per proxied request. It touches nothing else — every request passes
// through here, cache hits included.
func (p *Proxy) finish(x *exchange, outcome obs.Outcome) {
	x.sp.SetSig(x.sigID)
	x.sp.SetOutcome(outcome)
	x.sp.Finish()
	if !x.first.IsZero() {
		p.ttfb.Observe(x.first.Sub(x.start))
	}
}

// refuse answers 503 with a Retry-After hint and reports the shed outcome.
func refuse(w http.ResponseWriter, msg, retryAfter string) obs.Outcome {
	w.Header().Set("Retry-After", retryAfter)
	http.Error(w, msg, http.StatusServiceUnavailable)
	return obs.OutcomeShed
}

// serve walks one exchange through the stage pipeline and returns its
// terminal outcome.
func (p *Proxy) serve(x *exchange, r *http.Request) obs.Outcome {
	// Admission. Draining refuses new proxied work so a graceful shutdown
	// waits out only requests already in flight; otherwise the gate bounds
	// concurrent client work. Retry-After: a draining instance is leaving
	// (stay away longest); a gate shed is momentary.
	draining := p.draining.Load()
	admitted := !draining && p.gate.acquire(x.ctx)
	x.sp.EndStage(obs.StageAdmission)
	switch {
	case draining:
		return refuse(x.w, "proxy: draining", "5")
	case !admitted:
		return refuse(x.w, "proxy: overloaded", "2")
	}
	defer p.gate.release()

	// Parse: decode, resolve the user, route, key.
	x.user = userKey(r)
	x.sp.SetUser(x.user)
	req, err := httpmsg.FromHTTPLimited(r, p.maxBody)
	if err != nil {
		x.sp.EndStage(obs.StageParse)
		if errors.Is(err, httpmsg.ErrBodyTooLarge) {
			http.Error(x.w, "proxy: request body too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(x.w, "proxy: malformed request: "+err.Error(), http.StatusBadRequest)
		}
		return obs.OutcomeError
	}
	x.req = req
	// The user and cluster tags are proxy addressing metadata, not
	// application payload: record what they say, then strip them here —
	// before any routing decision — so no path (relay, fallback, origin,
	// error) can leak them onward or let them perturb exact-match keys.
	_, hopped := req.GetHeader(clusterHopHeader)
	req.DeleteHeader(userHeader)
	req.DeleteHeader(clusterHopHeader)
	// Cluster routing: a request for a user this instance does not own is
	// relayed to the owner, so the user's learned state accretes in exactly
	// one place. The hop header caps relaying at one hop — a forwarded
	// request is always served where it lands, even if membership views
	// momentarily disagree about ownership. Relay failure of any kind falls
	// through to local serving: topology trouble must never fail a
	// foreground request.
	if p.cluster != nil {
		if hopped {
			p.cluster.receivedForwards.Add(1)
		} else if addr, self := p.cluster.c.Owner(x.user); !self && p.clusterRelay(x, addr) {
			return obs.OutcomeForwarded
		}
	}
	u := p.user(x.user)
	key := req.CanonicalKey()
	x.sp.EndStage(obs.StageParse)
	x.start = p.opts.Now()

	// Cache.
	entry, shared := p.lookup(u, key)
	x.sp.EndStage(obs.StageCache)
	if entry != nil {
		return p.serveEntry(x, u, entry, shared, obs.OutcomePrefetchHit)
	}

	// The match decides whether this miss becomes a flight (spooled,
	// capturable, attachable) or — unmatched or prefetch disabled — a plain
	// passthrough, forwarded verbatim, Range header and all.
	// Each matched signature is resolved to its record here, once; accounting,
	// learning and the prefetches it spawns follow the pointer. (A signature
	// added to the graph after New has no record and counts as unmatched.)
	var buf [4]*sigState
	matched := buf[:0]
	if !p.opts.DisablePrefetch {
		for _, s := range p.opts.Graph.MatchRequest(req) {
			if st := p.sigs.byID[s.ID]; st != nil {
				matched = append(matched, st)
			}
		}
	}
	if len(matched) == 0 {
		return p.passthrough(x, u)
	}
	lead := matched[0]
	shareable := p.sharedEligible(lead.sig, req)

	// Cluster peer fill: a shared-eligible miss asks ring siblings for the
	// entry before paying an origin round trip. Only cacheable targets
	// qualify — signatures someone prefetches (they have dependency edges
	// in) and whose responses are user-agnostic. The fill Puts into the
	// local shared tier, so it both answers this request and warms the
	// instance.
	if p.cluster != nil && shareable && lead.successor {
		if entry := p.clusterPeerFill(x.ctx, key, false); entry != nil {
			return p.serveEntry(x, u, entry, true, obs.OutcomePeerHit)
		}
	}

	// Matched: this fetch is a flight. The flight key lives on the same
	// scope the prefetch path uses, so a foreground miss, a prefetch worker,
	// and any number of concurrent clients converge on one origin fetch.
	scope := x.user
	if shareable {
		scope = cache.SharedScope
	}
	fkey := issueKey(scope, key)
	for retried := false; ; retried = true {
		fl, rd, owner := p.keys.open(fkey)
		if owner {
			return p.runFlight(x, u, matched, scope, key, fkey, fl)
		}
		served, failed := p.attachFlight(x, fl, rd)
		switch {
		case served:
			p.streamStats.attachHits.Add(1)
			x.sigID = lead.sig.ID
			if absorbCookies(u, req.Host, fl.header) {
				p.retryParked(u)
			}
			return obs.OutcomeAttachHit
		case failed && !retried:
			// The flight failed and has left the table: look again, so even a
			// failing key is fetched once at a time.
			continue
		case failed:
			x.sigID = lead.sig.ID
			http.Error(x.w, "proxy: upstream: "+fl.err.Error(), http.StatusBadGateway)
			return obs.OutcomeError
		}
		// The flight answered non-200 or slid past this client's range: fetch
		// independently, without opening a second flight.
		return p.passthrough(x, u)
	}
}

// serveEntry answers the exchange from a complete buffered entry — a local
// cache hit or a peer fill. R3: the prefetched request was byte-identical
// (canonical key equality), so the client receives exactly the origin's
// bytes — true even across users for shared-tier hits. writeBuffered slices
// 206s locally when the client asked for a Range of the entity.
//
// A hit teaches like a miss does: once the client has its bytes, a
// predecessor's response runs the predecessor routine again, from depth 0.
// Children still cached dedup away; children evicted or expired since the
// parent was prefetched are re-issued now, a couple of round trips before the
// client asks for them; children still queued behind speculation are
// promoted. (With DisablePrefetch nothing is ever looked up or filled, so no
// request gets here.)
func (p *Proxy) serveEntry(x *exchange, u *user, entry *cache.Entry, shared bool, outcome obs.Outcome) obs.Outcome {
	st := p.sigs.byID[entry.SigID]
	x.sigID = entry.SigID
	first := entry.FirstUse()
	p.stats.countHit(st, int64(len(entry.Resp.Body)), first, shared)
	if first && entry.Borrowed {
		p.borrowedUsed.Inc()
	}
	p.writeBuffered(x.w, x.req, entry.Resp)
	teaches := st != nil && st.plan != nil && !p.opts.DisableChaining
	if f, ok := x.w.(http.Flusher); ok && teaches {
		// A small response sits in net/http's buffer until the handler
		// returns: push it out, so the client is not kept waiting while the
		// proxy works out what it will ask for next.
		f.Flush()
	}
	p.firstByte(x)
	// The cookies the client was just handed are the ones its next requests
	// carry, this hit's children included.
	cookied := absorbCookies(u, x.req.Host, entry.Resp.Header)
	if teaches {
		p.learn(u, st, x.req, entry.Resp, 0, false)
		x.sp.EndStage(obs.StageLearn)
	}
	if cookied {
		p.retryParked(u)
	}
	return outcome
}

// firstByte closes the write stage at the moment response bytes reached the
// client and stamps it; finish turns the stamp into the TTFB sample.
func (p *Proxy) firstByte(x *exchange) {
	x.sp.EndStage(obs.StageWrite)
	x.first = p.opts.Now()
}

// fetchOrigin runs the exchange's own origin round trip. The client's
// context bounds it, so a disconnect cancels the fetch, and a replayable
// request gets one immediate retry. On failure the client has been answered
// 502 and the error is returned.
func (p *Proxy) fetchOrigin(x *exchange, sent *httpmsg.Request) (*httpmsg.Response, error) {
	resp, err := p.roundTrip(x.ctx, sent, false)
	x.sp.EndStage(obs.StageOrigin)
	if err != nil {
		http.Error(x.w, "proxy: upstream: "+err.Error(), http.StatusBadGateway)
		return nil, err
	}
	return resp, nil
}

// passthrough forwards the request on the client's behalf and streams the
// answer through untouched: no spool, no capture, no learning beyond the
// cookies it sets for the user.
func (p *Proxy) passthrough(x *exchange, u *user) obs.Outcome {
	resp, err := p.fetchOrigin(x, x.req)
	if err != nil {
		return obs.OutcomeError
	}
	x.first = p.opts.Now()
	resp.WriteTo(x.w)
	x.sp.EndStage(obs.StageWrite)
	if absorbCookies(u, x.req.Host, resp.Header) {
		p.retryParked(u)
	}
	return obs.OutcomeOrigin
}

// readsBody reports whether learning from any of the matched signatures
// reads the response body: only predecessors with a read plan do.
func readsBody(matched []*sigState) bool {
	for _, st := range matched {
		if st.plan != nil {
			return true
		}
	}
	return false
}

// runFlight executes the owner side of a foreground flight: fetch the whole
// entity, publish headers to any attachers, pump the body through the spool
// while serving this client from it, then feed the capture into stats and
// learning. key is the request's canonical key, fkey names the flight in the
// key table, scope the cache scope a prefetch of the same request would fill.
// With a twin held by another user the fetch is a revalidation
// (revalidate.go): a 304 is published as the 200 it stands for, so attachers,
// the client and the commit all see a 200, and it counts no origin bytes and
// no response-time sample.
func (p *Proxy) runFlight(x *exchange, u *user, matched []*sigState, scope, key, fkey string, fl *flight) obs.Outcome {
	lead := matched[0]
	x.sigID = lead.sig.ID
	// The origin always sees the whole-entity request: Range is stripped and
	// the 206 (if asked for) is sliced locally from the spool, so the capture
	// stays a complete entity every attacher and the cache can share.
	sent := x.req
	if rangeHeaderOf(sent) != "" {
		sent = sent.Clone()
		sent.DeleteHeader("Range")
		sent.DeleteHeader("If-Range")
	}
	etag, twin := p.twin(scope, key, x.req)
	if twin != nil {
		sent = conditional(sent, etag)
	}
	resp, err := p.fetchOrigin(x, sent)
	if err != nil {
		p.failFlight(fkey, fl, err)
		return obs.OutcomeError
	}
	elapsed := p.opts.Now().Sub(x.start)
	notModified := false
	if twin != nil {
		resp, notModified = lead.revalidated(twin, resp, false)
	}
	fl.publish(resp)
	// A capture learning reads takes a sized segment even when one chunk
	// would hold the body, so it needs no copy.
	capture := readsBody(matched)
	// Resolve this client's own view (Range against the declared total, if
	// any) and pin a reader BEFORE the pump starts: pre-pump, no offset can
	// have been trimmed away, so the owner is always servable from its own
	// flight.
	off, length, contentRange, unsat := flightRange(x.req, fl)
	if unsat {
		go p.pump(fl, resp, sent.Method, capture)
		writeRangeHeaders(x.w, fl.header, http.StatusRequestedRangeNotSatisfiable, contentRange, 0)
		p.firstByte(x)
	} else {
		rd, rerr := fl.sp.ReaderAt(off)
		go p.pump(fl, resp, sent.Method, capture)
		if rerr == nil {
			p.serveSpool(x, fl, rd, length, contentRange)
			rd.Close()
		}
	}

	// Body accounting and learning happen once the pump finishes. Under-cap
	// bodies always complete into a capture (no backpressure below the cap),
	// even when this client disconnected mid-stream; over-cap bodies are
	// abandoned by the pump as soon as the last reader detaches.
	fl.sp.Wait()
	waiting := p.keys.settle(fkey, fl) // a prefetch of this key still queued
	ok := fl.sp.Complete()
	if !ok && fl.sp.Overflowed() {
		p.streamStats.bodyOverflows.Add(1)
	}
	if !notModified {
		lead.observeRespTime(elapsed)
		p.stats.forwardedBytes.Add(fl.sp.Size())
	}
	lead.misses.Add(1)
	// The miss is classified, and what the request and its response show of
	// the user's device is folded into the profile, before learning: the
	// fan-out below may borrow from it.
	taught := noteMiss(u, lead, x.req, fl.header, waiting != nil)
	if ok {
		// The capture is committed under a queued prefetch's claim, as an
		// adopting worker would have; the task then finds the key resident.
		commit := waiting != nil && fl.status == http.StatusOK
		lresp := &httpmsg.Response{Status: fl.status, Header: fl.header}
		// The body is taken from the spool only when something will read it
		// — the cache, or learning because some matched signature has a read
		// plan. Every other capture (a streamed blob nothing depends on) is
		// accounted from the spool, and its segment is recycled. A
		// revalidated capture is the twin's own slice.
		switch {
		case notModified:
			lresp.Body = twin.Body
		case commit || capture:
			lresp.Body, _ = fl.sp.Bytes()
		}
		root := u.roots.Add(1)
		if commit {
			e := lead.stamp(&cache.Entry{Resp: lresp,
				Expires: p.opts.Now().Add(p.opts.Config.Expiration(lead.pol)), Root: root})
			e.FirstUse() // this client has been served it
			p.store.Put(scope, key, e)
		}
		// Ambiguous URI patterns (fully dynamic URLs look identical) mean one
		// live transaction can instantiate several signatures; learn through
		// every match so each keeps a usable exemplar. One transaction, one
		// root.
		for _, st := range matched {
			p.learnFrom(u, st, x.req, lresp, 0, root, true)
		}
		x.sp.EndStage(obs.StageLearn)
	}
	fl.sp.Discard()
	// Instances parked before the profile learned what it learned here are
	// retried after this transaction's own fan-out.
	if taught {
		p.retryParked(u)
	}
	return obs.OutcomeOrigin
}
