package main

import (
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	"appx/internal/cache"
	"appx/internal/httpmsg"
	"appx/internal/jsonpath"
	"appx/internal/obs"
	"appx/internal/policy"
	"appx/internal/proxy"
	"appx/internal/proxy/sched"
	"appx/internal/sig"
	"appx/internal/stream"
)

// The layer probes replay the workload's own recorded transactions against
// each layer's public functions, on the proxy, graph and cache the workload
// left behind, after its timed phases. They time batches and report the
// median batch, so a collection landing in one batch does not move the number.

// probeTxn is one recorded client transaction in the proxy's own request
// form (user tag included, as the proxy receives it).
type probeTxn struct {
	req  *httpmsg.Request
	body []byte
}

type probeInput struct {
	// short divides every iteration count by ten (the smoke test).
	short bool
	px    *proxy.Proxy
	graph *sig.Graph
	txns  []probeTxn
	// fresh, when set, returns never-requested instances of the workload's
	// miss kind; without it the recorded transactions that miss are reused.
	fresh func(i int) *httpmsg.Request
	// sharedTier says whether a lookup probes the shared tier after the
	// user's scope (config.Default) or stops at the scope (internal/lab).
	sharedTier bool
	// upstream, when set, reads the upstream shim's call count and busy time,
	// so the miss probe can time the origin exchanges it causes itself.
	upstream func() (calls, busyNs int64)
	// maxMisses bounds the miss probe, whose every call is an origin round
	// trip (tens of emulated milliseconds in the lab).
	maxMisses int
}

const userTag = "X-Appx-User"

// discardWriter is the ResponseWriter of the direct-ServeHTTP probes.
type discardWriter struct {
	h http.Header
	n int64
}

func newDiscardWriter() *discardWriter       { return &discardWriter{h: make(http.Header, 4)} }
func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Flush()              {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// serverRequest converts a recorded request to what net/http's server would
// hand the proxy for it.
func serverRequest(r *httpmsg.Request) (*http.Request, error) {
	hr, err := r.ToHTTP()
	if err != nil {
		return nil, err
	}
	hr.Host = r.Host
	hr.RemoteAddr = "127.0.0.1:1"
	return hr, nil
}

func (in probeInput) iterations(n int) int {
	if in.short && n >= 10 {
		return n / 10
	}
	return n
}

// timeBatches runs op in batches and returns the median batch's ns per call.
func (in probeInput) timeBatches(batches, per int, op func(i int)) float64 {
	per = in.iterations(per)
	times := make([]float64, 0, batches)
	i := 0
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for k := 0; k < per; k++ {
			op(i)
			i++
		}
		times = append(times, float64(time.Since(t0))/float64(per))
	}
	return median(times)
}

// allocsPer counts process-wide mallocs per call of op over n calls.
func (in probeInput) allocsPer(n int, op func(i int)) float64 {
	n = in.iterations(n)
	runtime.GC()
	before := mallocs()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(mallocs()-before) / float64(n)
}

// trimmedMean is the mean of the middle 90 % of v.
func trimmedMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	lo, hi := len(s)/20, len(s)-len(s)/20
	return mean(s[lo:hi])
}

// serveProbe is the direct-ServeHTTP measurement of one class of request.
type serveProbe struct {
	us     float64 // trimmed mean wall time per call
	allocs float64 // process-wide mallocs per call, prefetch work included
	n      int
	// per-request counter deltas over the probe, for the budget's call counts
	instances  float64 // prefetch instances the request fanned out (shallow class)
	bodyBytes  float64
	upstreamUs float64 // origin exchange to response headers, mean over the probe; 0 = not read
	getHitNs   float64 // cache.Get of the entries the hits were served from, timed before the misses evict them
}

func isHit(o obs.Outcome) bool { return o == obs.OutcomePrefetchHit || o == obs.OutcomeRefreshHit }

// serveOnce calls ServeHTTP with a discard writer and reads the outcome of
// the span it produced (the probe is the only client, so the newest span).
func serveOnce(px *proxy.Proxy, r *httpmsg.Request) (dt time.Duration, out obs.Outcome, wrote int64, err error) {
	hr, err := serverRequest(r)
	if err != nil {
		return 0, 0, 0, err
	}
	w := newDiscardWriter()
	t0 := time.Now()
	px.ServeHTTP(w, hr)
	dt = time.Since(t0)
	if sp := px.RecentSpans(1); len(sp) == 1 {
		out = sp[0].Outcome
	}
	return dt, out, w.n, nil
}

// mallocs reads the process-wide malloc count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// serveBudget bounds how long the direct-ServeHTTP probe may run: a miss in
// the lab waits out emulated round trips.
const serveBudget = 4 * time.Second

// probeServe calls ServeHTTP directly — no socket, a discard writer — on the
// workload's recorded requests and on fresh instances of its miss kind, and
// sorts every call by the outcome its own span reports: what was a miss when
// recorded may be a hit now, and the other way round. Hits are measured
// first, misses last, because a miss's fan-out evicts.
func probeServe(in probeInput) (hit, miss serveProbe, hits []probeTxn) {
	var sample []probeTxn
	seen := map[string]bool{}
	for _, t := range in.txns {
		key := t.req.CanonicalKey() + "\x00" + headerOf(t.req, userTag) + "\x00" + headerOf(t.req, "Range")
		if !seen[key] {
			seen[key] = true
			sample = append(sample, t)
		}
	}
	if len(sample) == 0 {
		return
	}
	var hitUs, missUs, hitAllocs, missAllocs []float64
	timed := func(r *httpmsg.Request) obs.Outcome {
		dt, out, n, err := serveOnce(in.px, r)
		switch {
		case err != nil:
			return obs.OutcomeUnknown
		case isHit(out):
			hitUs = append(hitUs, float64(dt)/1e3)
			hit.bodyBytes += float64(n)
		case out == obs.OutcomeOrigin:
			missUs = append(missUs, float64(dt)/1e3)
			miss.bodyBytes += float64(n)
		}
		return out
	}
	// counted charges a call its process-wide mallocs, its prefetch work
	// drained before the count is read so that a miss pays for the fan-out it
	// starts. Building the request and reading the span back are the probe's
	// own mallocs: they are counted alone and taken off.
	counted := func(r *httpmsg.Request) {
		own0 := mallocs()
		serverRequest(r.Clone())
		newDiscardWriter()
		in.px.RecentSpans(1)
		m0 := mallocs()
		_, out, _, err := serveOnce(in.px, r)
		if err == nil && out == obs.OutcomeOrigin {
			in.px.Drain()
		}
		n := float64(mallocs()-m0) - float64(m0-own0)
		switch {
		case err != nil:
		case isHit(out):
			hitAllocs = append(hitAllocs, n)
		case out == obs.OutcomeOrigin:
			missAllocs = append(missAllocs, n)
		}
	}
	shallow := in.px.SchedMetrics().Shallow
	var calls0, busy0 int64
	if in.upstream != nil {
		calls0, busy0 = in.upstream()
	}
	// One pass over the whole sample, then only over what that pass found to
	// be hits: a recorded miss is replayed once, not until the clock runs out.
	deadline := time.Now().Add(serveBudget)
	for i := 0; i < len(sample) && time.Now().Before(deadline); i++ {
		if isHit(timed(sample[i].req.Clone())) {
			hits = append(hits, sample[i])
		}
	}
	for i := 0; len(hits) > 0 && len(hitUs) < in.iterations(4000) && time.Now().Before(deadline); i++ {
		timed(hits[i%len(hits)].req.Clone())
	}
	in.px.Drain()
	if len(hits) > 0 {
		hit.getHitNs = probeGetHit(in, hits)
	}
	for i := 0; i < len(hits) && len(hitAllocs) < 200; i++ {
		counted(hits[i].req.Clone())
	}
	if in.fresh == nil {
		for i := 0; i < len(sample) && len(missAllocs) < in.maxMisses/4 && time.Now().Before(deadline); i++ {
			counted(sample[i].req.Clone())
		}
	} else {
		// Where the workload can make fresh instances of its miss kind, they
		// alone are its miss sample.
		missUs, miss.bodyBytes = nil, 0
		shallow = in.px.SchedMetrics().Shallow
		if in.upstream != nil {
			calls0, busy0 = in.upstream()
		}
		for i := 0; i < in.maxMisses; i++ {
			timed(in.fresh(i))
		}
	}
	in.px.Drain()
	hit.n, miss.n = len(hitUs), len(missUs)
	hit.us, miss.us = trimmedMean(hitUs), trimmedMean(missUs)
	if hit.n > 0 {
		hit.bodyBytes /= float64(hit.n)
	}
	if miss.n > 0 {
		miss.bodyBytes /= float64(miss.n)
		after := in.px.SchedMetrics().Shallow
		miss.instances = float64(after.Submitted+after.Dropped()-shallow.Submitted-shallow.Dropped()) / float64(miss.n)
		if in.upstream != nil {
			if calls, busy := in.upstream(); calls > calls0 {
				miss.upstreamUs = float64(busy-busy0) / float64(calls-calls0) / 1e3
			}
		}
	}
	for i := 0; in.fresh != nil && i < in.maxMisses/4; i++ {
		counted(in.fresh(in.maxMisses + i))
	}
	in.px.Drain()
	hit.allocs, miss.allocs = median(hitAllocs), median(missAllocs)
	return hit, miss, hits
}

// probeGetHit times Store.Get on the resident entries behind the hit sample,
// in whichever scope (the user's or the shared tier) holds each.
func probeGetHit(in probeInput, hits []probeTxn) float64 {
	store := in.px.Cache()
	type loc struct{ scope, key string }
	var present []loc
	for _, t := range hits {
		r := t.req.Clone()
		user := headerOf(r, userTag)
		r.DeleteHeader(userTag)
		key := r.CanonicalKey()
		for _, scope := range []string{user, cache.SharedScope} {
			if _, ok := store.Peek(scope, key); ok {
				present = append(present, loc{scope, key})
				break
			}
		}
	}
	if len(present) == 0 {
		return 0
	}
	return in.timeBatches(20, 1000, func(i int) { l := present[i%len(present)]; store.Get(l.scope, l.key) })
}

func headerOf(r *httpmsg.Request, key string) string {
	v, _ := r.GetHeader(key)
	return v
}

// layerCosts are the per-call costs of the layers' public functions.
type layerCosts struct {
	parseNs, parseAllocs, keyNs, writeNs float64
	matchNs, matchAllocs                 float64
	getMissNs, putNs                     float64
	rankNs, observeNs                    float64
	submitNs, queueWaitUs                float64
	decodeNs, extractNs                  float64
	spoolMBps, spoolAllocsPerMiB         float64
	spanNs, spanAllocs                   float64
	spoolNsPerByte                       float64
}

func probeLayers(in probeInput, hits []probeTxn, fanout int) layerCosts {
	var lc layerCosts
	txns := in.txns
	if len(txns) == 0 {
		return lc
	}
	if len(txns) > 256 {
		txns = txns[:256]
	}

	// httpmsg: parse what the server hands over, key it without the memo,
	// write a buffered response.
	// FromHTTPLimited consumes its request's body, so every call gets a
	// request of its own, built before the clock starts.
	const parseN = 2000
	hreqs := make([]*http.Request, parseN)
	build := func() {
		for i := range hreqs {
			hreqs[i], _ = serverRequest(txns[i%len(txns)].req)
		}
	}
	parse := func(i int) { httpmsg.FromHTTPLimited(hreqs[i], 64<<20) }
	build()
	lc.parseNs = in.timeBatches(20, parseN/20, parse)
	build()
	lc.parseAllocs = in.allocsPer(parseN, parse)
	parsed := make([]*httpmsg.Request, len(txns))
	for i, t := range txns {
		parsed[i] = t.req.Clone()
		parsed[i].DeleteHeader(userTag)
	}
	lc.keyNs = in.timeBatches(20, 500, func(i int) {
		r := parsed[i%len(parsed)]
		r.DeleteHeader("X-Bench-None") // a mutator call drops the memoized key
		r.CanonicalKey()
	})
	wtxn := txns[0]
	if len(hits) > 0 {
		wtxn = hits[0]
	}
	wresp := &httpmsg.Response{Status: http.StatusOK, Body: wtxn.body, Header: []httpmsg.Field{
		{Key: "Content-Type", Value: "application/json"}, {Key: "Content-Length", Value: strconv.Itoa(len(wtxn.body))}}}
	lc.writeNs = in.timeBatches(20, 500, func(int) { wresp.WriteTo(newDiscardWriter()) })

	// sig: match the recorded requests against the workload's graph.
	lc.matchNs = in.timeBatches(20, 1000, func(i int) { in.graph.MatchRequest(parsed[i%len(parsed)]) })
	lc.matchAllocs = in.allocsPer(5000, func(i int) { in.graph.MatchRequest(parsed[i%len(parsed)]) })

	// cache: Get on entries the workload left resident, Get of absent keys,
	// Put of bodies of the workload's size into a scope of the probe's own.
	store := in.px.Cache()
	absent := make([]string, 1024)
	for i := range absent {
		absent[i] = "bench-probe-absent-" + strconv.Itoa(i)
	}
	lc.getMissNs = in.timeBatches(20, 1000, func(i int) { store.Get("bench-probe", absent[i%len(absent)]) })
	putBody := wtxn.body
	expires := time.Now().Add(5 * time.Minute)
	lc.putNs = in.timeBatches(20, 500, func(i int) {
		store.Put("bench-probe", absent[i%len(absent)], &cache.Entry{
			Resp: &httpmsg.Response{Status: http.StatusOK, Body: putBody}, SigID: "bench:probe", Expires: expires})
	})
	store.DropScope("bench-probe")

	// policy: the default (static) policy ranking one fan-out's candidates.
	pol := policy.NewStatic(policy.Hooks{})
	cands := make([]policy.Candidate, fanout)
	for i := range cands {
		cands[i] = policy.Candidate{SigID: "bench:cand#" + strconv.Itoa(i%4), Index: i, Prior: 1}
	}
	lc.rankNs = in.timeBatches(20, 1000, func(int) { pol.Rank("u0", "bench:pred#0", cands) })
	now := time.Now()
	lc.observeNs = in.timeBatches(20, 1000, func(int) { pol.Observe("u0", "bench:cand#0", now) })

	// sched: Submit on a scheduler built like the proxy's, and the wait of
	// stamped no-op tasks submitted a fan-out at a time.
	sc := sched.NewWith(sched.Config{Workers: 8, Priority: in.px.Stats().Priority})
	var waits []float64
	waitCh := make(chan time.Duration, fanout)
	lc.submitNs = in.timeBatches(20, 200, func(int) { sc.Submit(&sched.Task{SigID: "bench:probe", Class: sched.ClassShallow, Run: func() {}}) })
	sc.Drain()
	for b := 0; b < in.iterations(200); b++ {
		for k := 0; k < fanout; k++ {
			stamp := time.Now()
			sc.Submit(&sched.Task{SigID: "bench:probe", Class: sched.ClassShallow, Run: func() { waitCh <- time.Since(stamp) }})
		}
		for k := 0; k < fanout; k++ {
			waits = append(waits, float64(<-waitCh)/1e3)
		}
	}
	sc.Close()
	lc.queueWaitUs = median(waits)

	// jsonpath: decode a predecessor's recorded body and extract the values
	// its dependency edge names; any JSON body and a bare path stand in when
	// the sample holds no predecessor.
	doc, path := []byte(nil), jsonpath.Path(nil)
	for _, t := range txns {
		if len(t.body) == 0 {
			continue
		}
		r := t.req.Clone()
		r.DeleteHeader(userTag)
		for _, s := range in.graph.MatchRequest(r) {
			if deps := in.graph.DepsFrom(s.ID); len(deps) > 0 && doc == nil {
				if p, err := jsonpath.Parse(deps[0].RespPath); err == nil {
					if _, err := jsonpath.Decode(t.body); err == nil {
						doc, path = t.body, p
					}
				}
			}
		}
	}
	if doc == nil {
		for _, t := range txns {
			if _, err := jsonpath.Decode(t.body); err == nil && len(t.body) > 0 {
				doc, path = t.body, jsonpath.MustParse("id")
				break
			}
		}
	}
	if doc != nil {
		lc.decodeNs = in.timeBatches(20, 200, func(int) { jsonpath.Decode(doc) })
		dec, _ := jsonpath.Decode(doc)
		lc.extractNs = in.timeBatches(20, 500, func(int) { jsonpath.ExtractStrings(dec, path) })
	}

	// stream: one MiB through a spool drawn from a pool of the proxy's chunk
	// size, written in socket-read-sized pieces and read back out.
	pool := stream.NewPool(in.px.ChunkPool().ChunkBytes())
	piece := make([]byte, 32<<10)
	oneMiB := func(int) {
		sp := stream.NewSpool(pool, 4<<20, nil)
		rd, _ := sp.ReaderAt(0)
		for off := 0; off < 1<<20; off += len(piece) {
			sp.Append(piece)
		}
		sp.CloseWriter(nil)
		rd.WriteTo(io.Discard)
		rd.Close()
		sp.Discard()
	}
	nsPerMiB := in.timeBatches(20, 10, oneMiB)
	lc.spoolMBps = float64(1<<20) / nsPerMiB * 1e3
	lc.spoolNsPerByte = nsPerMiB / float64(1<<20)
	lc.spoolAllocsPerMiB = in.allocsPer(100, oneMiB)

	// obs: one span's lifecycle as ServeHTTP drives it.
	rec := obs.NewSpanRecorder(obs.NewRegistry(), 0, nil)
	oneSpan := func(int) {
		sp := rec.Start()
		sp.EndStage(obs.StageAdmission)
		sp.EndStage(obs.StageParse)
		sp.EndStage(obs.StageCache)
		sp.EndStage(obs.StageOrigin)
		sp.EndStage(obs.StageWrite)
		sp.EndStage(obs.StageLearn)
		sp.SetOutcome(obs.OutcomeOrigin)
		sp.Finish()
	}
	lc.spanNs = in.timeBatches(20, 1000, oneSpan)
	lc.spanAllocs = in.allocsPer(5000, oneSpan)
	return lc
}
