package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/proxy"
	"appx/internal/sig"
)

// nClients is the number of client goroutines, one connection each: few
// enough that the generator never outnumbers the cores it shares with the
// proxy and the origin.
func nClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// upstreamShim is the proxy.Upstream the benchmark hands the proxy: it times
// every origin exchange up to the response headers and forwards to the real
// loopback upstream.
type upstreamShim struct {
	next proxy.Upstream
	tr   *tracer

	calls, errs, busyNs atomic.Int64
}

func (u *upstreamShim) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	start := time.Now()
	resp, err := u.next.RoundTrip(ctx, r)
	end := time.Now()
	u.calls.Add(1)
	u.busyNs.Add(int64(end.Sub(start)))
	if err != nil {
		u.errs.Add(1)
	}
	if u.tr.enabled() {
		ref, _ := ctx.Value(spanKey{}).(spanRef)
		u.tr.span("upstream.roundtrip", ref.id, ref.req, start, end)
	}
	return resp, err
}

// spanKey carries the handler shim's span into the proxy's request context,
// which the proxy passes on to the upstream for foreground fetches.
type spanKey struct{}

type spanRef struct{ id, req uint64 }

// handlerShim wraps the proxy on the traced listener: one span per request,
// joined to the client's by the connection it arrived on, plus the time of the
// first response byte the proxy wrote.
type handlerShim struct {
	next http.Handler
	tr   *tracer
}

func (h *handlerShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.enabled() {
		h.next.ServeHTTP(w, r)
		return
	}
	var req uint64
	if v, ok := h.tr.connReq.Load(r.RemoteAddr); ok {
		req = v.(*atomic.Uint64).Load()
	}
	id := h.tr.newID()
	fw := &firstByteWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(fw, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{id, req})))
	end := time.Now()
	h.tr.add("proxy.serve", id, req, req, start, end)
	if !fw.first.IsZero() {
		h.tr.span("proxy.first_byte", id, req, start, fw.first)
	}
}

// firstByteWriter stamps the first header or body write.
type firstByteWriter struct {
	http.ResponseWriter
	first time.Time
}

func (w *firstByteWriter) stamp() {
	if w.first.IsZero() {
		w.first = time.Now()
	}
}

func (w *firstByteWriter) WriteHeader(code int) {
	w.stamp()
	w.ResponseWriter.WriteHeader(code)
}

func (w *firstByteWriter) Write(p []byte) (int, error) {
	w.stamp()
	return w.ResponseWriter.Write(p)
}

// Flush keeps the proxy's streaming path flushing through the wrapper.
func (w *firstByteWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// system is one booted loopback stack: origin server, upstream, proxy, and
// two front listeners on the same proxy — a bare one for untraced phases and
// one behind the handler shim for traced phases.
type system struct {
	content *content
	origin  *origin
	up      *upstreamShim
	px      *proxy.Proxy
	graph   *sig.Graph
	tr      *tracer

	rawAddr, tracedAddr string
	servers             []*http.Server
	// setupBytes counts the body bytes the set-up's own requests consumed.
	setupBytes int64
	setupList  *probeTxn
}

// systemOptions is what a workload decides about its stack. Everything else
// is proxy.New's and config.Default's defaults, the ones appx-proxy ships.
type systemOptions struct {
	seed    int64
	graph   *sig.Graph
	listFan int
	// maxEntriesPerUser, when > 0, lowers the per-user cache entry cap so the
	// workload's working set does not fit (learn_fanout).
	maxEntriesPerUser int
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

func bootSystem(o systemOptions) (*system, error) {
	s := &system{content: newContent(o.seed, o.listFan), graph: o.graph, tr: newTracer()}
	s.origin = newOrigin(s.content, s.tr)
	osrv, oaddr, err := serve(s.origin)
	if err != nil {
		return nil, fmt.Errorf("origin listen: %w", err)
	}
	s.servers = append(s.servers, osrv)
	s.up = &upstreamShim{next: proxy.NewNetUpstream(map[string]string{originHost: oaddr}, nil), tr: s.tr}
	s.px = proxy.New(proxy.Options{
		Graph:                  o.graph,
		Config:                 config.Default(o.graph),
		Upstream:               s.up,
		MaxCacheEntriesPerUser: o.maxEntriesPerUser,
	})
	raw, rawAddr, err := serve(s.px)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	s.servers = append(s.servers, raw)
	traced, tracedAddr, err := serve(&handlerShim{next: s.px, tr: s.tr})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	s.servers = append(s.servers, traced)
	s.rawAddr, s.tracedAddr = rawAddr, tracedAddr
	return s, nil
}

func (s *system) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.px != nil {
		s.px.Close()
	}
}

// settle waits until px has no prefetch work left. Proxy.Drain alone is not
// enough, and not safe: a handler learns from a response after the client has
// read it, so a client can get here before the handler has submitted its
// prefetches, and Drain (a WaitGroup wait) must not race a handler's first
// Submit. So settle first waits for the handlers to fall silent — the
// scheduler's and the foreground counters unchanged over several polls — and
// only then drains the workers, whose own chained submissions Drain allows.
func settle(px *proxy.Proxy) {
	read := func() [4]int64 {
		sub, ran, drop := schedTotals(px.SchedMetrics())
		return [4]int64{sub, ran, drop, int64(px.Stats().Snapshot().Misses)}
	}
	last, stable := read(), 0
	for stable < 3 {
		time.Sleep(2 * time.Millisecond)
		if cur := read(); cur == last {
			stable++
		} else {
			last, stable = cur, 0
		}
	}
	px.Drain()
}

func (s *system) quiesce() { settle(s.px) }

// awaitPrefetches waits for the set-up's prefetches to land and fails if they
// do not: every timed phase depends on the cache state they leave.
func (s *system) awaitPrefetches(want int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := s.px.Stats().Snapshot().Prefetches
		if got >= want {
			s.quiesce()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: %d of %d prefetches completed", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// verify checks a response against what the origin would have sent for rq.
func (s *system) verify(rq *request, status int, body []byte, scratch *[]byte) bool {
	if isBlobKind(rq.kind) {
		// A range is answered with its slice; a proxy may also answer it with
		// the whole entity, as HTTP allows.
		if rq.rangeLen > 0 && status == http.StatusPartialContent {
			return len(body) == rq.rangeLen && s.content.blobEqual(rq.id, rq.rangeOff, body)
		}
		return status == http.StatusOK && len(body) == blobBytes && s.content.blobEqual(rq.id, 0, body)
	}
	want := s.content.appendJSON((*scratch)[:0], rq.kind, rq.id)
	*scratch = want
	return status == http.StatusOK && want != nil && bytes.Equal(body, want)
}

// genFunc fills rq with client c's seq-th request of a phase.
type genFunc func(c, seq int, rq *request)

// phase describes one timed run of the generator against one listener.
type phase struct {
	addr string
	dur  time.Duration
	gen  genFunc
	// rate > 0 makes the phase open loop: requests are due on a seeded Poisson
	// schedule at rate per second in total, whatever the proxy's pace, and
	// latency counts from the due time. 0 is closed loop.
	rate   float64
	seed   int64
	window time.Duration // reporting window length
	// account > 0 fixes the point where data usage is read: atAccount runs
	// once, on the goroutine that completes the account-th request, with the
	// body bytes delivered so far. A byte ratio read at a request count does
	// not move with how many requests a noisy box fits into the phase.
	account   int64
	atAccount func(bodyBytes int64)
	// capture, when set, sees every verified response (used to record the
	// workload's own transactions for the layer probes).
	capture func(c int, rq *request, status int, body []byte)
}

// phaseResult is what one phase measured.
type phaseResult struct {
	recs      []*recorder
	late      [][]int32 // open loop: send time minus due time per request, ns
	attempted int64
	failed    int64
	bodyBytes int64
	firstErr  error // the first failure, for the run's notes
}

// openLoopGrace is how long past its schedule an open-loop phase may run to
// drain a backlog; requests still unsent then count as failed.
const openLoopGrace = 2 * time.Second

func (s *system) run(p phase) *phaseResult {
	n := nClients()
	res := &phaseResult{recs: make([]*recorder, n), late: make([][]int32, n)}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}
	var attempted, bodyBytes, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		rec := newRecorder(1<<16, p.window)
		res.recs[c] = rec
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := newClient(p.addr, s.tr)
			if err != nil {
				attempted.Add(1)
				fail(err)
				return
			}
			defer cl.close()
			var rq request
			var scratch []byte
			// due walks the client's seeded Poisson schedule. A request is sent
			// at its due time, or at once if that has passed (the connection was
			// still busy, or the sleep ran over), and is timed from the due time
			// either way.
			var due time.Duration
			rng := rand.New(rand.NewSource(p.seed + int64(c)*7919))
			perClient := p.rate / float64(n)
			for seq := 0; ; seq++ {
				from := time.Since(start) // open loop: reset to the due time below
				if p.rate > 0 {
					due += time.Duration(rng.ExpFloat64() / perClient * float64(time.Second))
					if due >= p.dur {
						return
					}
					if from > p.dur+openLoopGrace {
						attempted.Add(1)
						fail(fmt.Errorf("open loop: backlog not drained %v after the schedule ended", openLoopGrace))
						continue
					}
					if wait := due - from; wait > 0 {
						preciseSleep(wait)
					}
					res.late[c] = append(res.late[c], clampNs(time.Since(start)-due))
					from = due
				} else if from >= p.dur {
					return
				}
				rq = request{}
				p.gen(c, seq, &rq)
				attempted.Add(1)
				// The client's span is the root of the request's spans: its id
				// is the request id the handler shim reads off the connection.
				var reqID uint64
				traced := s.tr.enabled()
				if traced {
					reqID = s.tr.newID()
					cl.inReq.Store(reqID)
				}
				sent := time.Now()
				if p.rate == 0 {
					// Closed loop: the clock starts at the send, after whatever
					// the generator waited for (stream_large's rendezvous).
					from = sent.Sub(start)
				}
				status, body, first, err := cl.do(&rq)
				end := time.Now()
				if traced {
					s.tr.add("client.request", reqID, 0, reqID, sent, end)
				}
				if err != nil {
					fail(fmt.Errorf("%s/%s: %w", rq.kind, rq.id, err))
					continue
				}
				if !s.verify(&rq, status, body, &scratch) {
					fail(fmt.Errorf("%s/%s: status %d, %d bytes: not what the origin sends", rq.kind, rq.id, status, len(body)))
					continue
				}
				delivered := bodyBytes.Add(int64(len(body)))
				if p.account > 0 && completed.Add(1) == p.account {
					p.atAccount(delivered)
				}
				if p.capture != nil {
					p.capture(c, &rq, status, body)
				}
				done := end.Sub(start)
				at := done
				if p.rate > 0 {
					at = from
				}
				ttfb := first.Sub(sent)
				if rq.noTTFB {
					ttfb = noTTFB
				}
				rec.add(at, done-from, ttfb, len(body))
			}
		}(c)
	}
	wg.Wait()
	res.attempted = attempted.Load()
	res.bodyBytes = bodyBytes.Load()
	for _, r := range res.recs {
		r.closeThrough(p.dur)
	}
	return res
}

// liveHeapMB forces a collection and reads the live heap, less what the
// generator's own recorders hold.
func liveHeapMB(results ...*phaseResult) float64 {
	// Two cycles: the second empties what the first moved to sync.Pool's
	// victim caches.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	held := int64(0)
	for _, r := range results {
		for _, rec := range r.recs {
			held += rec.heapBytes()
		}
		for _, l := range r.late {
			held += int64(cap(l)) * 4
		}
	}
	return float64(int64(m.HeapAlloc)-held) / 1e6
}
