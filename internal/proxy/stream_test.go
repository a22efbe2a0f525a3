package proxy

// Tests for the streaming data plane: Range/206 conformance from cached
// entries, flight attach (one origin fetch, many clients), TTFB decoupled
// from body completion, over-cap overflow behaviour, the request-body
// guard, chunk-pool leak checks, and the whole-path alloc budget.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/cache"
	"appx/internal/httpmsg"
	"appx/internal/sig"
	"appx/internal/stream"
)

// streamGraph is a one-signature graph: a literal GET with no dependency
// edges, so every request is a miss-path flight and nothing prefetches.
func streamGraph() *sig.Graph {
	g := sig.NewGraph("t")
	g.Add(&sig.Signature{ID: "t:big#0", Method: "GET", URI: sig.Literal("h.example/big")})
	return g
}

// notifyWriter is a ResponseWriter that signals the instant headers are
// written — the client-side first-byte observation point.
type notifyWriter struct {
	rec      *httptest.ResponseRecorder
	once     sync.Once
	headerAt chan time.Time
}

func newNotifyWriter() *notifyWriter {
	return &notifyWriter{rec: httptest.NewRecorder(), headerAt: make(chan time.Time, 1)}
}

func (w *notifyWriter) Header() http.Header { return w.rec.Header() }
func (w *notifyWriter) Flush()              {}
func (w *notifyWriter) WriteHeader(code int) {
	w.once.Do(func() { w.headerAt <- time.Now() })
	w.rec.WriteHeader(code)
}
func (w *notifyWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { w.headerAt <- time.Now() })
	return w.rec.Write(p)
}

// waitChunksReleased polls the proxy's chunk pool until every pooled chunk
// has been returned (attachers may close their readers a beat after the
// owner finishes).
func waitChunksReleased(t *testing.T, p *Proxy) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.ChunkPool().Outstanding() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("chunk pool leak: %d chunks still outstanding", p.ChunkPool().Outstanding())
}

func TestRangeConformanceCached(t *testing.T) {
	g := streamGraph()
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		t.Fatal("cached range requests must not reach the origin")
		return nil, nil
	})
	p := New(Options{Graph: g, Upstream: up})
	defer p.Close()

	body := make([]byte, 1000)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	req := &httpmsg.Request{Method: "GET", Host: "h.example", Path: "/big"}
	p.Cache().Put("9.9.9.9", req.CanonicalKey(), &cache.Entry{
		Resp: &httpmsg.Response{Status: 200, Header: []httpmsg.Field{
			{Key: "Content-Type", Value: "application/octet-stream"},
			{Key: "Etag", Value: `"v1"`},
			{Key: "Last-Modified", Value: "Wed, 21 Oct 2015 07:28:00 GMT"},
		}, Body: body},
		SigID:   "t:big#0",
		Expires: time.Now().Add(time.Hour),
	})

	serve := func(hdr map[string]string) *httptest.ResponseRecorder {
		hreq := httptest.NewRequest("GET", "http://h.example/big", nil)
		hreq.RemoteAddr = "9.9.9.9:1"
		for k, v := range hdr {
			hreq.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, hreq)
		return rec
	}

	cases := []struct {
		name      string
		hdr       map[string]string
		status    int
		wantBody  []byte
		wantRange string
	}{
		{"single", map[string]string{"Range": "bytes=100-199"}, 206, body[100:200], "bytes 100-199/1000"},
		{"open-ended", map[string]string{"Range": "bytes=900-"}, 206, body[900:], "bytes 900-999/1000"},
		{"suffix", map[string]string{"Range": "bytes=-100"}, 206, body[900:], "bytes 900-999/1000"},
		{"past-end-clamped", map[string]string{"Range": "bytes=990-2000"}, 206, body[990:], "bytes 990-999/1000"},
		{"unsatisfiable", map[string]string{"Range": "bytes=1000-"}, 416, nil, "bytes */1000"},
		{"suffix-zero", map[string]string{"Range": "bytes=-0"}, 416, nil, "bytes */1000"},
		{"if-range-match", map[string]string{"Range": "bytes=0-9", "If-Range": `"v1"`}, 206, body[:10], "bytes 0-9/1000"},
		{"if-range-mismatch", map[string]string{"Range": "bytes=0-9", "If-Range": `"v2"`}, 200, body, ""},
		{"if-range-lastmod-match", map[string]string{"Range": "bytes=0-9", "If-Range": "Wed, 21 Oct 2015 07:28:00 GMT"}, 206, body[:10], "bytes 0-9/1000"},
		{"if-range-lastmod-mismatch", map[string]string{"Range": "bytes=0-9", "If-Range": "Thu, 22 Oct 2015 07:28:00 GMT"}, 200, body, ""},
		{"multi-range-full", map[string]string{"Range": "bytes=0-1,5-6"}, 200, body, ""},
		{"malformed-full", map[string]string{"Range": "bytes=abc"}, 200, body, ""},
		{"non-bytes-full", map[string]string{"Range": "items=0-1"}, 200, body, ""},
		{"no-range", nil, 200, body, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := serve(tc.hdr)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d", rec.Code, tc.status)
			}
			if got := rec.Header().Get("Content-Range"); got != tc.wantRange {
				t.Fatalf("Content-Range = %q, want %q", got, tc.wantRange)
			}
			if tc.status == 416 {
				return
			}
			if !bytes.Equal(rec.Body.Bytes(), tc.wantBody) {
				t.Fatalf("body: got %d bytes, want %d (first 20: %q vs %q)",
					rec.Body.Len(), len(tc.wantBody), trunc20(rec.Body.Bytes()), trunc20(tc.wantBody))
			}
			if tc.status == 206 {
				if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(tc.wantBody)) {
					t.Fatalf("Content-Length = %q, want %d", cl, len(tc.wantBody))
				}
				if ar := rec.Header().Get("Accept-Ranges"); ar != "bytes" {
					t.Fatalf("Accept-Ranges = %q", ar)
				}
			}
		})
	}
}

func trunc20(b []byte) []byte {
	if len(b) > 20 {
		return b[:20]
	}
	return b
}

// gatedUpstream streams a two-part body: part one immediately, part two only
// after release. It counts RoundTrips, making duplicate origin fetches
// visible.
type gatedUpstream struct {
	calls    atomic.Int64
	started  chan struct{} // closed on first RoundTrip
	release  chan struct{} // closing lets part two flow
	part1    []byte
	part2    []byte
	declared bool // send Content-Length; otherwise the total is unknown mid-flight
}

func (g *gatedUpstream) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	if g.calls.Add(1) == 1 {
		close(g.started)
	}
	pr, pw := io.Pipe()
	go func() {
		pw.Write(g.part1)
		<-g.release
		pw.Write(g.part2)
		pw.Close()
	}()
	resp := &httpmsg.Response{Status: 200, Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/octet-stream"}}}
	if g.declared {
		resp.Header = append(resp.Header, httpmsg.Field{Key: "Content-Length", Value: fmt.Sprint(len(g.part1) + len(g.part2))})
	}
	resp.SetStream(pr)
	return resp, nil
}

// TestAttachToInFlightFetch drives three concurrent clients — the owner, a
// full-body attacher, and a mid-flight Range attacher — through one origin
// fetch. Run under -race this also exercises the spool's concurrent
// reader/writer paths.
func TestAttachToInFlightFetch(t *testing.T) {
	g := streamGraph()
	up := &gatedUpstream{
		started:  make(chan struct{}),
		release:  make(chan struct{}),
		part1:    bytes.Repeat([]byte("A"), 300),
		part2:    bytes.Repeat([]byte("B"), 300),
		declared: true,
	}
	p := New(Options{Graph: g, Upstream: up, StreamChunkBytes: 128})
	defer p.Close()
	full := append(append([]byte{}, up.part1...), up.part2...)

	send := func(w http.ResponseWriter, rangeHdr string) {
		hreq := httptest.NewRequest("GET", "http://h.example/big", nil)
		hreq.RemoteAddr = "9.9.9.9:1"
		if rangeHdr != "" {
			hreq.Header.Set("Range", rangeHdr)
		}
		p.ServeHTTP(w, hreq)
	}

	var wg sync.WaitGroup
	owner := newNotifyWriter()
	wg.Add(1)
	go func() { defer wg.Done(); send(owner, "") }()
	<-up.started // the flight is registered before the origin is asked

	attacher := newNotifyWriter()
	wg.Add(1)
	go func() { defer wg.Done(); send(attacher, "") }()
	<-attacher.headerAt // headers flowed: the attacher is on the flight

	ranged := newNotifyWriter()
	wg.Add(1)
	go func() { defer wg.Done(); send(ranged, "bytes=100-149") }()
	<-ranged.headerAt

	close(up.release)
	wg.Wait()

	if got := up.calls.Load(); got != 1 {
		t.Fatalf("origin fetched %d times for three concurrent clients, want 1", got)
	}
	for name, rec := range map[string]*httptest.ResponseRecorder{"owner": owner.rec, "attacher": attacher.rec} {
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), full) {
			t.Fatalf("%s: status %d, %d body bytes, want 200 with %d", name, rec.Code, rec.Body.Len(), len(full))
		}
	}
	if ranged.rec.Code != 206 {
		t.Fatalf("mid-flight range: status %d, want 206", ranged.rec.Code)
	}
	if cr := ranged.rec.Header().Get("Content-Range"); cr != "bytes 100-149/600" {
		t.Fatalf("mid-flight Content-Range = %q, want the declared total", cr)
	}
	if !bytes.Equal(ranged.rec.Body.Bytes(), full[100:150]) {
		t.Fatalf("mid-flight range body wrong: %q", trunc20(ranged.rec.Body.Bytes()))
	}
	if p.streamStats.attachHits.Load() != 2 {
		t.Fatalf("attach hits = %d, want 2", p.streamStats.attachHits.Load())
	}
	waitChunksReleased(t, p)
}

// TestMidFlightRangeOverflowServesFull: a mid-flight "a-b" range whose
// length overflows an int64 (bytes=0-MaxInt64) is served like any mid-flight
// range without a usable length — the full 200 — to the flight's owner and
// to an attacher alike, never as a 206 that claims 2^63 bytes.
func TestMidFlightRangeOverflowServesFull(t *testing.T) {
	up := &gatedUpstream{
		started: make(chan struct{}),
		release: make(chan struct{}),
		part1:   bytes.Repeat([]byte("A"), 300),
		part2:   bytes.Repeat([]byte("B"), 300),
	}
	p := New(Options{Graph: streamGraph(), Upstream: up, StreamChunkBytes: 128})
	defer p.Close()
	full := append(append([]byte{}, up.part1...), up.part2...)

	send := func(w http.ResponseWriter) {
		hreq := httptest.NewRequest("GET", "http://h.example/big", nil)
		hreq.RemoteAddr = "9.9.9.9:1"
		hreq.Header.Set("Range", "bytes=0-9223372036854775807")
		p.ServeHTTP(w, hreq)
	}
	var wg sync.WaitGroup
	owner, attacher := newNotifyWriter(), newNotifyWriter()
	wg.Add(2)
	go func() { defer wg.Done(); send(owner) }()
	<-up.started
	go func() { defer wg.Done(); send(attacher) }()
	<-attacher.headerAt
	close(up.release)
	wg.Wait()

	if got := up.calls.Load(); got != 1 {
		t.Fatalf("origin fetched %d times, want 1", got)
	}
	for name, rec := range map[string]*httptest.ResponseRecorder{"owner": owner.rec, "attacher": attacher.rec} {
		if rec.Code != 200 || rec.Header().Get("Content-Range") != "" || !bytes.Equal(rec.Body.Bytes(), full) {
			t.Fatalf("%s: %d %q with %d bytes, want the full 200 with %d",
				name, rec.Code, rec.Header().Get("Content-Range"), rec.Body.Len(), len(full))
		}
	}
	waitChunksReleased(t, p)
}

// TestMidFlightRangeAgainstDeclaredLength: mid-flight, a Range resolves
// against the origin's Content-Length exactly as against a finished body —
// a range past the end is clamped, a suffix counts from the declared end,
// a start at or past it is a 416 — so a 206 never promises bytes the body
// cannot fill. Without a declared total the whole 200 goes out. The flight's
// owner and an attacher answer alike.
func TestMidFlightRangeAgainstDeclaredLength(t *testing.T) {
	full := append(bytes.Repeat([]byte("A"), 300), bytes.Repeat([]byte("B"), 300)...)
	cases := []struct {
		name      string
		declared  bool
		rng       string
		status    int
		wantRange string
		want      []byte
	}{
		{"inside", true, "bytes=250-349", 206, "bytes 250-349/600", full[250:350]},
		{"past-end-clamped", true, "bytes=500-900", 206, "bytes 500-599/600", full[500:]},
		{"open-ended", true, "bytes=550-", 206, "bytes 550-599/600", full[550:]},
		{"suffix", true, "bytes=-50", 206, "bytes 550-599/600", full[550:]},
		{"suffix-longer-than-body", true, "bytes=-5000", 206, "bytes 0-599/600", full},
		{"unsatisfiable", true, "bytes=600-", 416, "bytes */600", nil},
		{"unknown-total", false, "bytes=100-149", 200, "", full},
		{"unknown-total-past-end", false, "bytes=500-900", 200, "", full},
	}
	for _, tc := range cases {
		for _, role := range []string{"owner", "attacher"} {
			t.Run(tc.name+"/"+role, func(t *testing.T) {
				up := &gatedUpstream{started: make(chan struct{}), release: make(chan struct{}),
					part1: full[:300], part2: full[300:], declared: tc.declared}
				p := New(Options{Graph: streamGraph(), Upstream: up, StreamChunkBytes: 128})
				defer p.Close()
				send := func(w http.ResponseWriter, rng string) {
					hreq := httptest.NewRequest("GET", "http://h.example/big", nil)
					hreq.RemoteAddr = "9.9.9.9:1"
					if rng != "" {
						hreq.Header.Set("Range", rng)
					}
					p.ServeHTTP(w, hreq)
				}
				var wg sync.WaitGroup
				ranged := newNotifyWriter()
				wg.Add(1)
				if role == "owner" {
					go func() { defer wg.Done(); send(ranged, tc.rng) }()
				} else {
					owner := newNotifyWriter()
					go func() { defer wg.Done(); send(owner, "") }()
					<-up.started
					wg.Add(1)
					go func() { defer wg.Done(); send(ranged, tc.rng) }()
				}
				<-ranged.headerAt
				close(up.release)
				wg.Wait()

				rec := ranged.rec
				if rec.Code != tc.status || rec.Header().Get("Content-Range") != tc.wantRange {
					t.Fatalf("%d %q, want %d %q", rec.Code, rec.Header().Get("Content-Range"), tc.status, tc.wantRange)
				}
				if !bytes.Equal(rec.Body.Bytes(), tc.want) {
					t.Fatalf("body: %d bytes %q, want %d", rec.Body.Len(), trunc20(rec.Body.Bytes()), len(tc.want))
				}
				if cl := rec.Header().Get("Content-Length"); tc.status != 200 && cl != fmt.Sprint(len(tc.want)) {
					t.Fatalf("Content-Length %q for %d body bytes", cl, len(tc.want))
				}
				if got := up.calls.Load(); got != 1 {
					t.Fatalf("origin fetched %d times, want 1", got)
				}
				waitChunksReleased(t, p)
			})
		}
	}
}

// TestTTFBPrecedesSlowBody proves the data plane streams: with an origin
// that sends its first bytes immediately but takes ~200ms to finish, the
// client sees headers and first bytes long before the body completes.
func TestTTFBPrecedesSlowBody(t *testing.T) {
	g := streamGraph()
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		pr, pw := io.Pipe()
		go func() {
			pw.Write(bytes.Repeat([]byte("x"), 1024)) // first bytes: immediate
			time.Sleep(200 * time.Millisecond)        // slow origin tail
			pw.Write(bytes.Repeat([]byte("y"), 1024))
			pw.Close()
		}()
		resp := &httpmsg.Response{Status: 200}
		resp.SetStream(pr)
		return resp, nil
	})
	p := New(Options{Graph: g, Upstream: up, StreamChunkBytes: 256})
	defer p.Close()

	start := time.Now()
	w := newNotifyWriter()
	hreq := httptest.NewRequest("GET", "http://h.example/big", nil)
	hreq.RemoteAddr = "9.9.9.9:1"
	p.ServeHTTP(w, hreq)
	total := time.Since(start)
	ttfb := (<-w.headerAt).Sub(start)

	if w.rec.Body.Len() != 2048 {
		t.Fatalf("body = %d bytes, want 2048", w.rec.Body.Len())
	}
	if total < 200*time.Millisecond {
		t.Fatalf("origin finished too fast for the test to mean anything: %v", total)
	}
	if ttfb > total/2 {
		t.Fatalf("TTFB %v not ≪ total %v: body was buffered, not streamed", ttfb, total)
	}
	if q := p.TTFBQuantile(0.5); q <= 0 || q > total {
		t.Fatalf("TTFB histogram quantile out of range: %v (total %v)", q, total)
	}
	waitChunksReleased(t, p)
}

// TestOverCapBodyStreamsUncached: a body over CaptureMaxBytes reaches the
// client whole but never enters the cache, and counts one overflow.
func TestOverCapBodyStreamsUncached(t *testing.T) {
	g := streamGraph()
	var calls atomic.Int64
	big := bytes.Repeat([]byte("z"), 8<<10)
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		calls.Add(1)
		resp := &httpmsg.Response{Status: 200}
		resp.SetStream(io.NopCloser(bytes.NewReader(big)))
		return resp, nil
	})
	p := New(Options{Graph: g, Upstream: up, StreamChunkBytes: 256, CaptureMaxBytes: 1024})
	defer p.Close()

	for i := 0; i < 2; i++ {
		hreq := httptest.NewRequest("GET", "http://h.example/big", nil)
		hreq.RemoteAddr = "9.9.9.9:1"
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, hreq)
		if rec.Code != 200 || rec.Body.Len() != len(big) {
			t.Fatalf("request %d: status %d, %d bytes, want full 200", i, rec.Code, rec.Body.Len())
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("origin calls = %d, want 2 (over-cap bodies must not cache)", got)
	}
	if p.streamStats.bodyOverflows.Load() < 2 {
		t.Fatalf("body overflows = %d, want ≥ 2", p.streamStats.bodyOverflows.Load())
	}
	waitChunksReleased(t, p)
}

// TestMaxBodyBytesRequestGuard: request bodies over the limit answer 413
// before any origin work.
func TestMaxBodyBytesRequestGuard(t *testing.T) {
	g := streamGraph()
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200}, nil
	})
	p := New(Options{Graph: g, Upstream: up, MaxBodyBytes: 64})
	defer p.Close()

	hreq := httptest.NewRequest("POST", "http://h.example/big", strings.NewReader(strings.Repeat("p", 100)))
	hreq.RemoteAddr = "9.9.9.9:1"
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, hreq)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request body: status %d, want 413", rec.Code)
	}

	hreq = httptest.NewRequest("POST", "http://h.example/big", strings.NewReader(strings.Repeat("p", 64)))
	hreq.RemoteAddr = "9.9.9.9:1"
	rec = httptest.NewRecorder()
	p.ServeHTTP(rec, hreq)
	if rec.Code != 200 {
		t.Fatalf("at-limit request body: status %d, want 200", rec.Code)
	}
}

// TestPrefetchOverflowAbortsAndReleases: a prefetched body that overflows
// the capture cap is abandoned mid-stream (the origin stream is closed, not
// read to EOF), counted as an overflow, never cached, and every pooled
// chunk comes back.
func TestPrefetchOverflowAbortsAndReleases(t *testing.T) {
	g := sharedGraph()
	var prefetchStarted, feederDone atomic.Int64
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/list" {
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   []byte(`{"ids":["1"]}`)}, nil
		}
		if id, _ := r.GetQuery("id"); id == "0" {
			// The foreground exemplar teach: small enough to capture, so the
			// signature learns an exemplar and the prefetch fires.
			return &httpmsg.Response{Status: 200, Body: bytes.Repeat([]byte("t"), 512)}, nil
		}
		prefetchStarted.Add(1)
		// The prefetched item streams without end: only consume-or-cancel
		// terminates it, by closing the body and unblocking the feeder.
		pr, pw := io.Pipe()
		go func() {
			defer feederDone.Add(1)
			buf := bytes.Repeat([]byte("q"), 1024)
			for {
				if _, err := pw.Write(buf); err != nil {
					return
				}
			}
		}()
		resp := &httpmsg.Response{Status: 200}
		resp.SetStream(pr)
		return resp, nil
	})
	p := New(Options{Graph: g, Upstream: up, StreamChunkBytes: 256, CaptureMaxBytes: 1024})
	defer p.Close()

	alice := &proxyTransport{p: p, user: "1.1.1.1"}
	// Teach the item exemplar (this one also overflows — streamed through),
	// then fan out from the list.
	if _, err := alice.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "0"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/list"}); err != nil {
		t.Fatal(err)
	}
	p.Drain()

	if prefetchStarted.Load() == 0 {
		t.Fatal("prefetch never reached the origin")
	}
	deadline := time.Now().Add(2 * time.Second)
	for feederDone.Load() < prefetchStarted.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if feederDone.Load() < prefetchStarted.Load() {
		t.Fatal("aborted prefetch never closed the origin stream")
	}
	if n, _ := p.Cache().ScopeStats(cache.SharedScope); n != 0 {
		t.Fatalf("over-cap prefetch cached %d entries, want 0", n)
	}
	if p.streamStats.bodyOverflows.Load() == 0 {
		t.Fatal("overflow never counted")
	}
	waitChunksReleased(t, p)
}

// TestWholePathAllocBudget gates the miss-path allocation count: allocations
// per request must not scale with the number of body chunks. A 1 MiB body
// through 4 KiB chunks is 256 chunk-transits; if any layer allocated per
// chunk, the two measurements below would differ by hundreds.
func TestWholePathAllocBudget(t *testing.T) {
	serveOnce := func(body []byte) float64 {
		g := streamGraph()
		up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
			resp := &httpmsg.Response{Status: 200}
			resp.SetStream(io.NopCloser(bytes.NewReader(body)))
			return resp, nil
		})
		p := New(Options{Graph: g, Upstream: up, StreamChunkBytes: 4096, CaptureMaxBytes: 4 << 20})
		defer p.Close()
		// Warm the pool and the per-signature state.
		for i := 0; i < 3; i++ {
			hreq := httptest.NewRequest("GET", "http://h.example/big", nil)
			hreq.RemoteAddr = "9.9.9.9:1"
			p.ServeHTTP(httptest.NewRecorder(), hreq)
		}
		return testing.AllocsPerRun(30, func() {
			hreq := httptest.NewRequest("GET", "http://h.example/big", nil)
			hreq.RemoteAddr = "9.9.9.9:1"
			p.ServeHTTP(httptest.NewRecorder(), hreq)
		})
	}
	small := serveOnce(bytes.Repeat([]byte("s"), 64<<10)) // 16 chunk-transits
	large := serveOnce(bytes.Repeat([]byte("l"), 1<<20))  // 256 chunk-transits
	if d := large - small; d > 64 {
		t.Fatalf("allocs grow with body chunks: %0.1f (64KiB) vs %0.1f (1MiB), Δ=%0.1f > 64",
			small, large, d)
	}
	if large > 400 {
		t.Fatalf("miss path costs %0.1f allocs/request, want O(1) ≤ 400", large)
	}
}

// FuzzParseRange feeds client-supplied Range and If-Range values, against a
// body of any size up to 64 KiB, through parseRange, byteRange.resolve,
// ifRangeApplies, requestedRange, writeBuffered and, against a spool still
// in flight, flightRange. Nothing panics; a satisfiable range lies inside the
// body; a 206 carries exactly body[start:start+length] and a Content-Length
// equal to the bytes written, a 416 nothing, anything else the whole body.
// Mid-flight, an unknown total serves the whole body, and a declared one
// answers as the finished body does, with exactly the promised bytes.
func FuzzParseRange(f *testing.F) {
	for _, seed := range []struct{ rng, ifRange string }{
		{"bytes=100-199", ""}, {"bytes=900-", ""}, {"bytes=-100", ""}, {"bytes=990-2000", ""},
		{"bytes=1000-", ""}, {"bytes=-0", ""}, {"bytes=0-9", `"v1"`}, {"bytes=0-9", `"v2"`},
		{"bytes=0-9", "Wed, 21 Oct 2015 07:28:00 GMT"}, {"bytes=0-9", "Thu, 22 Oct 2015 07:28:00 GMT"},
		{"bytes=0-1,5-6", ""}, {"bytes=abc", ""}, {"items=0-1", ""}, {"", ""},
		{"bytes=0-9223372036854775807", ""},
	} {
		f.Add(seed.rng, seed.ifRange, uint16(1000))
	}
	header := []httpmsg.Field{{Key: "Etag", Value: `"v1"`}, {Key: "Last-Modified", Value: "Wed, 21 Oct 2015 07:28:00 GMT"}}
	pool := stream.NewPool(64)
	f.Fuzz(func(t *testing.T, rangeHeader, ifRange string, n uint16) {
		size := int64(n)
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i % 251) // a prime period: a slice off by any offset differs
		}
		if br, ok := parseRange(rangeHeader); ok {
			if start, length, sat := br.resolve(size); sat && (start < 0 || length < 1 || start+length > size) {
				t.Fatalf("%q on %d bytes resolved to [%d, +%d): outside the body", rangeHeader, size, start, length)
			}
		}
		req := &httpmsg.Request{Method: "GET", Host: "h.example", Path: "/big"}
		if rangeHeader != "" {
			req.Header = append(req.Header, httpmsg.Field{Key: "Range", Value: rangeHeader})
		}
		if ifRange != "" {
			req.Header = append(req.Header, httpmsg.Field{Key: "If-Range", Value: ifRange})
		}
		applies := ifRangeApplies(req, header)
		br, ranged := requestedRange(req, http.StatusOK, header)
		if ranged && !applies {
			t.Fatalf("Range %q honoured although If-Range %q does not apply", rangeHeader, ifRange)
		}
		// Mid-flight with no declared total: always the whole body.
		unknown := &flight{sp: stream.NewSpool(pool, 1<<10, nil), ready: make(chan struct{}), status: http.StatusOK, header: header}
		_, flLength, flRange, unsat := flightRange(req, unknown)
		unknown.sp.Discard()
		if unsat || flLength != -1 || flRange != "" {
			t.Fatalf("%q mid-flight, total unknown: length %d, Content-Range %q, unsat %v; want the whole body",
				rangeHeader, flLength, flRange, unsat)
		}
		// Mid-flight with the total declared: the answer a finished body
		// gives, and a 206's Content-Length is the bytes the spool serves.
		declared := append(header[:len(header):len(header)], httpmsg.Field{Key: "Content-Length", Value: fmt.Sprint(size)})
		known := &flight{sp: stream.NewSpool(pool, 1<<17, nil), ready: make(chan struct{}), status: http.StatusOK, header: declared}
		flStart, flLength, flRange, unsat := flightRange(req, known)
		if !unsat {
			rd, err := known.sp.ReaderAt(flStart)
			if err != nil {
				t.Fatal(err)
			}
			if flLength >= 0 {
				rd.Limit(flLength)
			}
			known.sp.Append(body)
			known.sp.CloseWriter(nil)
			served, _ := io.ReadAll(rd)
			rd.Close()
			switch {
			case flRange == "" && !bytes.Equal(served, body):
				t.Fatalf("%q mid-flight, whole body: served %d of %d bytes", rangeHeader, len(served), size)
			case flRange != "" && (int64(len(served)) != flLength || !bytes.Equal(served, body[flStart:flStart+flLength])):
				t.Fatalf("%q mid-flight: 206 %q declares Content-Length %d, served %d bytes",
					rangeHeader, flRange, flLength, len(served))
			}
		}
		known.sp.Discard()
		rec := httptest.NewRecorder()
		new(Proxy).writeBuffered(rec, req, &httpmsg.Response{Status: http.StatusOK, Header: header, Body: body})
		got := rec.Body.Bytes()
		start, length, sat := br.resolve(size)
		switch {
		case !ranged:
			if rec.Code != http.StatusOK || !bytes.Equal(got, body) {
				t.Fatalf("unranged: %d with %d bytes, want 200 with the whole %d", rec.Code, len(got), size)
			}
		case !sat:
			if rec.Code != http.StatusRequestedRangeNotSatisfiable || len(got) != 0 {
				t.Fatalf("unsatisfiable %q: %d with %d bytes, want an empty 416", rangeHeader, rec.Code, len(got))
			}
		default:
			want := fmt.Sprintf("bytes %d-%d/%d", start, start+length-1, size)
			if rec.Code != http.StatusPartialContent || !bytes.Equal(got, body[start:start+length]) || rec.Header().Get("Content-Range") != want {
				t.Fatalf("%q on %d bytes: %d %q with %d bytes, want 206 %q with body[%d:%d]",
					rangeHeader, size, rec.Code, rec.Header().Get("Content-Range"), len(got), want, start, start+length)
			}
			if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(got)) {
				t.Fatalf("%q on %d bytes: 206 declares Content-Length %s, wrote %d bytes", rangeHeader, size, cl, len(got))
			}
		}
		if rec.Header().Get("Content-Range") != flRange {
			t.Fatalf("%q: mid-flight Content-Range %q, finished body %q", rangeHeader, flRange, rec.Header().Get("Content-Range"))
		}
	})
}

// streamedUpstream answers every request with body as a stream, declaring
// its length when declare is set.
func streamedUpstream(body []byte, declare bool) UpstreamFunc {
	return func(context.Context, *httpmsg.Request) (*httpmsg.Response, error) {
		resp := &httpmsg.Response{Status: 200}
		if declare {
			resp.Header = []httpmsg.Field{{Key: "Content-Length", Value: fmt.Sprint(len(body))}}
		}
		resp.SetStream(io.NopCloser(bytes.NewReader(body)))
		return resp, nil
	}
}

// TestDeclaredMissesReuseOneConnection: a streamed miss whose body declares
// its length is read into one segment up to the origin's EOF, so the
// connection goes back to the idle pool and the next miss reuses it.
func TestDeclaredMissesReuseOneConnection(t *testing.T) {
	body := bytes.Repeat([]byte("d"), 256<<10)
	o := newScriptOrigin(t, func(_ int, c net.Conn) {
		serveRequests(c, func(*http.Request) string { return okResponse(string(body)) })
	})
	g := sig.NewGraph("t")
	g.Add(&sig.Signature{ID: "t:big#0", Method: "GET", URI: sig.Literal("o.example/big")})
	p := New(Options{Graph: g, Upstream: o.upstream()})
	defer p.Close()
	for i := 0; i < 5; i++ {
		hreq := httptest.NewRequest("GET", "http://o.example/big", nil)
		hreq.RemoteAddr = "9.9.9.9:1"
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, hreq)
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), body) {
			t.Fatalf("miss %d: %d with %d bytes, want 200 with %d", i, rec.Code, rec.Body.Len(), len(body))
		}
	}
	if n := o.accepted.Load(); n != 1 {
		t.Fatalf("5 sequential misses dialled %d connections, want 1", n)
	}
	waitChunksReleased(t, p)
}

// TestCommittedPrefetchBodyHasNoSlack: the body a prefetch commits holds
// exactly its bytes, cap == len, whether the origin declared its length (a
// sized segment, taken as it is) or not (chunks, copied out).
func TestCommittedPrefetchBodyHasNoSlack(t *testing.T) {
	body := bytes.Repeat([]byte("p"), 100<<10+7)
	for _, declare := range []bool{true, false} {
		g := followGraph([]edge{{"list", "img", "imgs[*]"}})
		p := New(Options{Graph: g, Workers: 1, Upstream: streamedUpstream(body, declare)})
		req := &httpmsg.Request{Method: "GET", Scheme: "http", Host: "h.example", Path: "/img",
			Query: []httpmsg.Field{{Key: "id", Value: "1"}}}
		key := req.CanonicalKey()
		pf := &prefetch{p: p, u: p.user("B"), st: p.sigs.byID["t:img#0"], req: req, scope: "B", key: key,
			ikey: issueKey("B", key), expiry: time.Minute}
		if ok, _ := p.keys.claim(pf.ikey, pf, true); !ok {
			t.Fatal("the key is already claimed")
		}
		p.runPrefetch(pf)
		e, _ := p.store.Peek("B", key)
		if e == nil {
			t.Fatalf("declared %v: the prefetch committed nothing", declare)
		}
		if got := e.Resp.Body; !bytes.Equal(got, body) || cap(got) != len(got) {
			t.Fatalf("declared %v: committed %d bytes with cap %d, want the %d-byte body with cap == len",
				declare, len(got), cap(got), len(body))
		}
		waitChunksReleased(t, p)
		p.Close()
	}
}

// TestDeclaredMissRecyclesItsSegment: once warm, a streamed 1 MiB miss whose
// length is declared allocates next to nothing per request — its segment
// comes from the pool and goes back to it — where a fresh segment per miss
// would allocate the whole MiB.
func TestDeclaredMissRecyclesItsSegment(t *testing.T) {
	body := bytes.Repeat([]byte("r"), 1<<20)
	p := New(Options{Graph: streamGraph(), Upstream: streamedUpstream(body, true)})
	defer p.Close()
	w := &discardWriter{h: http.Header{}}
	miss := func() {
		clear(w.h)
		hreq := httptest.NewRequest("GET", "http://h.example/big", nil)
		hreq.RemoteAddr = "9.9.9.9:1"
		p.ServeHTTP(w, hreq)
	}
	for i := 0; i < 3; i++ {
		miss()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		miss()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("a warm 1 MiB declared miss allocates %d bytes, want < 64 KiB", per)
	}
	waitChunksReleased(t, p)
}

// TestBodilessResponsesReserveNothing: a response that carries no body — to
// a HEAD, or a 304 — takes no segment, whatever Content-Length it carries,
// while the same header on a GET's 200 reserves one.
func TestBodilessResponsesReserveNothing(t *testing.T) {
	p := New(Options{Graph: streamGraph()})
	defer p.Close()
	for _, tc := range []struct {
		method   string
		status   int
		reserved int64
	}{
		{"HEAD", 200, 0},
		{"GET", 304, 0},
		{"GET", 200, 1}, // the control: a declared length that never arrives
	} {
		fl := &flight{sp: stream.NewSpool(p.chunks, p.opts.CaptureMaxBytes, nil), ready: make(chan struct{})}
		resp := &httpmsg.Response{Status: tc.status, Header: []httpmsg.Field{{Key: "Content-Length", Value: "1048576"}}}
		resp.SetStream(io.NopCloser(bytes.NewReader(nil)))
		p.pump(fl, resp, tc.method, true)
		if got := p.ChunkPool().Outstanding(); got != tc.reserved {
			t.Errorf("%s answered %d: %d buffers held after the pump, want %d", tc.method, tc.status, got, tc.reserved)
		}
		fl.sp.Discard()
	}
	if got := p.ChunkPool().Outstanding(); got != 0 {
		t.Fatalf("%d buffers outstanding after every Discard", got)
	}
}
