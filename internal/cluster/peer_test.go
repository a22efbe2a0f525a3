package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"appx/internal/httpmsg"
	"appx/internal/obs/adminv1"
)

// recorded is what a peer's handler sees of a relayed request.
type recorded struct {
	Method, RequestURI, Host string
	Header                   http.Header
	Body                     string
}

// recordingPeer is an owner that keeps every request it is sent and
// answers each with "ok".
type recordingPeer struct {
	srv  *httptest.Server
	mu   sync.Mutex
	seen []recorded
}

func newRecordingPeer(t *testing.T) *recordingPeer {
	t.Helper()
	p := &recordingPeer{}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		p.mu.Lock()
		p.seen = append(p.seen, recorded{r.Method, r.RequestURI, r.Host, r.Header.Clone(), string(b)})
		p.mu.Unlock()
		w.Write([]byte("ok"))
	}))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *recordingPeer) addr() string { return p.srv.Listener.Addr().String() }

func (p *recordingPeer) last() recorded {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[len(p.seen)-1]
}

// TestForwardDifferential: the owner sees the same relayed request from
// Forward as from the per-peer http.Transport Forward used before it —
// method, absolute request URI, Host, every header and the body — across
// methods, bodies, repeated and odd headers, and an empty User-Agent.
// Neither adds a User-Agent the request does not carry.
func TestForwardDifferential(t *testing.T) {
	peer := newRecordingPeer(t)
	c := New(Config{Self: "127.0.0.1:1", Peers: []string{peer.addr()}})
	defer c.Close()

	// The Transport as Cluster.client configured it, driven as Forward
	// drove it.
	tr := &http.Transport{
		Proxy:                 http.ProxyURL(&url.URL{Scheme: "http", Host: peer.addr()}),
		MaxIdleConns:          32,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       30 * time.Second,
		TLSHandshakeTimeout:   2 * time.Second,
		ExpectContinueTimeout: time.Second,
		ResponseHeaderTimeout: forwardResponseHeaderTimeout,
		DisableCompression:    true,
	}
	defer tr.CloseIdleConnections()
	viaTransport := func(r *httpmsg.Request) error {
		hr, err := r.ToHTTP()
		if err != nil {
			return err
		}
		if _, ok := hr.Header["User-Agent"]; !ok {
			hr.Header.Set("User-Agent", "")
		}
		resp, err := tr.RoundTrip(hr)
		if err != nil {
			return err
		}
		return httpmsg.FromHTTPResponseStreaming(resp).Buffer(0)
	}

	f := func(kv ...string) []httpmsg.Field {
		var out []httpmsg.Field
		for i := 0; i < len(kv); i += 2 {
			out = append(out, httpmsg.Field{Key: kv[i], Value: kv[i+1]})
		}
		return out
	}
	hop := f("X-Appx-User", "u-1", "X-Appx-Cluster-Hop", "127.0.0.1:1")
	corpus := []*httpmsg.Request{
		{Method: "GET", Scheme: "http", Host: "a.example", Path: "/item/f003-17.4", Header: hop},
		{Method: "get", Host: "a.example:8080", Path: "/list", Query: f("id", "r 1", "b", "x&y=z", "a", "ü", "b", "first")},
		{Method: "", Host: "a.example", Path: ""},
		{Method: "HEAD", Host: "a.example", Path: "/head"},
		{Method: "GET", Host: "a.example", Path: "/with space/é"},
		{Method: "GET", Host: "a.example", Path: "/enc%20oded/%2F"},
		{Method: "GET", Host: "a.example", Path: "/h", Header: append(f("Cookie", "sid=1", "X-A", "1", "x-a", "2", "X-Blank", "", "X-Pad", "  v\t"), hop...)},
		{Method: "GET", Host: "a.example", Path: "/ua", Header: f("User-Agent", "app/1.0 (Android 9)", "user-agent", "second")},
		{Method: "GET", Host: "a.example", Path: "/noua", Header: f("User-Agent", "")},
		{Method: "POST", Host: "a.example", Path: "/product/get", Header: append(f("Cookie", "sid=1"), hop...),
			BodyKind: httpmsg.BodyForm, BodyForm: f("cid", "c 9", "_client", "android", "cid", "second", "a&b", "=")},
		{Method: "PUT", Host: "a.example", Path: "/raw", BodyKind: httpmsg.BodyRaw, BodyRaw: []byte{0, 1, 2, 255}},
		{Method: "POST", Host: "a.example", Path: "/empty-form", BodyKind: httpmsg.BodyForm},
		{Method: "DELETE", Host: "a.example", Path: "/thing", Query: f("id", "7"), Header: f("Idempotency-Key", "k1")},
	}
	for _, r := range corpus {
		name := r.Method + " " + r.Host + r.Path
		if err := viaTransport(r); err != nil {
			t.Fatalf("%s via Transport: %v", name, err)
		}
		want := peer.last()
		resp, err := c.Forward(context.Background(), peer.addr(), r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := resp.Buffer(0); err != nil {
			t.Fatalf("%s: body: %v", name, err)
		}
		if got := peer.last(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: owner saw\n %+v\nwant (via Transport)\n %+v", name, got, want)
		}
	}
}

// silentPeer accepts connections and reads from them, never answering.
func silentPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, c)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestForwardHeadBound: an owner that takes the relay and never starts its
// response fails the relay once forwardResponseHeaderTimeout passes, long
// before the caller's own deadline: the caller then serves locally.
func TestForwardHeadBound(t *testing.T) {
	defer func(d time.Duration) { forwardResponseHeaderTimeout = d }(forwardResponseHeaderTimeout)
	forwardResponseHeaderTimeout = 50 * time.Millisecond
	owner := silentPeer(t)
	c := New(Config{Self: "127.0.0.1:1", Peers: []string{owner}})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.Forward(ctx, owner, &httpmsg.Request{Method: "GET", Host: "a.example", Path: "/x"})
	if !errors.Is(err, errForwardHeadTimeout) {
		t.Fatalf("relay to a silent owner: %v, want errForwardHeadTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("relay gave up after %v, bound %v", d, forwardResponseHeaderTimeout)
	}
	if n, _ := c.client.IdleConns(); n != 0 {
		t.Fatalf("%d idle connections after a timed-out relay", n)
	}
}

// TestForwardBodyOutlivesHeadBound: the head bound covers the head alone; a
// body that streams past it is relayed whole.
func TestForwardBodyOutlivesHeadBound(t *testing.T) {
	defer func(d time.Duration) { forwardResponseHeaderTimeout = d }(forwardResponseHeaderTimeout)
	forwardResponseHeaderTimeout = 50 * time.Millisecond
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("head "))
		w.(http.Flusher).Flush()
		time.Sleep(3 * forwardResponseHeaderTimeout)
		w.Write([]byte("and tail"))
	}))
	defer owner.Close()
	addr := owner.Listener.Addr().String()
	c := New(Config{Self: "127.0.0.1:1", Peers: []string{addr}})
	defer c.Close()
	resp, err := c.Forward(context.Background(), addr, &httpmsg.Request{Method: "GET", Host: "a.example", Path: "/x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Buffer(0); err != nil || string(resp.Body) != "head and tail" {
		t.Fatalf("relayed body %q (%v), want it whole", resp.Body, err)
	}
}

// TestPeekBoundedByProbeTimeout: a sibling that takes a peek and never
// answers fails it at ProbeTimeout, long before the caller's own deadline.
func TestPeekBoundedByProbeTimeout(t *testing.T) {
	peer := silentPeer(t)
	const bound = 50 * time.Millisecond
	c := New(Config{Self: "127.0.0.1:1", Peers: []string{peer}, ProbeTimeout: bound})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, _, err := c.PeekEntry(ctx, peer, "GET a.example/x")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("peek of a silent sibling: %v, want its deadline", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("peek gave up after %v, bound %v", d, bound)
	}
}

// stubOwner answers every request with a 1 KiB body, and a peek of any
// key with one cached entry.
func stubOwner(tb testing.TB) string {
	body := bytes.Repeat([]byte("x"), 1024)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == adminv1.PathClusterEntry {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"sigId":"t:img#0","status":200,"header":[{"key":"Content-Type","value":"image/jpeg"}],"body":"aGk=","expiresInMs":60000}`)
			return
		}
		w.Write(body)
	}))
	tb.Cleanup(srv.Close)
	return srv.Listener.Addr().String()
}

// relay1K is one relayed GET of a 1 KiB body, read to its end.
func relay1K(tb testing.TB, c *Cluster, addr string, r *httpmsg.Request) {
	resp, err := c.Forward(context.Background(), addr, r)
	if err != nil {
		tb.Fatal(err)
	}
	if n, err := io.Copy(io.Discard, resp.Stream()); err != nil || n != 1024 {
		tb.Fatalf("relayed %d bytes (%v), want 1024", n, err)
	}
	resp.CloseBody()
}

// TestForwardAllocs pins the allocations of one relay on a pooled
// connection, the stub owner's own included: 55, where the relay over a
// per-peer http.Transport made 78.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	addr := stubOwner(t)
	c := New(Config{Self: "127.0.0.1:1", Peers: []string{addr}})
	defer c.Close()
	r := &httpmsg.Request{Method: "GET", Scheme: "http", Host: "b.example", Path: "/item",
		Query:  []httpmsg.Field{{Key: "id", Value: "42"}},
		Header: []httpmsg.Field{{Key: "Cookie", Value: "sid=1"}, {Key: "X-Appx-User", Value: "u-1"}}}
	relay1K(t, c, addr, r)
	allocs := testing.AllocsPerRun(200, func() { relay1K(t, c, addr, r) })
	t.Logf("%.0f allocations per relay", allocs)
	if allocs > 55+1 {
		t.Fatalf("one relay cost %.0f allocations, want 55 (78 over http.Transport)", allocs)
	}
}

// TestPeekAllocs pins the allocations of one peek of a hit entry on a
// pooled connection, the stub sibling's own included: 77, where the peek
// over the probe http.Client made 102.
func TestPeekAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	addr := stubOwner(t)
	c := New(Config{Self: "127.0.0.1:1", Peers: []string{addr}})
	defer c.Close()
	peek := func() {
		if _, ok, err := c.PeekEntry(context.Background(), addr, "GET b.example/img?id=1"); !ok || err != nil {
			t.Fatalf("peek: hit %v, %v", ok, err)
		}
	}
	peek()
	allocs := testing.AllocsPerRun(200, peek)
	t.Logf("%.0f allocations per peek", allocs)
	if allocs > 77+1 {
		t.Fatalf("one peek cost %.0f allocations, want 77 (102 over http.Client)", allocs)
	}
}
