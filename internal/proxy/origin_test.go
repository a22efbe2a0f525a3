package proxy

// Tests for the origin client (httpmsg.Client) behind NetUpstream: when a connection goes
// back to the idle pool and when it is closed, the stale-connection retry,
// 1xx handling, what is refused before a byte is sent, a stress run against
// an origin that drops connections at random, and a differential check
// that the origin sees the request http.Transport used to send.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/httpmsg"
	"appx/internal/netem"
)

// scriptOrigin is a raw TCP origin: serve runs once per accepted
// connection, with the connection's index, and owns what goes on the wire.
type scriptOrigin struct {
	ln       net.Listener
	accepted atomic.Int64
	mu       sync.Mutex
	conns    []net.Conn
}

func newScriptOrigin(t testing.TB, serve func(i int, c net.Conn)) *scriptOrigin {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &scriptOrigin{ln: ln}
	var wg sync.WaitGroup
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			i := int(o.accepted.Add(1)) - 1
			o.mu.Lock()
			o.conns = append(o.conns, c)
			o.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				serve(i, c)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		o.mu.Lock()
		for _, c := range o.conns {
			c.Close()
		}
		o.mu.Unlock()
		wg.Wait()
	})
	return o
}

// upstream resolves o.example to the origin.
func (o *scriptOrigin) upstream() *NetUpstream {
	return NewNetUpstream(map[string]string{"o.example": o.ln.Addr().String()}, nil)
}

// serveRequests reads requests off c one after another and writes answer's
// bytes for each; answer returning "" closes the connection instead.
func serveRequests(c net.Conn, answer func(req *http.Request) string) {
	br := bufio.NewReader(c)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		io.Copy(io.Discard, req.Body)
		out := answer(req)
		if out == "" {
			return
		}
		if _, err := io.WriteString(c, out); err != nil {
			return
		}
	}
}

func okResponse(body string) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

func getReq(path string) *httpmsg.Request {
	return &httpmsg.Request{Method: "GET", Host: "o.example", Path: path}
}

// readBody reads a streamed body to its end and closes it.
func readBody(t testing.TB, resp *httpmsg.Response) string {
	t.Helper()
	if err := resp.Buffer(0); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return string(resp.Body)
}

func (u *NetUpstream) idleConns() int { n, _ := u.client.IdleConns(); return n }

// TestOriginCancelMidBodyNeverPools: a body cut off by cancellation leaves
// its unread bytes on the wire, so its connection must never be reused —
// the next request gets a connection, and bytes, of its own.
func TestOriginCancelMidBodyNeverPools(t *testing.T) {
	o := newScriptOrigin(t, func(i int, c net.Conn) {
		serveRequests(c, func(req *http.Request) string {
			if req.URL.Path == "/slow" {
				// Half of a 2000-byte body, then nothing until the client hangs up.
				return "HTTP/1.1 200 OK\r\nContent-Length: 2000\r\n\r\n" + strings.Repeat("a", 1000)
			}
			return okResponse("mine")
		})
	})
	u := o.upstream()
	ctx, cancel := context.WithCancel(context.Background())
	resp, err := u.RoundTrip(ctx, getReq("/slow"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Stream(), make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := resp.Stream().Read(make([]byte, 10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel: %v, want context.Canceled", err)
	}
	resp.CloseBody()
	if n := u.idleConns(); n != 0 {
		t.Fatalf("%d idle connections after a cancelled body, want 0", n)
	}
	resp, err = u.RoundTrip(context.Background(), getReq("/next"))
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); body != "mine" {
		t.Fatalf("next request read %q, want its own body", body)
	}
	if n := o.accepted.Load(); n != 2 {
		t.Fatalf("origin accepted %d connections, want 2", n)
	}
}

// TestOriginCancelBeforeHead: a cancellation while the head is awaited
// fails the round trip with the context's error and closes the connection.
func TestOriginCancelBeforeHead(t *testing.T) {
	o := newScriptOrigin(t, func(i int, c net.Conn) {
		io.Copy(io.Discard, c) // never answers
	})
	u := o.upstream()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := u.RoundTrip(ctx, getReq("/x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("round trip past its deadline: %v, want context.DeadlineExceeded", err)
	}
	if n := u.idleConns(); n != 0 {
		t.Fatalf("%d idle connections, want 0", n)
	}
}

// TestOriginStaleIdleConnection: a GET's connection dies while it sits
// idle, closed by the origin (as a keep-alive timeout does) or severed on
// this side (so the write fails). A GET that finds it is retried once on a
// fresh dial. A POST never takes an idle connection: it may not be sent
// twice, and nothing watches an idle connection for the origin's close. It
// goes out on a fresh dial, succeeds, and that connection is closed after
// it, not pooled.
func TestOriginStaleIdleConnection(t *testing.T) {
	post := func(path string) *httpmsg.Request {
		return &httpmsg.Request{Method: "POST", Host: "o.example", Path: path,
			BodyKind: httpmsg.BodyForm, BodyForm: []httpmsg.Field{{Key: "a", Value: "1"}}}
	}
	for _, tc := range []struct {
		name  string
		req   func(path string) *httpmsg.Request
		sever bool // close on this side (nothing will be written) instead of the origin's
	}{
		{"get-origin-closed", getReq, false},
		{"get-severed", getReq, true},
		{"post-origin-closed", post, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newScriptOrigin(t, func(i int, c net.Conn) {
				serveRequests(c, func(*http.Request) string { return okResponse(fmt.Sprintf("c%d", i)) })
			})
			u := o.upstream()
			in := netem.NewInjector(1)
			u.SetFaults(in)
			resp, err := u.RoundTrip(context.Background(), getReq("/a"))
			if err != nil {
				t.Fatal(err)
			}
			if body := readBody(t, resp); body != "c0" || u.idleConns() != 1 {
				t.Fatalf("first answer %q, %d idle connections; want c0 and one", body, u.idleConns())
			}
			if tc.sever {
				if n := in.Sever("o.example"); n != 1 {
					t.Fatalf("severed %d connections, want the idle one", n)
				}
			} else {
				// The origin's handler is parked reading the next request:
				// closing its side is the idle timeout a real origin applies.
				o.mu.Lock()
				o.conns[0].Close()
				o.mu.Unlock()
			}
			resp, err = u.RoundTrip(context.Background(), tc.req("/b"))
			if err != nil {
				t.Fatalf("request after the idle connection died: %v, want it sent on a fresh one", err)
			}
			if body := readBody(t, resp); body != "c1" {
				t.Fatalf("second request read %q, want c1", body)
			}
			// A GET pooled its fresh connection in the dead one's place; a
			// POST left the dead one where it was and pooled nothing.
			if n := u.idleConns(); n != 1 {
				t.Fatalf("%d idle connections, want 1", n)
			}
			if n := o.accepted.Load(); n != 2 {
				t.Fatalf("origin accepted %d connections, want 2", n)
			}
		})
	}
}

// TestOriginPostNeverReplayed: a POST whose connection fails after the
// request was written is not sent again, even on a fresh connection.
func TestOriginPostNeverReplayed(t *testing.T) {
	o := newScriptOrigin(t, func(i int, c net.Conn) {
		serveRequests(c, func(*http.Request) string { return "" }) // reads it, then hangs up
	})
	u := o.upstream()
	r := &httpmsg.Request{Method: "POST", Host: "o.example", Path: "/once",
		BodyKind: httpmsg.BodyForm, BodyForm: []httpmsg.Field{{Key: "a", Value: "1"}}}
	if _, err := u.RoundTrip(context.Background(), r); err == nil {
		t.Fatal("a POST the origin hung up on succeeded")
	}
	if n := o.accepted.Load(); n != 1 {
		t.Fatalf("origin accepted %d connections: the POST was replayed", n)
	}
}

// TestOriginCloseResponsesNotPooled: a connection is reused only when
// neither side asked to close it and the body's end was framed, and
// CloseIdleConnections empties the pool.
func TestOriginCloseResponsesNotPooled(t *testing.T) {
	answers := map[string]string{
		"/keep":        okResponse("kept"),
		"/conn-close":  "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 4\r\n\r\nbye!",
		"/delimited":   "HTTP/1.1 200 OK\r\n\r\nuntil the end",
		"/http10":      "HTTP/1.0 200 OK\r\nContent-Length: 3\r\n\r\nold",
		"/req-close":   okResponse("asked"),
		"/chunked":     "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"/no-content":  "HTTP/1.1 204 No Content\r\n\r\n",
		"/empty-close": "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
	}
	for _, tc := range []struct {
		path, body string
		pooled     bool
	}{
		{"/keep", "kept", true},
		{"/chunked", "abc", true},
		{"/no-content", "", true},
		{"/conn-close", "bye!", false},
		{"/delimited", "until the end", false},
		{"/http10", "old", false},
		{"/req-close", "asked", false},
		{"/empty-close", "", false},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			o := newScriptOrigin(t, func(i int, c net.Conn) {
				serveRequests(c, func(req *http.Request) string {
					out := answers[req.URL.Path]
					if req.URL.Path == "/delimited" {
						io.WriteString(c, out)
						return "" // the close ends the body
					}
					return out
				})
			})
			u := o.upstream()
			r := getReq(tc.path)
			if tc.path == "/req-close" {
				r.Header = []httpmsg.Field{{Key: "Connection", Value: "close"}}
			}
			resp, err := u.RoundTrip(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			if body := readBody(t, resp); body != tc.body {
				t.Fatalf("body %q, want %q", body, tc.body)
			}
			if got := u.idleConns() == 1; got != tc.pooled {
				t.Fatalf("pooled = %v, want %v", got, tc.pooled)
			}
			if !tc.pooled {
				return
			}
			if _, buffered := u.client.IdleConns(); buffered != 0 {
				t.Fatal("an idle connection with nothing buffered kept its read buffer")
			}
			u.CloseIdleConnections()
			if n := u.idleConns(); n != 0 {
				t.Fatalf("%d idle connections after CloseIdleConnections", n)
			}
		})
	}
}

// TestOriginSkips1xx: informational responses before the answer are read
// past; 101 is an error, and its connection is closed.
func TestOriginSkips1xx(t *testing.T) {
	o := newScriptOrigin(t, func(i int, c net.Conn) {
		serveRequests(c, func(req *http.Request) string {
			if req.URL.Path == "/upgrade" {
				return "HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\nConnection: Upgrade\r\n\r\n"
			}
			return "HTTP/1.1 100 Continue\r\n\r\n" +
				"HTTP/1.1 103 Early Hints\r\nLink: </a.css>\r\n\r\n" + okResponse("final")
		})
	})
	u := o.upstream()
	resp, err := u.RoundTrip(context.Background(), getReq("/x"))
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.Status != 200 || body != "final" {
		t.Fatalf("%d %q, want 200 final", resp.Status, body)
	}
	if _, err := u.RoundTrip(context.Background(), getReq("/upgrade")); !errors.Is(err, httpmsg.ErrSwitchingProtocols) {
		t.Fatalf("101: %v, want ErrSwitchingProtocols", err)
	}
	if n := u.idleConns(); n != 0 {
		t.Fatalf("%d idle connections after a 101, want 0", n)
	}
}

// TestOriginRefusesBeforeSending: what http.Transport refuses — an invalid
// method, header name or header value, a scheme other than http — fails
// before any byte reaches the origin, on a fresh or an idle connection.
func TestOriginRefusesBeforeSending(t *testing.T) {
	var got atomic.Int64
	o := newScriptOrigin(t, func(i int, c net.Conn) {
		serveRequests(c, func(*http.Request) string { got.Add(1); return okResponse("ok") })
	})
	u := o.upstream()
	bad := []*httpmsg.Request{
		{Method: "GET", Host: "o.example", Path: "/", Header: []httpmsg.Field{{Key: "X-A", Value: "1\r\nX-Injected: 1"}}},
		{Method: "GET", Host: "o.example", Path: "/", Header: []httpmsg.Field{{Key: "Bad Name", Value: "1"}}},
		{Method: "POST", Host: "o.example", Path: "/", Header: []httpmsg.Field{{Key: "X-A", Value: "nul\x00"}},
			BodyKind: httpmsg.BodyRaw, BodyRaw: []byte("x")},
		{Method: "GE T", Host: "o.example", Path: "/"},
	}
	for _, r := range bad {
		if _, err := u.RoundTrip(context.Background(), r); err == nil {
			t.Fatalf("%q %v: sent", r.Method, r.Header)
		}
	}
	if n := o.accepted.Load(); n != 0 {
		t.Fatalf("refused requests dialled %d connections", n)
	}
	if _, err := u.RoundTrip(context.Background(), &httpmsg.Request{Method: "GET", Scheme: "https", Host: "o.example", Path: "/"}); !errors.Is(err, httpmsg.ErrUnsupportedScheme) {
		t.Fatalf("https: %v, want ErrUnsupportedScheme", err)
	}

	resp, err := u.RoundTrip(context.Background(), getReq("/warm"))
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	for _, r := range bad {
		if _, err := u.RoundTrip(context.Background(), r); err == nil {
			t.Fatalf("%q %v: sent on an idle connection", r.Method, r.Header)
		}
	}
	if got.Load() != 1 || u.idleConns() != 1 {
		t.Fatalf("origin saw %d requests, %d idle connections; want 1 and the idle one untouched", got.Load(), u.idleConns())
	}
}

// TestOriginStressRandomCloses: 32 goroutines against an origin that, at
// random, answers, answers and closes, hangs up without answering, cuts a
// body short, or answers chunked. Every round trip either fails or reads
// exactly its own body: a reused connection never hands one request
// another's bytes, and a cut-short body is an error, never a short success.
func TestOriginStressRandomCloses(t *testing.T) {
	var seed atomic.Int64
	o := newScriptOrigin(t, func(i int, c net.Conn) {
		rnd := rand.New(rand.NewSource(seed.Add(1)))
		serveRequests(c, func(req *http.Request) string {
			body := req.URL.Path
			switch rnd.Intn(10) {
			case 0:
				return ""
			case 1:
				return fmt.Sprintf("HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
			case 2:
				io.WriteString(c, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body)+10, body))
				return ""
			case 3:
				return fmt.Sprintf("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body)
			default:
				return okResponse(body)
			}
		})
	})
	u := o.upstream()
	const workers, each = 32, 40
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				path := fmt.Sprintf("/w%d/k%d", w, k)
				resp, err := u.RoundTrip(context.Background(), getReq(path))
				if err != nil {
					failed.Add(1)
					continue
				}
				if err := resp.Buffer(0); err != nil {
					failed.Add(1)
					continue
				}
				if string(resp.Body) != path {
					t.Errorf("%s read %q", path, resp.Body)
					return
				}
				ok.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if ok.Load() < workers*each/2 {
		t.Fatalf("%d of %d round trips succeeded (%d failed)", ok.Load(), workers*each, failed.Load())
	}
	// 64 is the client's idle bound per dialled address (DESIGN.md §14).
	if n := u.idleConns(); n > 64 {
		t.Fatalf("%d idle connections for one host, bound %d", n, 64)
	}
	t.Logf("%d ok, %d failed, %d connections", ok.Load(), failed.Load(), o.accepted.Load())
}

// recorded is what an origin handler sees of a request.
type recorded struct {
	Method, RequestURI, Host string
	Header                   http.Header
	Body                     string
}

// TestOriginRequestDifferential: the origin sees the same request from the
// client as from the http.Transport NetUpstream used before it — method,
// request URI, Host, every header and the body — across query escaping,
// paths url.Parse rewrites, JSON and form bodies, and repeated, blank and
// User-Agent headers. Neither adds a User-Agent the request does not carry.
func TestOriginRequestDifferential(t *testing.T) {
	var mu sync.Mutex
	var seen []recorded
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen = append(seen, recorded{r.Method, r.RequestURI, r.Host, r.Header.Clone(), string(b)})
		mu.Unlock()
		w.Write([]byte("ok"))
	}))
	defer origin.Close()
	last := func() recorded {
		mu.Lock()
		defer mu.Unlock()
		return seen[len(seen)-1]
	}

	u := NewNetUpstream(map[string]string{"a.example": origin.Listener.Addr().String(),
		"a.example:8080": origin.Listener.Addr().String()}, nil)
	// The Transport as NewNetUpstream configured it, driven as its
	// RoundTrip drove it.
	tr := &http.Transport{
		DialContext:           u.dial,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   64,
		IdleConnTimeout:       30 * time.Second,
		DisableCompression:    true,
		TLSHandshakeTimeout:   5 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
	defer tr.CloseIdleConnections()
	viaTransport := func(r *httpmsg.Request) error {
		hreq, err := r.ToHTTP()
		if err != nil {
			return err
		}
		hreq.Host = r.Host
		// Transport's default User-Agent is suppressed, as the client and
		// cluster.Forward suppress it: the origin hears only what was keyed.
		if _, ok := hreq.Header["User-Agent"]; !ok {
			hreq.Header.Set("User-Agent", "")
		}
		resp, err := tr.RoundTrip(hreq)
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
	corpus := []*httpmsg.Request{
		{Method: "GET", Host: "a.example", Path: "/item/f003-17.4"},
		{Method: "get", Host: "a.example:8080", Path: "/list", Query: f("id", "r 1", "b", "x&y=z", "a", "ü", "b", "first")},
		{Method: "", Host: "a.example", Path: ""},
		{Method: "HEAD", Host: "a.example", Path: "/head"},
		{Method: "GET", Host: "a.example", Path: "/with space/é"},
		{Method: "GET", Host: "a.example", Path: "/a[1]/b;c=d/e:f@g!$&'()*+,="},
		{Method: "GET", Host: "a.example", Path: "/enc%20oded/%2F"},
		{Method: "GET", Host: "a.example", Path: "/h", Header: f("Cookie", "sid=1", "X-A", "1", "x-a", "2", "X-Blank", "", "X-Pad", "  v\t")},
		{Method: "GET", Host: "a.example", Path: "/ua", Header: f("User-Agent", "app/1.0 (Android 9)", "user-agent", "second")},
		{Method: "GET", Host: "a.example", Path: "/noua", Header: f("User-Agent", "")},
		{Method: "POST", Host: "a.example", Path: "/product/get", Header: f("Cookie", "sid=1", "X-A", "1"),
			BodyKind: httpmsg.BodyForm, BodyForm: f("cid", "c 9", "_client", "android", "cid", "second", "a&b", "=")},
		{Method: "PUT", Host: "a.example", Path: "/raw", BodyKind: httpmsg.BodyRaw, BodyRaw: []byte{0, 1, 2, 255}},
		{Method: "POST", Host: "a.example", Path: "/empty-form", BodyKind: httpmsg.BodyForm},
		{Method: "DELETE", Host: "a.example", Path: "/thing", Query: f("id", "7")},
		{Method: "GET", Host: "a.example", Path: "/ct", BodyKind: httpmsg.BodyForm},
	}
	for _, r := range corpus {
		name := r.Method + " " + r.Host + r.Path
		if err := viaTransport(r); err != nil {
			t.Fatalf("%s via Transport: %v", name, err)
		}
		want := last()
		resp, err := u.RoundTrip(context.Background(), r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := resp.Buffer(0); err != nil {
			t.Fatalf("%s: body: %v", name, err)
		}
		if got := last(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: origin saw\n %+v\nwant (via Transport)\n %+v", name, got, want)
		}
	}
}

// FuzzOriginResponse feeds arbitrary origin bytes to the client over an
// in-memory connection and compares with http.ReadResponse reading the same
// bytes. Nothing panics; a response is refused exactly when the reference
// cannot read one; a body yields exactly the reference's bytes, never any
// past its framing; and the connection is pooled only after a complete
// response that closes nothing and with no byte read past it. Bytes past a
// response — a body on a HEAD or 304, a second response nobody asked for —
// belong to no request, so a connection that read them is closed rather
// than left to answer the next request with them.
func FuzzOriginResponse(f *testing.F) {
	for _, seed := range []string{
		okResponse("one"),
		okResponse("one") + okResponse("two"),
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX-Trailer: t\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n" + okResponse("next"),
		"HTTP/1.1 100 Continue\r\n\r\n" + okResponse("after 100"),
		"HTTP/1.1 200 OK\r\n\r\nclose-delimited",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nokEXTRA",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 50\r\n\r\n" + okResponse("x"),
		"HTTP/1.1 101 Switching Protocols\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\nx",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nxy",
		"garbage\r\n\r\n",
		"",
	} {
		f.Add([]byte(seed), uint8(0))
	}
	f.Add([]byte(okResponse("head body is not read")), uint8(1))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		first := getReq("/first")
		var refReq *http.Request
		if mode%2 == 1 {
			first.Method, refReq = "HEAD", &http.Request{Method: "HEAD"}
		}
		src := bytes.NewReader(data)
		ref := bufio.NewReader(src)
		wantStatus, wantBody, wantClose, wantErr := refExchange(ref, refReq)
		// The bytes the origin sent past the reference's response.
		past := ref.Buffered() + src.Len()

		conn := &memConn{r: bytes.NewReader(data)}
		u := &NetUpstream{client: httpmsg.NewClient(func(context.Context, string, string) (net.Conn, error) {
			return conn, nil
		})}
		resp, err := u.RoundTrip(context.Background(), first)
		if (err != nil) != wantErr {
			t.Fatalf("client error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			if u.idleConns() != 0 || !conn.closed {
				t.Fatal("a failed exchange left its connection open or pooled")
			}
			return
		}
		body, berr := io.ReadAll(resp.Stream())
		resp.CloseBody()
		if resp.Status != wantStatus || string(body) != string(wantBody.b) || (berr != nil) != (wantBody.err != nil) {
			t.Fatalf("client read %d %q (%v), reference %d %q (%v)", resp.Status, body, berr, wantStatus, wantBody.b, wantBody.err)
		}
		pooled, buffered := u.client.IdleConns()
		if pooled == 0 {
			if !conn.closed {
				t.Fatal("an unpooled connection was left open")
			}
			return
		}
		if berr != nil || wantClose {
			t.Fatalf("pooled after a body that ended with %v (close %v)", berr, wantClose)
		}
		if buffered != 0 || conn.r.Len() != past {
			t.Fatalf("pooled having read %d bytes past its response", past-conn.r.Len())
		}
	})
}

type refBody struct {
	b   []byte
	err error
}

// refExchange reads one answer off br as the client must: 1xx other than
// 101 skipped, 101 refused, then the body to its framed end.
func refExchange(br *bufio.Reader, req *http.Request) (status int, body refBody, closes, failed bool) {
	for {
		resp, err := http.ReadResponse(br, req)
		if err != nil || resp.StatusCode == http.StatusSwitchingProtocols {
			return 0, refBody{}, false, true
		}
		if resp.StatusCode >= 100 && resp.StatusCode < 200 {
			continue
		}
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, refBody{b, err}, resp.Close, false
	}
}

// memConn is an origin connection over fixed bytes: what the client writes
// is discarded, reads drain r, then io.EOF.
type memConn struct {
	net.Conn
	r      *bytes.Reader
	closed bool
}

func (c *memConn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.r.Read(p)
}

func (c *memConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return len(p), nil
}

func (c *memConn) Close() error { c.closed = true; return nil }

// roundTrip1K is one GET of a 1 KiB body from the loopback origin, read to
// its end.
func roundTrip1K(tb testing.TB, u *NetUpstream, r *httpmsg.Request) {
	resp, err := u.RoundTrip(context.Background(), r)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Stream()); err != nil {
		tb.Fatal(err)
	}
	resp.CloseBody()
}

func loopbackOrigin(tb testing.TB) (*NetUpstream, *httpmsg.Request) {
	body := bytes.Repeat([]byte("x"), 1024)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	tb.Cleanup(origin.Close)
	u := NewNetUpstream(map[string]string{"b.example": origin.Listener.Addr().String()}, nil)
	r := &httpmsg.Request{Method: "GET", Host: "b.example", Path: "/item",
		Query:  []httpmsg.Field{{Key: "id", Value: "42"}},
		Header: []httpmsg.Field{{Key: "Cookie", Value: "sid=1"}, {Key: "User-Agent", Value: "app/1.0"}}}
	return u, r
}

// BenchmarkNetUpstreamRoundTrip is one origin call over loopback on a
// pooled connection: request head, response head, a 1 KiB body. The
// allocations include the origin's own.
func BenchmarkNetUpstreamRoundTrip(b *testing.B) {
	u, r := loopbackOrigin(b)
	roundTrip1K(b, u, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip1K(b, u, r)
	}
}

// TestNetUpstreamAllocs pins the allocations of one pooled origin call,
// the origin's own included: 46, where NetUpstream over an http.Transport
// made 65. The bound leaves room for sync.Pool drops under -race (51–52
// there), not for a reader or writer goroutine per call coming back.
func TestNetUpstreamAllocs(t *testing.T) {
	u, r := loopbackOrigin(t)
	roundTrip1K(t, u, r)
	allocs := testing.AllocsPerRun(200, func() { roundTrip1K(t, u, r) })
	t.Logf("%.0f allocations per origin call", allocs)
	if allocs > 56 {
		t.Fatalf("one origin call cost %.0f allocations, want 46 (65 over http.Transport)", allocs)
	}
}
