package proxy

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"appx/internal/cluster"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/sig"
)

// capturingOrigin is an HTTP/1.1 origin on a raw loopback listener. It
// parses each request as it came off the wire (http.ReadRequest, then
// httpmsg.FromHTTPLimited), keeps it, and answers as an image origin does: a strong
// ETag on every 200, a bodiless 304 to a request whose If-None-Match names
// the body's tag. While hangUps is above zero, each request it parses
// (and keeps) is answered by closing the connection instead.
type capturingOrigin struct {
	ln   net.Listener
	body func(r *httpmsg.Request) string

	mu      sync.Mutex
	seen    []*httpmsg.Request
	hangUps int
	conns   []net.Conn
	wg      sync.WaitGroup
}

func newCapturingOrigin(t *testing.T, body func(r *httpmsg.Request) string) *capturingOrigin {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &capturingOrigin{ln: ln, body: body}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			o.mu.Lock()
			o.conns = append(o.conns, c)
			o.mu.Unlock()
			o.wg.Add(1)
			go func() {
				defer o.wg.Done()
				o.serve(c)
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
		o.wg.Wait()
	})
	return o
}

func (o *capturingOrigin) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		hreq, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		req, err := httpmsg.FromHTTPLimited(hreq, 0)
		if err != nil {
			return
		}
		o.mu.Lock()
		o.seen = append(o.seen, req)
		hangUp := o.hangUps > 0
		if hangUp {
			o.hangUps--
		}
		o.mu.Unlock()
		if hangUp {
			return
		}
		b := o.body(req)
		tag := strongTag([]byte(b))
		if inm, _ := req.GetHeader("If-None-Match"); inm == tag {
			fmt.Fprintf(c, "HTTP/1.1 304 Not Modified\r\nEtag: %s\r\n\r\n", tag)
			continue
		}
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\nEtag: %s\r\n\r\n%s", len(b), tag, b)
	}
}

// last returns the last request the origin parsed for path?id=id.
func (o *capturingOrigin) last(t *testing.T, path, id string) *httpmsg.Request {
	t.Helper()
	all := o.all(path, id)
	if len(all) == 0 {
		t.Fatalf("the origin never saw %s?id=%s", path, id)
	}
	return all[len(all)-1]
}

// all returns every request the origin parsed for path?id=id, in order.
func (o *capturingOrigin) all(path, id string) []*httpmsg.Request {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []*httpmsg.Request
	for _, r := range o.seen {
		if r.Path == path && len(r.Query) == 1 && r.Query[0].Value == id {
			out = append(out, r)
		}
	}
	return out
}

// TestOriginHearsTheKeyedRequest: behind the forwarded-miss, retried
// forwarded-miss, prefetch, revalidation, borrowed-guess and relay paths,
// the request the next hop parses off the wire keys exactly as the proxy
// keyed it — no default User-Agent, nothing else added — a revalidation
// differs from the stored key by one If-None-Match field alone, and a relay
// by the hop and user headers alone.
func TestOriginHearsTheKeyedRequest(t *testing.T) {
	g := followGraph([]edge{{"list", "img", "imgs[*]"}})
	origin := newCapturingOrigin(t, func(r *httpmsg.Request) string {
		id, _ := r.GetQuery("id")
		switch {
		case id == "0":
			return `{}`
		case r.Path == "/list" && id == "M":
			return `{"imgs":["2"]}`
		case r.Path == "/list":
			return `{"imgs":["1"]}`
		}
		return fmt.Sprintf("%04000d", 1)
	})
	cfg := config.Default(g)
	cfg.Cache = &config.Cache{DisableSharedTier: true}
	frozen := time.Unix(1_700_000_000, 0)
	up := NewNetUpstream(map[string]string{"h.example": origin.ln.Addr().String()}, nil)
	p := New(Options{Graph: g, Config: cfg, Workers: 1, Now: func() time.Time { return frozen }, Upstream: up})
	t.Cleanup(p.Close)

	// Clients send the fields an app would, and no User-Agent.
	header := []httpmsg.Field{{Key: "Accept", Value: "*/*"}, {Key: "Cookie", Value: "sid=1"}}
	get := func(user, name, id string) *httpmsg.Request {
		t.Helper()
		req := &httpmsg.Request{Method: "GET", Scheme: "http", Host: "h.example", Path: "/" + name,
			Query: []httpmsg.Field{{Key: "id", Value: id}}, Header: header}
		resp, err := (&proxyTransport{p: p, user: user}).RoundTrip(req)
		if err != nil || resp.Status != 200 {
			t.Fatalf("GET /%s?id=%s as %s: %v, %+v", name, id, user, err, resp)
		}
		return req
	}

	// Forwarded misses: the origin hears the client's request.
	for _, name := range []string{"img", "list"} {
		req := get("A", name, map[string]string{"img": "0", "list": "L"}[name])
		id := req.Query[0].Value
		if got := origin.last(t, "/"+name, id); got.CanonicalKey() != req.CanonicalKey() {
			t.Fatalf("forwarded %s?id=%s reached the origin as %+v, keyed %+v", name, id, got, req)
		}
	}
	// A retried forwarded miss: the origin hangs up on the first attempt,
	// which went out on a fresh connection, so the origin client does not
	// redial it itself and the proxy's retry sends it again. Both attempts
	// are the request the proxy keyed. (A's prefetch of img?1 finishes
	// first, so the hang-up is img?9's.)
	p.Drain()
	up.CloseIdleConnections()
	origin.mu.Lock()
	origin.hangUps = 1
	origin.mu.Unlock()
	req := get("D", "img", "9")
	tries := origin.all("/img", "9")
	if len(tries) != 2 || p.Stats().Retries() != 1 {
		t.Fatalf("the origin heard img?9 %d times, %d retries counted: want the proxy's one retry", len(tries), p.Stats().Retries())
	}
	for i, got := range tries {
		if got.CanonicalKey() != req.CanonicalKey() {
			t.Fatalf("attempt %d of img?9 reached the origin as %+v, keyed %+v", i+1, got, req)
		}
	}
	// A prefetch: the origin hears the request whose key A's entry is under.
	p.Drain()
	pre := origin.last(t, "/img", "1")
	if e, _ := p.Cache().Get("A", pre.CanonicalKey()); e == nil {
		t.Fatalf("A's prefetch reached the origin as %+v, which keys no entry of A's", pre)
	}
	if _, ok := pre.GetHeader("If-None-Match"); ok {
		t.Fatal("the first prefetch of img?1 went out conditional")
	}
	// A revalidation: B's own request, plus one If-None-Match.
	get("B", "img", "0")
	get("B", "list", "L")
	p.Drain()
	rv := origin.last(t, "/img", "1")
	if got := headerValues(rv, "If-None-Match"); len(got) != 1 || got[0] != strongTag([]byte(fmt.Sprintf("%04000d", 1))) {
		t.Fatalf("B's prefetch went out with If-None-Match %q, want the one tag A holds", got)
	}
	bare := rv.Clone()
	bare.DeleteHeader("If-None-Match")
	if e, _ := p.Cache().Get("B", bare.CanonicalKey()); e == nil || rv.CanonicalKey() == bare.CanonicalKey() {
		t.Fatalf("B's revalidation %+v, less its If-None-Match, keys no entry of B's", rv)
	}
	if snap := p.Stats().Snapshot(); snap.NotModified != 1 {
		t.Fatalf("%d 304s counted, want B's one", snap.NotModified)
	}
	// A borrowed guess: C never sent an img, so the profile builds C's
	// first one, and the origin hears the request it is booked under.
	get("C", "list", "M")
	p.Drain()
	guess := origin.last(t, "/img", "2")
	if e, _ := p.Cache().Get("C", guess.CanonicalKey()); e == nil || p.borrowed.Value() != 1 {
		t.Fatalf("C's borrowed guess reached the origin as %+v, which keys no entry of C's (%d borrowed)",
			guess, p.borrowed.Value())
	}

	// A relay: a non-owner sends the owner the client's request, plus the
	// hop and user headers.
	owner := newCapturingOrigin(t, func(*httpmsg.Request) string { return `{}` })
	self := "127.0.0.1:1" // never dialled: only a ring name
	local := UpstreamFunc(func(context.Context, *httpmsg.Request) (*httpmsg.Response, error) {
		return nil, errors.New("the relay fell back to the origin")
	})
	relay := New(Options{Graph: g, Config: cfg, Workers: 1, Upstream: local,
		Cluster: cluster.Config{Self: self, Peers: []string{owner.ln.Addr().String()}}})
	t.Cleanup(relay.Close)
	user := userOwnedBy([]string{self, owner.ln.Addr().String()}, 1)
	req = &httpmsg.Request{Method: "GET", Scheme: "http", Host: "h.example", Path: "/list",
		Query: []httpmsg.Field{{Key: "id", Value: "R"}}, Header: header}
	resp, err := (&proxyTransport{p: relay, user: user}).RoundTrip(req)
	if err != nil || resp.Status != 200 {
		t.Fatalf("relayed GET: %v, %+v", err, resp)
	}
	if by, _ := resp.GetHeader(clusterForwardedHeader); by != owner.ln.Addr().String() {
		t.Fatalf("served by %q, want a relay to the owner", by)
	}
	heard := owner.last(t, "/list", "R")
	if _, ok := heard.GetHeader("User-Agent"); ok {
		t.Fatal("the relay added a User-Agent the client did not send")
	}
	if u, _ := heard.GetHeader(userHeader); u != user {
		t.Fatalf("the relay named user %q, want %q", u, user)
	}
	heard.DeleteHeader(userHeader)
	heard.DeleteHeader(clusterHopHeader)
	if heard.CanonicalKey() != req.CanonicalKey() {
		t.Fatalf("the relay reached the owner as %+v, keyed %+v", heard, req)
	}
}

// rawOrigin is an HTTP/1.1 origin that records each request's method and
// request-target exactly as they arrived on the wire, with its body bytes,
// and answers every one with a small 200.
type rawOrigin struct {
	ln   net.Listener
	mu   sync.Mutex
	seen []string // "METHOD target\nbody"
}

func newRawOrigin(t *testing.T) *rawOrigin {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &rawOrigin{ln: ln}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					hreq, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					body, _ := io.ReadAll(hreq.Body)
					o.mu.Lock()
					o.seen = append(o.seen, hreq.Method+" "+hreq.RequestURI+"\n"+string(body))
					o.mu.Unlock()
					fmt.Fprint(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}")
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return o
}

// heard reports whether the origin received exactly method, target and
// body. An absolute-form target (a relay's) is compared from its path on.
func (o *rawOrigin) heard(method, target, body string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.seen {
		line, b, _ := strings.Cut(s, "\n")
		m, uri, _ := strings.Cut(line, " ")
		if rest, ok := strings.CutPrefix(uri, "http://h.example"); ok {
			uri = rest
		}
		if m == method && uri == target && b == body {
			return true
		}
	}
	return false
}

func (o *rawOrigin) dump() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return strings.Join(o.seen, "\n--\n")
}

// TestOriginHearsTheClientsBytes: a forwarded miss, a passthrough and a
// relay reach the next hop with the request-target and body bytes the
// client sent (RFC 9112 §3.2.2) — an escaped '/' stays escaped, query
// pairs keep their order and escapes, and form and JSON bodies are not
// re-encoded.
func TestOriginHearsTheClientsBytes(t *testing.T) {
	g := followGraph([]edge{{"list", "img", "imgs[*]"}})
	g.Add(&sig.Signature{ID: "t:form#0", Method: "POST", URI: sig.Literal("h.example/form"), BodyKind: httpmsg.BodyForm,
		BodyForm: []sig.Field{{Key: "z", Value: sig.Wildcard("z")}}})
	origin := newRawOrigin(t)
	up := NewNetUpstream(map[string]string{"h.example": origin.ln.Addr().String()}, nil)
	p := New(Options{Graph: g, Config: config.Default(g), Workers: 1, Upstream: up})
	t.Cleanup(p.Close)
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)

	// send writes one request in forward-proxy form, byte for byte.
	send := func(addr, method, target, ctype, body, user string) {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		head := fmt.Sprintf("%s http://h.example%s HTTP/1.1\r\nHost: h.example\r\nConnection: close\r\n", method, target)
		if user != "" {
			head += userHeader + ": " + user + "\r\n"
		}
		if body != "" {
			head += fmt.Sprintf("Content-Type: %s\r\nContent-Length: %d\r\n", ctype, len(body))
		}
		if _, err := io.WriteString(c, head+"\r\n"+body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil {
			t.Fatalf("%s %s: %v", method, target, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s %s: status %d", method, target, resp.StatusCode)
		}
	}
	const form, json = "application/x-www-form-urlencoded", "application/json"
	cases := []struct{ what, method, target, ctype, body string }{
		{"forwarded miss", "GET", "/list?id=L&b=2&a=1&c=%7E&d=x%20y", "", ""},
		{"forwarded miss", "POST", "/form?b=2&a=1", form, "z=1&a=%7E"},
		{"passthrough", "GET", "/a%2Fb/c?b=2&a=1&c=%7E&d=x%20y", "", ""},
		{"passthrough", "POST", "/a%2Fb/f", form, "z=1&a=%7E"},
		{"passthrough", "POST", "/graph", json, `{"b":1.0,"a":"<x>"}`},
	}
	for _, c := range cases {
		send(srv.Listener.Addr().String(), c.method, c.target, c.ctype, c.body, "")
		p.Drain()
		if !origin.heard(c.method, c.target, c.body) {
			t.Errorf("%s %s %s %q: the origin heard instead:\n%s", c.what, c.method, c.target, c.body, origin.dump())
		}
	}

	// A relay: a non-owner sends the owner the client's bytes.
	owner := newRawOrigin(t)
	self := "127.0.0.1:1" // never dialled: only a ring name
	local := UpstreamFunc(func(context.Context, *httpmsg.Request) (*httpmsg.Response, error) {
		return nil, errors.New("the relay fell back to the origin")
	})
	relay := New(Options{Graph: g, Config: config.Default(g), Workers: 1, Upstream: local,
		Cluster: cluster.Config{Self: self, Peers: []string{owner.ln.Addr().String()}}})
	t.Cleanup(relay.Close)
	rsrv := httptest.NewServer(relay)
	t.Cleanup(rsrv.Close)
	user := userOwnedBy([]string{self, owner.ln.Addr().String()}, 1)
	for _, c := range []struct{ method, target, ctype, body string }{
		{"GET", "/list?id=R&b=2&a=1&c=%7E&d=x%20y", "", ""},
		{"POST", "/form?b=2&a=1", form, "z=1&a=%7E"},
	} {
		send(rsrv.Listener.Addr().String(), c.method, c.target, c.ctype, c.body, user)
		if !owner.heard(c.method, c.target, c.body) {
			t.Errorf("relay %s %s %q: the owner heard instead:\n%s", c.method, c.target, c.body, owner.dump())
		}
	}
}
