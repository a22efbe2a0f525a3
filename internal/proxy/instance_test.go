package proxy

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/sig"
)

// chainUpstream answers the learn_fanout chain's prefetches with no latency:
// an item names two details, a detail is a leaf, each about 1 KB.
func chainUpstream() UpstreamFunc {
	pad := strings.Repeat("k3", 420)
	return func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		kind, id, _ := strings.Cut(strings.TrimPrefix(r.Path, "/"), "/")
		body := `{"id":"` + id + `","leaf":true,"pad":"` + pad + `"}`
		if kind == "item" {
			body = `{"id":"` + id + `","detail":[{"id":"` + id + `.0"},{"id":"` + id + `.1"}],"pad":"` + pad + `"}`
		}
		return &httpmsg.Response{Status: 200, Body: []byte(body)}, nil
	}
}

// chainFixture is a fifoProxy over the 500-signature list → item → detail
// graph with the user's item and detail exemplars already learned, plus n
// fresh list responses of eight items each.
type chainFixture struct {
	p     *Proxy
	u     *user
	list  *sigState
	reqs  []*httpmsg.Request
	resps []*httpmsg.Response
}

func newChainFixture(t testing.TB, n int, chaining bool) *chainFixture {
	g := chainGraph(false)
	f := &chainFixture{}
	f.p = fifoProxy(t, Options{Graph: g, Config: config.Default(g), Upstream: chainUpstream(), DisableChaining: !chaining})
	f.u = f.p.user("10.0.0.1")
	f.list = f.p.sigs.byID["f:list#0"]
	hdr := []httpmsg.Field{{Key: "User-Agent", Value: "okhttp/3"}, {Key: "X-Device", Value: "phone-1"}}
	for _, kind := range []string{"item", "detail"} {
		req := &httpmsg.Request{Method: "GET", Scheme: "http", Host: "bench.example", Path: "/" + kind + "/exemplar", Header: hdr}
		f.p.learn(f.u, f.p.sigs.byID["f:"+kind+"#0"], req, &httpmsg.Response{Status: 200, Body: []byte(`{}`)}, 0, true)
	}
	pad := strings.Repeat("k3", 420)
	for i := 0; i < n; i++ {
		round := fmt.Sprintf("r%d", i)
		var items []string
		for j := 0; j < 8; j++ {
			items = append(items, fmt.Sprintf(`{"id":"%s.%d"}`, round, j))
		}
		f.reqs = append(f.reqs, &httpmsg.Request{Method: "GET", Scheme: "http", Host: "bench.example", Path: "/list",
			Query: []httpmsg.Field{{Key: "id", Value: round}}, Header: hdr[:1]})
		f.resps = append(f.resps, &httpmsg.Response{Status: 200,
			Body: []byte(`{"id":"` + round + `","items":[` + strings.Join(items, ",") + `],"pad":"` + pad + `"}`)})
	}
	return f
}

// round learns the i-th list response and runs everything it spawns.
func (f *chainFixture) round(i int) {
	f.p.learn(f.u, f.list, f.reqs[i], f.resps[i], 0, true)
	f.p.Drain()
}

// TestPrefetchInstanceAllocs pins what one prefetch instance costs the proxy
// itself, network aside: a fresh eight-item list response is learned and its
// eight instances are issued, fetched from a stub upstream on the one FIFO
// worker, and committed — 8 × (materialize, issue, flight, retry layer,
// commit) plus one scan. This change took it from 522 allocations per round
// at the parent (ec34a6d, this same test) to 266, 51 %; the gate leaves room
// for pool drops under -race and a little drift, not for a map, a clone or a
// closure per instance coming back (each is +8), and stays under 60 % of the
// parent's 522.
func TestPrefetchInstanceAllocs(t *testing.T) {
	const runs = 100
	f := newChainFixture(t, runs+2, false)
	f.round(0)
	if got := f.p.Stats().Snapshot().Prefetches; got != 8 {
		t.Fatalf("warm-up round issued %d prefetches, want 8", got)
	}
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		f.round(next)
		next++
	})
	if got := f.p.Stats().Snapshot().Prefetches; got != 8*(runs+2) {
		t.Fatalf("%d prefetches over %d rounds, want 8 each", got, runs+2)
	}
	t.Logf("%.0f allocations per 8-instance round", allocs)
	if allocs > 290 {
		t.Fatalf("one list response + 8 prefetch instances cost %.0f allocations, want 266 (522 at the parent)", allocs)
	}
}

// BenchmarkLearnFanout is one learn_fanout iteration's learning work without
// the network: a list response fans out 8 items, each item response 2
// details — 24 instances and 9 scans per op.
func BenchmarkLearnFanout(b *testing.B) {
	f := newChainFixture(b, b.N+1, true)
	f.round(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		f.round(i)
	}
	b.StopTimer()
	if got, want := f.p.Stats().Snapshot().Prefetches, 24*(b.N+1); got != want {
		b.Fatalf("%d prefetches, want %d", got, want)
	}
}

// TestUpstreamDoesNotFollowRedirects: the origin's 302 is the origin's
// answer. NetUpstream used to sit behind an http.Client, which chased the
// Location and handed the device the target's 200 — bytes the origin never
// sent for that request. A foreground client must see the 302 verbatim, and
// a prefetch of that key is a rejected reconstruction: counted, not cached,
// its claim released.
func TestUpstreamDoesNotFollowRedirects(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.Path)
		mu.Unlock()
		switch r.URL.Path {
		case "/home":
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"next":"a"}`))
		case "/a":
			w.Header().Set("Location", "/b")
			w.WriteHeader(http.StatusFound)
		default:
			w.Write([]byte("the redirect target"))
		}
	}))
	defer origin.Close()
	requests := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen...)
	}

	g := sig.NewGraph("redir")
	g.Add(&sig.Signature{ID: "r:home#0", Method: "GET", URI: sig.Literal("r.example/home")})
	page := &sig.Signature{ID: "r:page#0", Method: "GET",
		URI: sig.Concat(sig.Literal("r.example/"), sig.DepValue("r:home#0", "next"))}
	g.Add(page)
	g.AddDep(sig.Dependency{PredID: "r:home#0", SuccID: page.ID, RespPath: "next", Loc: sig.FieldLoc{Where: "uri", Key: "1"}})
	up := NewNetUpstream(map[string]string{"r.example": origin.Listener.Addr().String()}, nil)
	p := New(Options{Graph: g, Upstream: up, Workers: 1})
	defer p.Close()
	tr := &proxyTransport{p: p, user: "7.7.7.7"}

	// Foreground (and the page exemplar): the 302 passes through untouched.
	resp, err := tr.RoundTrip(&httpmsg.Request{Method: "GET", Host: "r.example", Path: "/a"})
	if err != nil {
		t.Fatal(err)
	}
	if loc, _ := resp.GetHeader("Location"); resp.Status != http.StatusFound || loc != "/b" {
		t.Fatalf("client received %d Location=%q (body %q), want the origin's own 302 to /b", resp.Status, loc, resp.Body)
	}
	if got := requests(); len(got) != 1 || got[0] != "/a" {
		t.Fatalf("origin saw %v for one client request, want [/a]", got)
	}

	// Prefetch: home names "a", the proxy reconstructs /a, the origin says 302.
	if _, err := tr.RoundTrip(&httpmsg.Request{Method: "GET", Host: "r.example", Path: "/home"}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if got := requests(); len(got) != 3 || got[2] != "/a" {
		t.Fatalf("origin saw %v, want the prefetch of /a and never /b", got)
	}
	st := p.Stats().Snapshot().PerSig[page.ID]
	if st.PrefetchRejects != 1 || st.PrefetchErrors != 0 {
		t.Fatalf("prefetch of a redirecting key: %+v, want exactly one PrefetchReject", st)
	}
	if m := p.Cache().Metrics(); m.Entries != 0 {
		t.Fatalf("%d entries cached after a rejected prefetch", m.Entries)
	}
	// The claim is released: the next opportunity re-issues the fetch.
	if _, err := tr.RoundTrip(&httpmsg.Request{Method: "GET", Host: "r.example", Path: "/home"}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if got := requests(); len(got) != 5 || got[4] != "/a" {
		t.Fatalf("origin saw %v: the rejected prefetch still holds its claim", got)
	}
}
