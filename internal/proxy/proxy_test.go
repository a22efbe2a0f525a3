package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"appx/internal/apps"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/interp"
	"appx/internal/jsonpath"
	"appx/internal/obs/adminv1"
	"appx/internal/sig"
	"appx/internal/static"
)

// originUpstream routes requests to in-process app origin handlers.
type originUpstream struct {
	handler http.Handler
	mu      sync.Mutex
	calls   []*httpmsg.Request
}

func (o *originUpstream) recorded() []*httpmsg.Request {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*httpmsg.Request(nil), o.calls...)
}

func (o *originUpstream) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	o.mu.Lock()
	o.calls = append(o.calls, r.Clone())
	o.mu.Unlock()
	hreq, err := r.ToHTTP()
	if err != nil {
		return nil, err
	}
	hreq.Host = r.Host
	rec := httptest.NewRecorder()
	o.handler.ServeHTTP(rec, hreq)
	return httpmsg.FromHTTPResponse(rec.Result())
}

// lab wires an app, its analyzed graph, a proxy, and an interpreter-backed
// client together, all in process.
type lab struct {
	t     *testing.T
	app   *apps.App
	graph *sig.Graph
	cfg   *config.Config
	proxy *Proxy
	env   *interp.Env
	up    *originUpstream
}

// proxyTransport sends the client's requests through proxy.ServeHTTP.
type proxyTransport struct {
	p    *Proxy
	user string
}

func (pt *proxyTransport) RoundTrip(r *httpmsg.Request) (*httpmsg.Response, error) {
	hreq, err := r.ToHTTP()
	if err != nil {
		return nil, err
	}
	hreq.Host = r.Host
	hreq.RemoteAddr = pt.user + ":12345"
	rec := httptest.NewRecorder()
	pt.p.ServeHTTP(rec, hreq)
	return httpmsg.FromHTTPResponse(rec.Result())
}

func newLab(t *testing.T, app *apps.App, mutate func(*config.Config)) *lab {
	t.Helper()
	g, err := static.Analyze(app.APK.Program, app.Name, app.APK.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	cfg := config.Default(g)
	if mutate != nil {
		mutate(cfg)
	}
	up := &originUpstream{handler: app.Handler(0)}
	p := New(Options{Graph: g, Config: cfg, Upstream: up})
	t.Cleanup(p.Close)
	env := interp.NewEnv(app.APK.Program, &proxyTransport{p: p, user: "10.0.0.1"}, interp.DeviceProps{
		UserAgent: "AppxTest/1.0", Locale: "en-US", AppVersion: app.APK.Manifest.Version,
	})
	return &lab{t: t, app: app, graph: g, cfg: cfg, proxy: p, env: env, up: up}
}

func (l *lab) call(method string, args ...interp.Value) {
	l.t.Helper()
	if _, err := l.env.Call(method, args...); err != nil {
		l.t.Fatalf("%s: %v", method, err)
	}
}

func TestWishDetailPrefetchHit(t *testing.T) {
	l := newLab(t, apps.Wish(), nil)
	l.call("WishMain.launch")
	l.proxy.Drain()
	// First detail view teaches the proxy the run-time values (miss).
	l.call("WishMain.onSelectItem", "0")
	l.proxy.Drain()
	before := l.proxy.Stats().Snapshot()
	// Second detail view: the proxy prefetched all 30 details after
	// learning, so this must hit.
	l.call("WishMain.onSelectItem", "7")
	after := l.proxy.Stats().Snapshot()
	if after.Hits <= before.Hits {
		t.Fatalf("no cache hits on second detail view: before=%d after=%d", before.Hits, after.Hits)
	}
}

func TestThumbnailPrefetchDuringLaunch(t *testing.T) {
	// Figure 3(a): the feed response spawns one thumbnail instance per item;
	// the first live thumbnail supplies the exemplar, after which the
	// remaining instances are prefetched while the client is still loading.
	l := newLab(t, apps.Wish(), nil)
	l.call("WishMain.launch")
	l.proxy.Drain()
	snap := l.proxy.Stats().Snapshot()
	if snap.Prefetches == 0 {
		t.Fatal("no prefetches after launch")
	}
	var thumbPrefetches int
	for id, st := range snap.PerSig {
		if st.Prefetches > 0 && id == "wish:WishMain.loadThumb#0" {
			thumbPrefetches = st.Prefetches
		}
	}
	if thumbPrefetches < 25 {
		t.Fatalf("thumbnail prefetches = %d, want ~30", thumbPrefetches)
	}
}

func TestHitResponseIdenticalToOrigin(t *testing.T) {
	// R3: a prefetched response served to the client is byte-identical to
	// what the origin would have returned.
	l := newLab(t, apps.Wish(), nil)
	l.call("WishMain.launch")
	l.call("WishMain.onSelectItem", "0")
	l.proxy.Drain()

	// Ask the origin directly for item 2's detail, mirroring the app's
	// exact request, then compare with what the proxy serves.
	direct := &originUpstream{handler: l.app.Handler(0)}
	var clientResp, originResp *httpmsg.Response
	pt := &proxyTransport{p: l.proxy, user: "10.0.0.1"}

	// Build the app's request for item 2 by replaying through a fresh env
	// that records the transaction (same cookie jar state via launch+select).
	env2 := interp.NewEnv(l.app.APK.Program, interp.TransportFunc(func(r *httpmsg.Request) (*httpmsg.Response, error) {
		resp, err := pt.RoundTrip(r)
		if err == nil && r.Path == "/product/get" {
			clientResp = resp
			originResp, _ = direct.RoundTrip(context.Background(), r)
		}
		return resp, err
	}), interp.DeviceProps{UserAgent: "AppxTest/1.0", Locale: "en-US", AppVersion: l.app.APK.Manifest.Version})
	if _, err := env2.Call("WishMain.launch"); err != nil {
		t.Fatal(err)
	}
	if _, err := env2.Call("WishMain.onSelectItem", "2"); err != nil {
		t.Fatal(err)
	}
	if clientResp == nil || originResp == nil {
		t.Fatal("detail transaction not captured")
	}
	if !bytes.Equal(clientResp.Body, originResp.Body) {
		t.Fatal("served body differs from origin body")
	}
}

func TestChainedPrefetchDoorDash(t *testing.T) {
	// Figure 3(c)/11: after the store list arrives, the proxy prefetches
	// store → menu → items → suggestions recursively.
	l := newLab(t, apps.DoorDash(), nil)
	l.call("DDMain.launch")
	l.call("DDMain.onSelectStore", "0") // teaches exemplars for the chain
	l.call("DDStore.onSelectItem", "0")
	l.proxy.Drain()
	snap := l.proxy.Stats().Snapshot()
	// The chain must have prefetched menus (store fan-out) and suggestions
	// (depth >= 2 from the store response).
	sawMenu, sawSuggest := false, false
	for id, st := range snap.PerSig {
		if st.Prefetches > 0 {
			switch {
			case contains(id, "DDStore.open#2"):
				sawMenu = true
			case contains(id, "DDItem.open#1"):
				sawSuggest = true
			}
		}
	}
	if !sawMenu {
		t.Errorf("menu not prefetched; snapshot: %+v", snap.PerSig)
	}
	if !sawSuggest {
		t.Errorf("suggestion not prefetched (chain depth); snapshot: %+v", snap.PerSig)
	}
	// And a second store view must now hit.
	before := snap.Hits
	l.call("DDMain.onSelectStore", "3")
	if after := l.proxy.Stats().Snapshot().Hits; after <= before {
		t.Fatalf("second store view did not hit: %d -> %d", before, after)
	}
}

func contains(s, sub string) bool {
	return bytes.Contains([]byte(s), []byte(sub))
}

func TestDisablePrefetchBaseline(t *testing.T) {
	g, _ := static.Analyze(apps.Wish().APK.Program, "wish", apps.Wish().APK.Entries(), static.Options{Features: static.AllFeatures()})
	up := &originUpstream{handler: apps.Wish().Handler(0)}
	p := New(Options{Graph: g, Upstream: up, DisablePrefetch: true})
	defer p.Close()
	env := interp.NewEnv(apps.Wish().APK.Program, &proxyTransport{p: p, user: "1.1.1.1"}, interp.DeviceProps{UserAgent: "x", AppVersion: "4.13.0"})
	if _, err := env.Call("WishMain.launch"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Call("WishMain.onSelectItem", "1"); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	snap := p.Stats().Snapshot()
	if snap.Prefetches != 0 || snap.Hits != 0 {
		t.Fatalf("baseline proxy prefetched: %+v", snap)
	}
}

func TestPolicyDisablesSignature(t *testing.T) {
	app := apps.Wish()
	l := newLab(t, app, func(c *config.Config) {
		for _, pol := range c.Policies {
			pol.Prefetch = false
		}
	})
	l.call("WishMain.launch")
	l.call("WishMain.onSelectItem", "0")
	l.proxy.Drain()
	if snap := l.proxy.Stats().Snapshot(); snap.Prefetches != 0 {
		t.Fatalf("prefetches = %d despite prefetch:false", snap.Prefetches)
	}
}

func TestGlobalProbabilityZero(t *testing.T) {
	l := newLab(t, apps.Wish(), func(c *config.Config) { c.GlobalProbability = -1 })
	// -1 clamps to 0 via EffectiveProbability.
	l.call("WishMain.launch")
	l.proxy.Drain()
	if snap := l.proxy.Stats().Snapshot(); snap.Prefetches != 0 {
		t.Fatalf("prefetches = %d with probability 0", snap.Prefetches)
	}
}

func TestDataBudgetStopsPrefetching(t *testing.T) {
	l := newLab(t, apps.Wish(), func(c *config.Config) { c.DataBudgetBytes = 100_000 })
	l.call("WishMain.launch")
	l.proxy.Drain()
	used := l.proxy.DataUsedBytes()
	// The budget is checked before issue, so usage may overshoot by at most
	// the in-flight prefetches (workers), each <= ~315KB.
	if used > 100_000+8*320_000 {
		t.Fatalf("data budget wildly exceeded: %d", used)
	}
	snap := l.proxy.Stats().Snapshot()
	if snap.Prefetches >= 30 {
		t.Fatalf("budget did not curb prefetching: %d prefetches", snap.Prefetches)
	}
}

func TestAddHeaderReachesOriginButNotCacheKey(t *testing.T) {
	l := newLab(t, apps.Wish(), func(c *config.Config) {
		for _, pol := range c.Policies {
			pol.AddHeader = []config.Header{{Key: "X-Proxy", Value: "prefetch"}}
		}
	})
	l.call("WishMain.launch")
	l.call("WishMain.onSelectItem", "0")
	l.proxy.Drain()
	// Origin must have seen tagged prefetch requests.
	sawTag := false
	for _, r := range l.up.recorded() {
		if v, ok := r.GetHeader("X-Proxy"); ok && v == "prefetch" {
			sawTag = true
		}
	}
	if !sawTag {
		t.Fatal("origin never saw the prefetch indicator header")
	}
	// Despite the tag, a clean client request still hits.
	before := l.proxy.Stats().Snapshot().Hits
	l.call("WishMain.onSelectItem", "9")
	if after := l.proxy.Stats().Snapshot().Hits; after <= before {
		t.Fatal("tagged prefetch did not produce a clean-key cache hit")
	}
}

func TestConditionGatesPrefetch(t *testing.T) {
	// Condition on a field the feed response does not satisfy: no detail
	// prefetching.
	l := newLab(t, apps.Wish(), func(c *config.Config) {
		for _, pol := range c.Policies {
			pol.Condition = &config.Condition{Field: "data.products[*].aspect_rat", Op: "gt", Value: "100"}
		}
	})
	l.call("WishMain.launch")
	l.call("WishMain.onSelectItem", "0")
	l.proxy.Drain()
	if snap := l.proxy.Stats().Snapshot(); snap.Prefetches != 0 {
		t.Fatalf("prefetches = %d despite failing condition", snap.Prefetches)
	}
}

func TestExpiryPreventsStaleServing(t *testing.T) {
	now := time.Now()
	clock := &now
	l := newLab(t, apps.Wish(), func(c *config.Config) {
		c.DefaultExpiration = config.Duration(time.Second)
	})
	l.proxy.opts.Now = func() time.Time { return *clock }
	l.call("WishMain.launch")
	l.call("WishMain.onSelectItem", "0")
	l.proxy.Drain()

	// Within expiry: hit.
	before := l.proxy.Stats().Snapshot()
	l.call("WishMain.onSelectItem", "5")
	mid := l.proxy.Stats().Snapshot()
	if mid.Hits <= before.Hits {
		t.Fatal("expected hit within expiry window")
	}
	// Advance the clock past expiry: the detail request must miss its
	// (now stale) prefetched entry. Assert on the detail signature, not the
	// proxy-wide hit counter — the live detail response legitimately fires
	// fresh image prefetches that can race the interaction's own image
	// requests and produce non-stale hits.
	now = now.Add(time.Hour)
	detailSig := "wish:WishDetail.open#0"
	l.call("WishMain.onSelectItem", "6")
	after := l.proxy.Stats().Snapshot()
	if after.PerSig[detailSig].Hits != mid.PerSig[detailSig].Hits {
		t.Fatalf("stale detail entry served after expiry: hits %d -> %d",
			mid.PerSig[detailSig].Hits, after.PerSig[detailSig].Hits)
	}
	if after.PerSig[detailSig].Misses <= mid.PerSig[detailSig].Misses {
		t.Fatal("expired detail request did not miss")
	}
}

func TestUsersIsolated(t *testing.T) {
	l := newLab(t, apps.Wish(), nil)
	l.call("WishMain.launch")
	l.call("WishMain.onSelectItem", "0")
	l.proxy.Drain()
	// User 1 has every item detail cached. A different user's *first*
	// detail view must still miss (per-user caches) — though their own
	// launch legitimately produces thumbnail hits from their own prefetches.
	env2 := interp.NewEnv(l.app.APK.Program, &proxyTransport{p: l.proxy, user: "10.0.0.99"}, interp.DeviceProps{
		UserAgent: "OtherUA/2.0", Locale: "fr-FR", AppVersion: l.app.APK.Manifest.Version,
	})
	detailSig := "wish:WishDetail.open#0"
	before := l.proxy.Stats().Snapshot().PerSig[detailSig]
	if _, err := env2.Call("WishMain.launch"); err != nil {
		t.Fatal(err)
	}
	if _, err := env2.Call("WishMain.onSelectItem", "3"); err != nil {
		t.Fatal(err)
	}
	after := l.proxy.Stats().Snapshot().PerSig[detailSig]
	if after.Hits != before.Hits {
		t.Fatalf("cross-user detail cache hit: %d -> %d", before.Hits, after.Hits)
	}
	if after.Misses <= before.Misses {
		t.Fatalf("user 2's detail view did not reach the origin: misses %d -> %d", before.Misses, after.Misses)
	}
}

// --- unit tests for learning primitives ---

func mkSig() *sig.Signature {
	return &sig.Signature{
		ID:     "t:succ#0",
		Method: "POST",
		URI:    sig.Concat(sig.Wildcard("host"), sig.Literal("/product/get")),
		Header: []sig.Field{
			{Key: "Cookie", Value: sig.Wildcard("cookie")},
		},
		BodyKind: httpmsg.BodyForm,
		BodyForm: []sig.Field{
			{Key: "cid", Value: sig.DepValue("t:pred#0", "items[*].id")},
			{Key: "_client", Value: sig.Literal("android")},
			{Key: "credit_id", Value: sig.Wildcard("branch"), Optional: true},
		},
	}
}

func TestMaterializeWithoutExemplarBlocksOnWilds(t *testing.T) {
	s := mkSig()
	_, ok := materialize(succFor(t, s, "t:pred#0"), []string{"x1"}, nil)
	if ok {
		t.Fatal("materialized despite unresolved wildcards")
	}
}

func TestMaterializeWithExemplar(t *testing.T) {
	s := mkSig()
	live := &httpmsg.Request{
		Method: "POST", Host: "api.wish.example", Path: "/product/get",
		Header:   []httpmsg.Field{{Key: "Cookie", Value: "bsid=42"}},
		BodyKind: httpmsg.BodyForm,
		BodyForm: []httpmsg.Field{
			{Key: "cid", Value: "zzz"},
			{Key: "_client", Value: "android"},
			// credit_id absent: instance class without it.
		},
	}
	sp := succFor(t, s, "t:pred#0")
	ex := sp.st.learnExemplar(live)
	if ex == nil {
		t.Fatal("learnExemplar returned nil")
	}
	req, ok := materialize(sp, []string{"x1"}, ex)
	if !ok {
		t.Fatal("materialize failed with exemplar")
	}
	if req.Host != "api.wish.example" || req.Path != "/product/get" {
		t.Fatalf("URI = %s%s", req.Host, req.Path)
	}
	if v, _ := req.GetForm("cid"); v != "x1" {
		t.Fatalf("cid = %q", v)
	}
	if v, _ := req.GetHeader("Cookie"); v != "bsid=42" {
		t.Fatalf("cookie = %q", v)
	}
	if _, present := req.GetForm("credit_id"); present {
		t.Fatal("optional field included despite absent in exemplar")
	}

	// Now an exemplar in the other instance class (credit_id present).
	live2 := live.Clone()
	live2.SetForm("credit_id", "cc-99")
	ex2 := sp.st.learnExemplar(live2)
	req2, ok := materialize(sp, []string{"x2"}, ex2)
	if !ok {
		t.Fatal("materialize failed with exemplar 2")
	}
	if v, present := req2.GetForm("credit_id"); !present || v != "cc-99" {
		t.Fatalf("credit_id = %q %v, want learned value", v, present)
	}
}

func TestLearnExemplarRejectsMismatch(t *testing.T) {
	s := mkSig()
	wrong := &httpmsg.Request{Method: "POST", Host: "api.wish.example", Path: "/other"}
	if ex := succFor(t, s, "t:pred#0").st.learnExemplar(wrong); ex != nil {
		t.Fatal("exemplar learned from non-matching request")
	}
}

// scanOf reads the given paths out of a JSON document, as learn does.
func scanOf(t *testing.T, body string, paths ...string) [][]string {
	t.Helper()
	parsed := make([]jsonpath.Path, len(paths))
	for i, p := range paths {
		parsed[i] = jsonpath.MustParse(p)
	}
	scan, err := jsonpath.Scan([]byte(body), parsed)
	if err != nil {
		t.Fatal(err)
	}
	return scan
}

func TestDepCombosFanOut(t *testing.T) {
	scan := scanOf(t, `{"items":[{"id":"a"},{"id":"b"},{"id":"c"}],"k":["x","y"]}`, "items[*].id", "k[*]")
	insts := depValues(scan, []int{0})
	if len(insts) != 3 {
		t.Fatalf("instances = %d, want 3", len(insts))
	}
	if insts[1][0] != "b" {
		t.Fatalf("instance order wrong: %v", insts)
	}
	// Two paths: the cartesian product, the last path varying fastest.
	got := fmt.Sprint(depValues(scan, []int{0, 1}))
	if want := "[[a x] [a y] [b x] [b y] [c x] [c y]]"; got != want {
		t.Fatalf("product = %s, want %s", got, want)
	}
}

func TestDepCombosCartesianCapped(t *testing.T) {
	items := strings.Repeat(`{"id":"x"},`, 99) + `{"id":"x"}`
	scan := scanOf(t, `{"items":[`+items+`],"k":["p","q","r"]}`, "items[*].id", "k[*]")
	if n := len(depValues(scan, []int{0})); n != maxFanOut {
		t.Fatalf("fan-out not capped: %d", n)
	}
	// Capped across paths too, keeping the first maxFanOut of the product.
	insts := depValues(scan, []int{1, 0})
	if len(insts) != maxFanOut || insts[maxFanOut-1][0] != "p" {
		t.Fatalf("capped product = %d instances, last %v", len(insts), insts[len(insts)-1])
	}
}

func TestDepCombosMissingPath(t *testing.T) {
	scan := scanOf(t, `{"items":[{"id":"a"}]}`, "items[*].id", "nope.id")
	if insts := depValues(scan, []int{0, 1}); insts != nil {
		t.Fatalf("instances = %v, want nil", insts)
	}
	// A path whose text never parsed reads as position -1.
	if insts := depValues(scan, []int{0, -1}); insts != nil {
		t.Fatalf("instances = %v, want nil", insts)
	}
}

func TestResolvePatternOtherPredUsesExemplarSlot(t *testing.T) {
	s := &sig.Signature{ID: "t:s#0", Method: "GET", URI: sig.Literal("h.example/s"),
		Query: []sig.Field{
			{Key: "q", Value: sig.DepValue("this:pred#0", "a")},
			{Key: "k", Value: sig.Concat(sig.Literal("k="), sig.DepValue("other:pred#0", "x.y"))},
		}}
	p := planFor(t, s, "this:pred#0").Query[1].Value
	got, ok := resolve(p, []string{"unused"}, []string{"learned"})
	if !ok || got != "k=learned" {
		t.Fatalf("resolve = %q, %v", got, ok)
	}
}

// TestMultiAppProxy: one proxy instance accelerating two apps at once (§2:
// "the proxy can accelerate multiple target apps").
func TestMultiAppProxy(t *testing.T) {
	wish, geek := apps.Wish(), apps.Geek()
	gw, err := static.Analyze(wish.APK.Program, wish.Name, wish.APK.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		t.Fatal(err)
	}
	gg, err := static.Analyze(geek.APK.Program, geek.Name, geek.APK.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		t.Fatal(err)
	}
	merged := sig.Merge(gw, gg)

	// Route upstream by host across both apps' origins.
	wh, gh := wish.Handler(0), geek.Handler(0)
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		h := wh
		if strings.Contains(r.Host, "geek") {
			h = gh
		}
		return httpmsg.ServeViaHandler(h, r)
	})
	p := New(Options{Graph: merged, Upstream: up})
	defer p.Close()

	drive := func(a *apps.App, user, selector string) {
		env := interp.NewEnv(a.APK.Program, &proxyTransport{p: p, user: user}, interp.DeviceProps{
			UserAgent: "Multi/1.0", AppVersion: a.APK.Manifest.Version,
		})
		if _, err := env.Call(a.APK.Manifest.LaunchHandler); err != nil {
			t.Fatal(err)
		}
		if _, err := env.Call(selector, "0"); err != nil {
			t.Fatal(err)
		}
		p.Drain()
		if _, err := env.Call(selector, "2"); err != nil {
			t.Fatal(err)
		}
	}
	drive(wish, "10.1.0.1", "WishMain.onSelectItem")
	drive(geek, "10.1.0.2", "GeekMain.onSelectItem")

	snap := p.Stats().Snapshot()
	wishHits, geekHits := 0, 0
	for id, st := range snap.PerSig {
		if strings.HasPrefix(id, "wish:") {
			wishHits += st.Hits
		}
		if strings.HasPrefix(id, "geek:") {
			geekHits += st.Hits
		}
	}
	if wishHits == 0 || geekHits == 0 {
		t.Fatalf("multi-app hits: wish=%d geek=%d", wishHits, geekHits)
	}
}

func TestCacheBoundEviction(t *testing.T) {
	g := sig.NewGraph("t")
	pred := &sig.Signature{ID: "t:pred#0", Method: "GET", URI: sig.Literal("h.example/list")}
	succ := &sig.Signature{ID: "t:succ#0", Method: "GET", URI: sig.Literal("h.example/item"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue("t:pred#0", "ids[*]")}}}
	g.Add(pred)
	g.Add(succ)
	g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: succ.ID, RespPath: "ids[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})

	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/list" {
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   []byte(`{"ids":["1","2","3","4","5","6","7","8"]}`)}, nil
		}
		return &httpmsg.Response{Status: 200, Body: []byte(`{}`)}, nil
	})
	// The fan-out signature has no per-user values, so it would normally be
	// shared-eligible; disable the shared tier so entries land in the user
	// scope and the per-user cap is what's exercised.
	cfg := config.Default(g)
	cfg.Cache = &config.Cache{DisableSharedTier: true}
	p := New(Options{Graph: g, Config: cfg, Upstream: up, MaxCacheEntriesPerUser: 4})
	defer p.Close()
	pt := &proxyTransport{p: p, user: "9.9.9.9"}
	// Teach the successor exemplar, then trigger the 8-way fan-out.
	if _, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "0"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/list"}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	n, _ := p.Cache().ScopeStats("9.9.9.9")
	if n > 4 {
		t.Fatalf("cache grew to %d entries, bound is 4", n)
	}
	if ev := p.Cache().Metrics().Evictions.ScopeEntries; ev == 0 {
		t.Fatal("no entry-cap evictions counted")
	}
	if snap := p.Stats().Snapshot(); snap.Prefetches < 8 {
		t.Fatalf("prefetches = %d, want 8 (eviction, not suppression)", snap.Prefetches)
	}
}

func TestUserPruning(t *testing.T) {
	g := sig.NewGraph("t")
	g.Add(&sig.Signature{ID: "a", Method: "GET", URI: sig.Literal("h/x")})
	now := time.Now()
	clock := &now
	p := New(Options{Graph: g,
		Upstream: UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
			return &httpmsg.Response{Status: 200}, nil
		}),
		Now: func() time.Time { return *clock },
	})
	defer p.Close()
	p.user("u1")
	p.user("u2")
	now = now.Add(10 * time.Minute)
	p.user("u3")
	if got := p.PruneUsers(5 * time.Minute); got != 2 {
		t.Fatalf("pruned %d users, want 2", got)
	}
	if p.UserCount() != 1 {
		t.Fatalf("users = %d, want 1", p.UserCount())
	}
}

func TestMaxUsersEviction(t *testing.T) {
	g := sig.NewGraph("t")
	p := New(Options{Graph: g,
		Upstream: UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
			return &httpmsg.Response{Status: 200}, nil
		}),
	})
	defer p.Close()
	for i := 0; i < maxUsers+7; i++ {
		p.user(fmt.Sprint(i))
	}
	if got := p.UserCount(); got != maxUsers {
		t.Fatalf("users = %d, bound %d", got, maxUsers)
	}
}

func TestPerUserProbabilityTiering(t *testing.T) {
	// §4.4 service differentiation: the premium user gets prefetching, the
	// free tier (probability 0) does not.
	l := newLab(t, apps.Wish(), func(c *config.Config) {
		c.UserProbability = map[string]float64{"free-user": 0}
	})
	// Premium flow (default probability 1).
	l.call("WishMain.launch")
	l.call("WishMain.onSelectItem", "0")
	l.proxy.Drain()
	premiumPre := l.proxy.Stats().Snapshot().Prefetches
	if premiumPre == 0 {
		t.Fatal("premium user got no prefetching")
	}
	// Free-tier flow.
	env := interp.NewEnv(l.app.APK.Program, &proxyTransport{p: l.proxy, user: "free-user"}, interp.DeviceProps{
		UserAgent: "Free/1.0", AppVersion: l.app.APK.Manifest.Version,
	})
	if _, err := env.Call("WishMain.launch"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Call("WishMain.onSelectItem", "0"); err != nil {
		t.Fatal(err)
	}
	l.proxy.Drain()
	if after := l.proxy.Stats().Snapshot().Prefetches; after != premiumPre {
		t.Fatalf("free-tier user triggered prefetches: %d -> %d", premiumPre, after)
	}
}

func TestDisableChainingStopsRecursivePrefetch(t *testing.T) {
	app := apps.DoorDash()
	g, err := static.Analyze(app.APK.Program, app.Name, app.APK.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		t.Fatal(err)
	}
	up := &originUpstream{handler: app.Handler(0)}
	p := New(Options{Graph: g, Upstream: up, DisableChaining: true})
	defer p.Close()
	env := interp.NewEnv(app.APK.Program, &proxyTransport{p: p, user: "nochain"}, interp.DeviceProps{
		UserAgent: "NC/1.0", AppVersion: app.APK.Manifest.Version,
	})
	if _, err := env.Call("DDMain.launch"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Call("DDMain.onSelectStore", "0"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Call("DDStore.onSelectItem", "0"); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	snap := p.Stats().Snapshot()
	// Store info is prefetched (direct successor of the live store list),
	// but the menu — whose dependency values live in *prefetched* store
	// responses — must not be.
	if st := snap.PerSig["doordash:DDStore.open#0"]; st.Prefetches == 0 {
		t.Fatal("direct successor not prefetched")
	}
	menu := snap.PerSig["doordash:DDStore.open#2"]
	// One menu prefetch is legitimate (from the LIVE store response of the
	// user's own visit); the chain would have produced ~16.
	if menu.Prefetches > 3 {
		t.Fatalf("menu prefetches = %d despite chaining disabled", menu.Prefetches)
	}
}

func TestStatusSurface(t *testing.T) {
	l := newLab(t, apps.Wish(), nil)
	l.call("WishMain.launch")
	l.proxy.Drain()

	get := func(path string) (*httptest.ResponseRecorder, *http.Request) {
		req := httptest.NewRequest("GET", path, nil) // origin-form: URL.Host empty
		rec := httptest.NewRecorder()
		l.proxy.ServeHTTP(rec, req)
		return rec, req
	}
	rec, _ := get("/healthz")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "signatures") {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
	rec, _ = get(adminv1.PathStats)
	if rec.Code != 200 {
		t.Fatalf("stats = %d", rec.Code)
	}
	var stats adminv1.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if stats.Prefetches <= 0 {
		t.Fatalf("stats prefetches = %d", stats.Prefetches)
	}
	// The span-derived request block covers the proxied traffic: every
	// request that flowed through ServeHTTP finished exactly one span.
	if stats.Requests.Total == 0 || len(stats.Requests.Outcomes) == 0 {
		t.Fatalf("stats requests block empty: %+v", stats.Requests)
	}
	// The pre-versioning paths are gone: only /appx/v1 answers.
	for _, legacy := range []string{"/appx/stats", "/appx/health"} {
		if rec, _ = get(legacy); rec.Code != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", legacy, rec.Code)
		}
	}
	// /appx/v1/metrics serves the Prometheus text exposition.
	rec, _ = get(adminv1.PathMetrics)
	if rec.Code != 200 || !strings.Contains(rec.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE appx_requests_total counter",
		"# TYPE appx_request_duration_seconds histogram",
		`appx_sched_submitted_total{class="shallow"}`,
		"appx_cache_hits_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
	if strings.Contains(body, `class="foreground"`) {
		t.Fatal("metrics exposition carries a foreground scheduler class")
	}
	// /appx/v1/spans returns the recent span ring, newest first.
	rec, _ = get(adminv1.PathSpans + "?n=8")
	if rec.Code != 200 {
		t.Fatalf("spans = %d", rec.Code)
	}
	var spans adminv1.SpansResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatalf("spans not JSON: %v", err)
	}
	if spans.Total == 0 || len(spans.Spans) == 0 {
		t.Fatalf("spans empty: total=%d n=%d", spans.Total, len(spans.Spans))
	}
	if spans.Spans[0].Outcome == "" || spans.Spans[0].WallMs < 0 {
		t.Fatalf("span malformed: %+v", spans.Spans[0])
	}
	rec, _ = get("/nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown endpoint = %d", rec.Code)
	}
}

// Steady state: a literal-URI client request repeated after warm-up must be
// answered entirely by the exact match level — zero regex evaluations.
func TestSteadyStateLiteralZeroRegex(t *testing.T) {
	l := newLab(t, apps.Wish(), nil)
	l.call("WishMain.launch")
	l.proxy.Drain()
	before := l.graph.MatchTelemetry()
	l.call("WishMain.launch")
	l.proxy.Drain()
	after := l.graph.MatchTelemetry()
	if after.Lookups <= before.Lookups {
		t.Fatal("second launch performed no signature lookups")
	}
	if d := after.RegexEvals - before.RegexEvals; d != 0 {
		t.Fatalf("steady-state literal requests cost %d regex evaluations, want 0", d)
	}
	if after.ExactHits <= before.ExactHits {
		t.Fatal("literal feed request did not hit the exact match level")
	}
}

// /appx/v1/stats exposes the match-index telemetry counters.
func TestStatsMatchIndexTelemetry(t *testing.T) {
	l := newLab(t, apps.Wish(), nil)
	l.call("WishMain.launch")
	l.proxy.Drain()
	req := httptest.NewRequest("GET", adminv1.PathStats, nil)
	rec := httptest.NewRecorder()
	l.proxy.ServeHTTP(rec, req)
	var stats adminv1.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if stats.MatchIndex.Lookups <= 0 {
		t.Fatalf("matchIndex lookups = %d, want > 0", stats.MatchIndex.Lookups)
	}
}
