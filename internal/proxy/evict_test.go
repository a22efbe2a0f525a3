package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/cache"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/obs"
	"appx/internal/obs/adminv1"
	"appx/internal/sig"
)

// A list fans out n small responses from a slow origin and n large ones from
// a fast origin into a per-user byte cap that holds a third of their bytes.
// The store must spend the cap on the responses that are slow to refetch:
// every small one is a prefetch hit afterwards, whatever order the prefetches
// landed in. Recency alone keeps whatever came last — the large ones, which
// the scheduler runs last because it runs slow signatures first.
//
// Deterministic: time is a counter the stub origin advances by its service
// time, and one prefetch worker runs the fan-out in sequence.
func TestByteCapKeepsSlowOriginResponses(t *testing.T) {
	const n = 12
	g := sig.NewGraph("t")
	list := &sig.Signature{ID: "t:list#0", Method: "GET", URI: sig.Literal("h.example/list")}
	g.Add(list)
	for _, name := range []string{"api", "img"} {
		succ := &sig.Signature{ID: "t:" + name + "#0", Method: "GET", URI: sig.Literal("h.example/" + name),
			Query: []sig.Field{{Key: "id", Value: sig.DepValue(list.ID, "ids[*]")}}}
		g.Add(succ)
		g.AddDep(sig.Dependency{PredID: list.ID, SuccID: succ.ID, RespPath: "ids[*]",
			Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	}

	var clock atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	small, large := make([]byte, 1<<10), make([]byte, 32<<10)
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		switch r.Path {
		case "/list":
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf(`"%d"`, i+1)
			}
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   []byte(`{"ids":[` + strings.Join(ids, ",") + `]}`)}, nil
		case "/api":
			clock.Add(int64(200 * time.Millisecond))
			return &httpmsg.Response{Status: 200, Body: small}, nil
		}
		clock.Add(int64(4 * time.Millisecond))
		return &httpmsg.Response{Status: 200, Body: large}, nil
	})
	cfg := config.Default(g)
	cfg.Cache = &config.Cache{DisableSharedTier: true, PerUserBytes: n * (1<<10 + 32<<10) / 3}
	p := New(Options{Graph: g, Config: cfg, Upstream: up, Workers: 1,
		Now: func() time.Time { return base.Add(time.Duration(clock.Load())) }})
	defer p.Close()
	pt := &proxyTransport{p: p, user: "9.9.9.9"}
	get := func(path, id string) {
		t.Helper()
		req := &httpmsg.Request{Method: "GET", Host: "h.example", Path: path}
		if id != "" {
			req.Query = []httpmsg.Field{{Key: "id", Value: id}}
		}
		if resp, err := pt.RoundTrip(req); err != nil || resp.Status != 200 {
			t.Fatalf("GET %s?id=%s: %v, %+v", path, id, err, resp)
		}
	}
	// Teach both exemplars (and both origin times), then fan out.
	get("/api", "0")
	get("/img", "0")
	get("/list", "")
	p.Drain()

	if snap := p.Stats().Snapshot(); snap.Prefetches != 2*n {
		t.Fatalf("prefetches = %d, want %d", snap.Prefetches, 2*n)
	}
	for i := 1; i <= n; i++ {
		get("/api", fmt.Sprint(i))
		if sp := p.RecentSpans(1)[0]; sp.Outcome != obs.OutcomePrefetchHit {
			t.Fatalf("/api?id=%d: outcome %v, want prefetch-hit — a slow-origin response was evicted for fast-origin bulk", i, sp.Outcome)
		}
	}
	// The operator's view of the same thing: what was pushed out, and that
	// nobody had asked for it.
	sigs := p.statsV1().Cache.Signatures
	if got := sigs["t:api#0"]; got.Stored != n || got.Evicted != 0 {
		t.Fatalf("cache block for t:api#0 = %+v, want %d stored, none evicted", got, n)
	}
	if got := sigs["t:img#0"]; got.Evicted == 0 || got.EvictedUnused != got.Evicted {
		t.Fatalf("cache block for t:img#0 = %+v, want evictions, all unused", got)
	}
	var text strings.Builder
	p.Registry().WritePrometheus(&text)
	want := fmt.Sprintf("appx_cache_evicted_unused_total %d\n", sigs["t:img#0"].EvictedUnused)
	if !strings.Contains(text.String(), want) {
		t.Fatalf("metrics lack %q", want)
	}
}

// Entries that reach the store without having been fetched here — a
// sibling's shared entry, a disk-tier promotion after a restart — carry no
// miss cost of their own: they take the signature's origin time as this
// instance currently knows it, zero when it has never seen the origin answer,
// and count into the signature's record like any entry stored here.
func TestArrivalsTakeSignatureRespTimeAsCost(t *testing.T) {
	dir := t.TempDir()
	g := sharedGraph()
	up, _ := persistLabUpstream()
	p1 := New(Options{Graph: g, Upstream: up, StateDir: dir})
	trainAndWarm(t, p1)
	p1.DiskTier().Flush()
	p1.Close()

	p2 := New(Options{Graph: g, Upstream: up, StateDir: dir})
	defer p2.Close()
	key := (&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "1"}}}).CanonicalKey()
	pe := &adminv1.ClusterEntry{SigID: "t:item#0", Status: 200, Body: []byte("x"), ExpiresInMs: 1000}
	if e := p2.entryFromPeer(pe); e == nil || e.Cost != 0 {
		t.Fatalf("peer entry of a never-observed signature = %+v, want cost 0", e)
	}
	p2.sigs.byID["t:item#0"].observeRespTime(50 * time.Millisecond)
	if e := p2.entryFromPeer(pe); e == nil || e.Cost != 50*time.Millisecond {
		t.Fatalf("peer entry = %+v, want cost 50ms", e)
	}
	e, fresh := p2.Cache().Get(cache.SharedScope, key)
	if !fresh || p2.DiskTier().Metrics().Hits != 1 {
		t.Fatalf("item 1 not promoted from the disk tier (fresh=%v, tier hits %d)", fresh, p2.DiskTier().Metrics().Hits)
	}
	if e.Cost != 50*time.Millisecond {
		t.Fatalf("promoted entry cost = %v, want the signature's 50ms", e.Cost)
	}
	if c := &p2.sigs.byID["t:item#0"].cache; e.Counts != c || c.Puts.Load() != 1 || c.Hits.Load() != 1 {
		t.Fatalf("promoted entry counts into %p (%d puts, %d hits), want the signature's %p with one of each", e.Counts, c.Puts.Load(), c.Hits.Load(), c)
	}
}

// TestCacheSignatureRows pins every field of the per-signature rows of
// /appx/v1/stats' cache block. On a clock that moves only when the test moves
// it, user B's lists fan out images and docs into a 12 000-byte cap: two
// images and a doc are stored and one of each served, two more images evict
// the unserved image and then the served one, a second doc is stored and is
// found expired a doc lifetime later.
func TestCacheSignatureRows(t *testing.T) {
	img := strings.Repeat("i", 4000)
	var clock atomic.Int64
	clock.Store(time.Unix(1_700_000_000, 0).UnixNano())
	l := newFollowLabWith(t, []edge{{"list", "img", "imgs[*]"}, {"list", "doc", "docs[*]"}}, func(name, id string) string {
		switch {
		case id == "0":
			return `{}`
		case name == "img":
			return img
		case name == "doc":
			return strings.Repeat("d", 1000)
		}
		return map[string]string{
			"1": `{"imgs":["1","2"],"docs":["1"]}`,
			"2": `{"imgs":["3"]}`,
			"3": `{"imgs":["4"]}`,
			"4": `{"docs":["2"]}`,
		}[id]
	}, func(o *Options) {
		o.Now = func() time.Time { return time.Unix(0, clock.Load()) }
		o.Config.Cache.PerUserBytes = 12_000
		o.Config.Policy(o.Graph.Sig("t:doc#0").Hash()).ExpirationTime = config.Duration(time.Minute)
	})
	l.teach("B", "img", "doc")
	for _, step := range []struct {
		name, id string
		want     obs.Outcome
	}{
		{"list", "1", obs.OutcomeOrigin}, // stores img 1, img 2, doc 1
		{"img", "1", obs.OutcomePrefetchHit},
		{"doc", "1", obs.OutcomePrefetchHit},
		{"list", "2", obs.OutcomeOrigin}, // img 3 evicts img 2, never served
		{"list", "3", obs.OutcomeOrigin}, // img 4 evicts img 1, served
		{"list", "4", obs.OutcomeOrigin}, // stores doc 2
	} {
		if got := l.get("B", step.name, step.id); got != step.want {
			t.Fatalf("%s?%s: outcome %v, want %v", step.name, step.id, got, step.want)
		}
		l.p.Drain()
	}
	// img 2 was charged what img 3 is: the same body, headers and key length.
	r := httptest.NewRequest("GET", "http://h.example/img?id=3", nil)
	r.RemoteAddr = "B:1"
	req, err := httpmsg.FromHTTPLimited(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	e3, ok := l.p.store.Peek("B", req.CanonicalKey())
	if !ok {
		t.Fatal("img 3 is not resident")
	}
	probe := cache.New(cache.Options{})
	probe.Put("B", req.CanonicalKey(), &cache.Entry{Resp: e3.Resp, Expires: time.Unix(1<<40, 0)})
	_, imgBytes := probe.ScopeStats("B")
	if imgBytes <= int64(len(img)) {
		t.Fatalf("an image entry is charged %d bytes, want more than its %d-byte body", imgBytes, len(img))
	}

	clock.Add(int64(2 * time.Minute))
	if got := l.get("B", "doc", "2"); got != obs.OutcomeOrigin {
		t.Fatalf("doc?2 after its lifetime: outcome %v, want a forwarded miss", got)
	}
	rec := httptest.NewRecorder()
	l.p.ServeHTTP(rec, httptest.NewRequest("GET", adminv1.PathStats, nil))
	var stats adminv1.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	want := map[string]adminv1.CacheSignature{
		"t:img#0": {Stored: 4, Hits: 1, Evicted: 2, EvictedUnused: 1, EvictedUnusedBytes: imgBytes},
		"t:doc#0": {Stored: 2, Hits: 1, Expired: 1},
	}
	if got := stats.Cache.Signatures; !reflect.DeepEqual(got, want) {
		t.Fatalf("cache signature rows\n got %+v\nwant %+v", got, want)
	}
}

// The expired and budget series of appx_cache_evictions_total read the
// store's eviction counters without its shard locks, and say what Metrics
// says after both kinds of eviction.
func TestEvictionBridgesMatchMetrics(t *testing.T) {
	g := followGraph([]edge{{"list", "img", "imgs[*]"}})
	cfg := config.Default(g)
	cfg.Cache = &config.Cache{MaxBytes: 4 << 10, DisableSharedTier: true}
	var clock atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	p := New(Options{Graph: g, Config: cfg, Workers: 1,
		Now: func() time.Time { return base.Add(time.Duration(clock.Load())) }})
	defer p.Close()
	for i := 0; i < 6; i++ { // 6 KiB into a 4 KiB budget
		p.store.Put(fmt.Sprint("u", i), "k", &cache.Entry{SigID: "t:img#0", Expires: base.Add(time.Second),
			Resp: &httpmsg.Response{Status: 200, Body: make([]byte, 1<<10)}})
	}
	clock.Store(int64(2 * time.Second))
	for i := 0; i < 6; i++ {
		p.store.Get(fmt.Sprint("u", i), "k")
	}
	ev := p.store.Metrics().Evictions
	if ev.Budget == 0 || ev.Expired == 0 {
		t.Fatalf("evictions %+v: want both budget and expiry ones", ev)
	}
	var text strings.Builder
	p.Registry().WritePrometheus(&text)
	for _, want := range []string{
		fmt.Sprintf("appx_cache_evictions_total{cause=\"expired\"} %d\n", ev.Expired),
		fmt.Sprintf("appx_cache_evictions_total{cause=\"budget\"} %d\n", ev.Budget),
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("metrics lack %q", want)
		}
	}
}
