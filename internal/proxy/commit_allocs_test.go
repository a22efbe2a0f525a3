package proxy

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/cache"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/obs"
)

// commitFixture is a proxy over list → img on a clock that steps a second
// per read, behind a fake upstream that answers every img with the same
// 8 KiB body under a strong ETag and a matching If-None-Match with a 304.
// commit runs one prefetch of user B's img?1 to its Put on the calling
// goroutine; B's previous entry has expired by then, so every run stores.
// With twin set, user A holds the image for the whole test and each run is a
// revalidated commit.
func commitFixture(t *testing.T, twin bool) (p *Proxy, commit func()) {
	t.Helper()
	g := followGraph([]edge{{"list", "img", "imgs[*]"}})
	cfg := config.Default(g)
	cfg.Cache = &config.Cache{DisableSharedTier: true}
	var clock atomic.Int64
	clock.Store(time.Unix(1_700_000_000, 0).UnixNano())
	now := func() time.Time { return time.Unix(0, clock.Add(int64(time.Second))) }
	body := make([]byte, 8<<10)
	tag := strongTag(body)
	p = New(Options{Graph: g, Config: cfg, Workers: 1, Now: now,
		Upstream: UpstreamFunc(func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
			if inm, _ := r.GetHeader("If-None-Match"); inm == tag {
				return &httpmsg.Response{Status: 304, Header: []httpmsg.Field{{Key: "Etag", Value: tag}}}, nil
			}
			return &httpmsg.Response{Status: 200, Body: body,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "image/jpeg"}, {Key: "Etag", Value: tag}}}, nil
		})})
	t.Cleanup(p.Close)
	req := &httpmsg.Request{Method: "GET", Scheme: "http", Host: "h.example", Path: "/img",
		Query: []httpmsg.Field{{Key: "id", Value: "1"}}}
	key := req.CanonicalKey()
	if twin {
		p.store.Put("A", key, &cache.Entry{SigID: "t:img#0", Expires: time.Unix(1<<40, 0),
			Resp: &httpmsg.Response{Status: 200, Body: body,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "image/jpeg"}, {Key: "Etag", Value: tag}}}})
	}
	u, st := p.user("B"), p.sigs.byID["t:img#0"]
	commit = func() {
		pf := &prefetch{p: p, u: u, st: st, req: req, scope: "B", key: key, ikey: issueKey("B", key), expiry: time.Second}
		if ok, _ := p.keys.claim(pf.ikey, pf, true); !ok {
			t.Fatal("the key is still claimed")
		}
		p.runPrefetch(pf)
	}
	return p, commit
}

// TestPrefetchCommitAllocs pins the allocations of one prefetch from dispatch
// to commit — flight, round trip, spool, capture and Put — on the fixture
// above: 19 today, and the ceiling is one more.
func TestPrefetchCommitAllocs(t *testing.T) {
	p, commit := commitFixture(t, false)
	commit()
	allocs := testing.AllocsPerRun(200, commit)
	t.Logf("%.0f allocations per prefetch commit", allocs)
	if allocs > 19+1 {
		t.Fatalf("a prefetch commit costs %.0f allocations, want 19", allocs)
	}
	if snap := p.Stats().Snapshot(); snap.Prefetches != 202 || snap.NotModified != 0 {
		t.Fatalf("%d prefetches, %d 304s: the runs did not each commit from the origin", snap.Prefetches, snap.NotModified)
	}
}

// TestRevalidatedCommitAllocs pins the same for a commit a 304 answered: the
// twin lookup, the conditional clone and the 200 built from the twin's
// header, and no capture copy: 24 today, and the ceiling is one more.
func TestRevalidatedCommitAllocs(t *testing.T) {
	p, commit := commitFixture(t, true)
	commit()
	allocs := testing.AllocsPerRun(200, commit)
	t.Logf("%.0f allocations per revalidated commit", allocs)
	if allocs > 24+1 {
		t.Fatalf("a revalidated commit costs %.0f allocations, want 24", allocs)
	}
	if snap := p.Stats().Snapshot(); snap.NotModified != 202 {
		t.Fatalf("%d 304s in 202 runs: the runs did not each revalidate", snap.NotModified)
	}
}

// TestForwardedMissAllocs pins the allocations of one forwarded miss on the
// same fixture — admission, parse, lookup, match, flight, origin call, pump,
// the client's copy and the miss's accounting — with the span window full:
// user B's img?1, which no prefetch waits on, so nothing is stored and every
// run misses. 28 today, and the ceiling is one more.
func TestForwardedMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	p, _ := commitFixture(t, false)
	r := httptest.NewRequest("GET", "http://h.example/img?id=1", nil)
	r.RemoteAddr = "B:1"
	w := &discardWriter{h: http.Header{}}
	miss := func() {
		clear(w.h)
		p.ServeHTTP(w, r)
	}
	for i := 0; i < 1100; i++ { // fill the 1024-span window
		miss()
	}
	allocs := testing.AllocsPerRun(200, miss)
	t.Logf("%.0f allocations per forwarded miss", allocs)
	if allocs > 28+1 {
		t.Fatalf("a forwarded miss costs %.0f allocations, want 28", allocs)
	}
	if sp := p.RecentSpans(1)[0]; sp.Outcome != obs.OutcomeOrigin {
		t.Fatalf("outcome %v, want a forwarded miss", sp.Outcome)
	}
	if n := p.Cache().Metrics().Entries; n != 0 {
		t.Fatal("a forwarded miss stored an entry")
	}
}

// TestTeachingHitAllocs pins the allocations of one cache hit that teaches:
// user B's list, whose body names three images B already holds fresh, so the
// hit runs the predecessor routine (scan, three candidates, materialize from
// the learned img exemplar) and every instance dedups against the store. No
// origin request is made. The clock is frozen and the span window full. 22
// today, and the ceiling is one more.
func TestTeachingHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	allocs := teachingHitAllocs(t, "http://h.example/list")
	t.Logf("%.0f allocations per teaching hit", allocs)
	if allocs > 22+1 {
		t.Fatalf("a teaching hit costs %.0f allocations, want 22", allocs)
	}
}

// TestQueryTeachingHitAllocs pins the same hit sent as list?id=L within one
// allocation of the query-less one: a request's query is parsed once.
func TestQueryTeachingHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	plain := teachingHitAllocs(t, "http://h.example/list")
	query := teachingHitAllocs(t, "http://h.example/list?id=L")
	t.Logf("%.0f allocations per teaching hit with a query, %.0f without", query, plain)
	if query > plain+1 {
		t.Fatalf("a teaching hit with a query costs %.0f allocations, without one %.0f", query, plain)
	}
}

// teachingHitAllocs measures TestTeachingHitAllocs's hit on target.
func teachingHitAllocs(t *testing.T, target string) float64 {
	t.Helper()
	l := newFollowLab(t, []edge{{"list", "img", "imgs[*]"}}, 0, func(name, id string) string {
		if name == "list" && id != "0" {
			return `{"imgs":["1","2","3"]}`
		}
		return `{}`
	})
	l.teach("B", "img")
	l.get("B", "list", "L") // prefetches img 1, 2 and 3 into B's scope
	l.p.Drain()
	r := httptest.NewRequest("GET", target, nil)
	r.RemoteAddr = "B:1"
	req, err := httpmsg.FromHTTPLimited(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.p.store.Put("B", req.CanonicalKey(), &cache.Entry{SigID: "t:list#0", Expires: time.Unix(1<<40, 0),
		Resp: &httpmsg.Response{Status: 200, Body: []byte(`{"imgs":["1","2","3"]}`)}})
	if n, _ := l.p.store.ScopeStats("B"); n != 4 {
		t.Fatalf("B holds %d entries, want the list and its three images", n)
	}
	w := &discardWriter{h: http.Header{}}
	hit := func() {
		clear(w.h)
		l.p.ServeHTTP(w, r)
	}
	for i := 0; i < 1100; i++ { // fill the 1024-span window
		hit()
	}
	origin := len(l.seen())
	allocs := testing.AllocsPerRun(200, hit)
	if sp := l.p.RecentSpans(1)[0]; sp.Outcome != obs.OutcomePrefetchHit {
		t.Fatalf("outcome %v, want a prefetch hit", sp.Outcome)
	}
	if got := l.since(origin); len(got) != 0 {
		t.Fatalf("teaching hits reached the origin: %v", got)
	}
	return allocs
}

// TestPlanlessHitAllocs pins the allocations of one cache hit on a
// signature nothing depends on: user B's img?1 on the commit fixture, held
// fresh in B's scope, so the hit has no read plan to run and teaches
// nothing. The span window is full. 5 today, and the ceiling is one more.
func TestPlanlessHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	p, _ := commitFixture(t, false)
	r := httptest.NewRequest("GET", "http://h.example/img?id=1", nil)
	r.RemoteAddr = "B:1"
	req, err := httpmsg.FromHTTPLimited(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.store.Put("B", req.CanonicalKey(), &cache.Entry{SigID: "t:img#0", Expires: time.Unix(1<<40, 0),
		Resp: &httpmsg.Response{Status: 200, Body: make([]byte, 8<<10),
			Header: []httpmsg.Field{{Key: "Content-Type", Value: "image/jpeg"}}}})
	w := &discardWriter{h: http.Header{}}
	hit := func() {
		clear(w.h)
		p.ServeHTTP(w, r)
	}
	for i := 0; i < 1100; i++ { // fill the 1024-span window
		hit()
	}
	allocs := testing.AllocsPerRun(200, hit)
	t.Logf("%.0f allocations per plan-less hit", allocs)
	if allocs > 5+1 {
		t.Fatalf("a plan-less hit costs %.0f allocations, want 5", allocs)
	}
	if sp := p.RecentSpans(1)[0]; sp.Outcome != obs.OutcomePrefetchHit || sp.SigID != "t:img#0" {
		t.Fatalf("outcome %v on %q, want a prefetch hit on t:img#0", sp.Outcome, sp.SigID)
	}
	if p.opts.Graph.ReadPlan("t:img#0") != nil {
		t.Fatal("img has a read plan: the hit is not plan-less")
	}
}

// TestAttachAllocs pins the allocations of one client attaching to a flight:
// user B's img?1 on the commit fixture, whose flight is registered and whose
// spool already holds the whole 8 KiB body, so every run is an attach hit
// that streams the spool. The span window is full. 9 today, and the ceiling
// is one more.
func TestAttachAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	p, _ := commitFixture(t, false)
	r := httptest.NewRequest("GET", "http://h.example/img?id=1", nil)
	r.RemoteAddr = "B:1"
	req, err := httpmsg.FromHTTPLimited(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	fkey := issueKey("B", req.CanonicalKey())
	fl, _, owner := p.keys.open(fkey)
	if !owner {
		t.Fatal("the key already has a flight")
	}
	if _, err := fl.sp.Append(make([]byte, 8<<10)); err != nil {
		t.Fatal(err)
	}
	fl.sp.CloseWriter(nil)
	fl.publish(&httpmsg.Response{Status: 200, Header: []httpmsg.Field{{Key: "Content-Type", Value: "image/jpeg"}}})
	t.Cleanup(func() {
		p.keys.settle(fkey, fl)
		fl.sp.Discard()
	})
	w := &discardWriter{h: http.Header{}}
	attach := func() {
		clear(w.h)
		p.ServeHTTP(w, r)
	}
	for i := 0; i < 1100; i++ { // fill the 1024-span window
		attach()
	}
	allocs := testing.AllocsPerRun(200, attach)
	t.Logf("%.0f allocations per attach", allocs)
	if allocs > 9+1 {
		t.Fatalf("an attach costs %.0f allocations, want 9", allocs)
	}
	if sp := p.RecentSpans(1)[0]; sp.Outcome != obs.OutcomeAttachHit {
		t.Fatalf("outcome %v, want an attach hit", sp.Outcome)
	}
}
