package proxy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"appx/internal/air"
	"appx/internal/httpmsg"
	"appx/internal/obs"
	"appx/internal/obs/adminv1"
	"appx/internal/proxy/sched"
	"appx/internal/sig"
)

// First visits (borrow.go), on the follow_test.go lab: frozen clock, one
// worker, stub origin. Each test asserts what reaches the origin and what the
// client is served.

// listBody answers a list id with its items <id>1..<id>n and an item with
// nothing to fan out.
func listBody(items int) func(name, id string) string {
	return func(name, id string) string {
		if name != "list" || id == "0" {
			return `{}`
		}
		ids := make([]string, items)
		for i := range ids {
			ids[i] = fmt.Sprintf("%q", fmt.Sprintf("%s%d", id, i+1))
		}
		return `{"items":[` + strings.Join(ids, ",") + `]}`
	}
}

// listGraph is list → item, shaped by each signature's shape hook.
func listGraph(shapeList, shapeItem func(*sig.Signature)) *sig.Graph {
	g := followGraph([]edge{{"list", "item", "items[*]"}})
	if shapeList != nil {
		shapeList(g.Sig("t:list#0"))
	}
	if shapeItem != nil {
		shapeItem(g.Sig("t:item#0"))
	}
	return g
}

func noSharedTier(*Options) {}

// header returns the value of key on the origin's copy of the request that
// arrived as "<name>?<id>", failing when none did.
func (l *followLab) header(arrival, key string) string {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, a := range l.arrivals {
		if a == arrival {
			v, _ := l.sent[i].GetHeader(key)
			return v
		}
	}
	l.t.Fatalf("%s never reached the origin; saw %v", arrival, l.arrivals)
	return ""
}

// TestBorrowFirstInstance: a list → items graph with no wildcards. After one
// request that names no header, the user's first item is a prefetch hit: the
// item was built from the profile, issued one link further out than the
// list's depth-0 children with exemplars, and fetched after all of them.
func TestBorrowFirstInstance(t *testing.T) {
	edges := []edge{{"list", "item", "items[*]"}, {"list", "banner", "banners[*]"}}
	l := newFollowLab(t, edges, 0, func(name, id string) string {
		if name == "list" && id != "0" {
			return `{"items":["` + id + `1","` + id + `2"],"banners":["` + id + `-b1","` + id + `-b2"]}`
		}
		return `{}`
	})
	l.teach("A", "banner")
	mark := len(l.seen())
	l.getQueued("A", "list", "L")
	l.p.Drain()
	want := []string{"list?L", "banner?L-b1", "banner?L-b2", "item?L1", "item?L2"}
	if got := l.since(mark); !reflect.DeepEqual(got, want) {
		t.Fatalf("origin saw %v, want %v", got, want)
	}
	if m := l.p.SchedMetrics(); m.Shallow.Submitted != 2 || m.Deep.Submitted != 2 {
		t.Fatalf("submitted shallow %d deep %d, want the banners shallow and the borrowed items deep",
			m.Shallow.Submitted, m.Deep.Submitted)
	}
	if out := l.get("A", "item", "L1"); out != obs.OutcomePrefetchHit {
		t.Fatalf("first item: %v, want prefetch-hit", out)
	}
	if b := l.p.statsV1().Borrowed; b != (adminv1.Borrowed{Issued: 2, Used: 1}) {
		t.Fatalf("borrowed block = %+v, want 2 issued, 1 used", b)
	}
}

// TestBorrowCookieJar: the item names Cookie = W(device.cookie). The list's
// response sets sid=1, so the first item is built, and hit, with it. The
// item's own response sets sid=2 when served as a hit, and the next borrowed
// instance carries that.
func TestBorrowCookieJar(t *testing.T) {
	g := listGraph(nil, func(s *sig.Signature) {
		s.Header = []sig.Field{{Key: "Cookie", Value: sig.Wildcard(air.APIDeviceCookie)}}
	})
	l := newFollowLabOn(t, g, listBody(1), noSharedTier)
	l.answer = func(r *httpmsg.Request, resp *httpmsg.Response) {
		switch id, _ := r.GetQuery("id"); id {
		case "L":
			resp.Header = append(resp.Header, httpmsg.Field{Key: "Set-Cookie", Value: "sid=1; Path=/"})
		case "L1":
			resp.Header = append(resp.Header, httpmsg.Field{Key: "Set-Cookie", Value: "sid=2; Path=/"})
		}
	}
	l.get("A", "list", "L")
	l.p.Drain()
	if c := l.header("item?L1", "Cookie"); c != "sid=1" {
		t.Fatalf("borrowed item carried Cookie %q, want the list's sid=1", c)
	}
	if out := l.get("A", "item", "L1", httpmsg.Field{Key: "Cookie", Value: "sid=1"}); out != obs.OutcomePrefetchHit {
		t.Fatalf("first item: %v, want prefetch-hit", out)
	}
	l.get("A", "list", "M")
	l.p.Drain()
	if c := l.header("item?M1", "Cookie"); c != "sid=2" {
		t.Fatalf("next borrowed item carried Cookie %q, want sid=2 from the hit", c)
	}
	if out := l.get("A", "item", "M1", httpmsg.Field{Key: "Cookie", Value: "sid=2"}); out != obs.OutcomePrefetchHit {
		t.Fatalf("item after the hit's Set-Cookie: %v, want prefetch-hit", out)
	}
}

// TestBorrowParks: each of the three conditions, unmet, parks the instance —
// nothing reaches the origin until the live item, whose exemplar releases it.
func TestBorrowParks(t *testing.T) {
	for _, tc := range []struct {
		name      string
		list      func(*sig.Signature)
		item      func(*sig.Signature)
		listHdr   []httpmsg.Field
		clientHdr []httpmsg.Field
	}{
		{name: "optional field",
			item: func(s *sig.Signature) {
				s.Query = append(s.Query, sig.Field{Key: "v", Value: sig.Literal("1"), Optional: true})
			}},
		{name: "device value never sent",
			item: func(s *sig.Signature) {
				s.Header = []sig.Field{{Key: "Accept-Language", Value: sig.Wildcard(air.APIDeviceLocale)}}
			},
			clientHdr: []httpmsg.Field{{Key: "Accept-Language", Value: "fr"}}},
		{name: "stack evidence only from a request naming more headers",
			list: func(s *sig.Signature) {
				s.Header = []sig.Field{{Key: "User-Agent", Value: sig.Wildcard(air.APIDeviceUserAgent)}}
			},
			listHdr: []httpmsg.Field{{Key: "User-Agent", Value: "app/1"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newFollowLabOn(t, listGraph(tc.list, tc.item), listBody(2), noSharedTier)
			l.get("A", "list", "L", tc.listHdr...)
			l.p.Drain()
			if got := l.seen(); !reflect.DeepEqual(got, []string{"list?L"}) {
				t.Fatalf("before the live item the origin saw %v, want the list alone", got)
			}
			if out := l.get("A", "item", "L1", tc.clientHdr...); out != obs.OutcomeOrigin {
				t.Fatalf("live item: %v, want origin", out)
			}
			l.p.Drain()
			// The release fetches the client's own item again too: a
			// foreground miss is not cached.
			if got, want := l.seen(), []string{"list?L", "item?L1", "item?L1", "item?L2"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("origin saw %v, want %v: the exemplar released the parked items", got, want)
			}
			if out := l.get("A", "item", "L2", tc.clientHdr...); out != obs.OutcomePrefetchHit {
				t.Fatalf("released item: %v, want prefetch-hit", out)
			}
			if n := l.p.borrowed.Value(); n != 0 {
				t.Fatalf("%d borrowed prefetches", n)
			}
		})
	}
}

// TestBorrowStackEvidenceFromLeadOnly: the list names User-Agent, which the
// app sets, and a fully dynamic signature (URI pattern W, naming no header)
// matches the same request. Only the lead teaches stack evidence: the
// app-set User-Agent is no stack default, so the items, which name no
// header, park instead of being fetched with it.
func TestBorrowStackEvidenceFromLeadOnly(t *testing.T) {
	g := listGraph(func(s *sig.Signature) {
		s.Header = []sig.Field{{Key: "User-Agent", Value: sig.Wildcard(air.APIDeviceUserAgent)}}
	}, nil)
	g.Add(&sig.Signature{ID: "t:any#0", Method: "GET", URI: sig.Wildcard("no-alias")})
	l := newFollowLabOn(t, g, listBody(2), noSharedTier)
	l.get("A", "list", "L", httpmsg.Field{Key: "User-Agent", Value: "app/1"})
	l.p.Drain()
	if got := l.seen(); !reflect.DeepEqual(got, []string{"list?L"}) {
		t.Fatalf("origin saw %v: items were built from the other match's view of the request", got)
	}
	u := l.p.user("A")
	u.mu.Lock()
	ev := u.prof.stackFor(nil)
	u.mu.Unlock()
	if ev != nil {
		t.Fatalf("stack evidence for signatures naming no header: %+v", ev.headers)
	}
	stack := httpmsg.Field{Key: "User-Agent", Value: "stack/1"}
	if out := l.get("A", "item", "L1", stack); out != obs.OutcomeOrigin {
		t.Fatalf("live item: %v, want origin", out)
	}
	l.p.Drain()
	if out := l.get("A", "item", "L2", stack); out != obs.OutcomePrefetchHit {
		t.Fatalf("released item: %v, want prefetch-hit", out)
	}
}

// TestBorrowWrongGuess: the client's stack adds a header (X-Client) the
// list request did not carry, and the origin rejects item requests without
// it. The borrowed prefetches reach the origin and are refused; the client
// misses and is served the origin's bytes; the learned exemplar takes over
// and the next fan-out hits. The refusal stops borrowing for that user and
// signature only: the signature's failure streak stays at zero, and another
// user's prefetches of it run. Both guesses are queued behind a busy worker
// before either runs, so the first refusal cannot stop the second being
// issued.
func TestBorrowWrongGuess(t *testing.T) {
	l := newFollowLabOn(t, listGraph(nil, nil), listBody(2), noSharedTier)
	l.answer = func(r *httpmsg.Request, resp *httpmsg.Response) {
		if _, ok := r.GetHeader("X-Client"); strings.HasPrefix(r.Path, "/item") && !ok {
			resp.Status = 400
		}
	}
	client := httpmsg.Field{Key: "X-Client", Value: "v2"}
	l.get("B", "item", "0", client) // B's exemplar, learned live
	l.getQueued("A", "list", "L")
	l.p.Drain()
	if got, want := l.seen()[1:], []string{"list?L", "item?L1", "item?L2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("origin saw %v, want %v", got, want)
	}
	if b := l.p.statsV1().Borrowed; b.Issued != 2 || b.Rejected != 2 {
		t.Fatalf("borrowed block = %+v, want 2 issued and 2 rejected", b)
	}
	st := l.p.sigs.byID["t:item#0"]
	if failures, _ := st.backoff(); failures != 0 || len(l.p.healthV1().SuspendedSignatures) != 0 {
		t.Fatalf("borrowed rejections fed the signature's backoff: %d failures", failures)
	}
	if n := st.prefetchRejects.Load(); n != 0 {
		t.Fatalf("%d rejections booked against the signature", n)
	}

	// Borrowing has stopped for A: the next list's items wait for A's own.
	mark := len(l.seen())
	l.get("A", "list", "K")
	l.p.Drain()
	if got := l.since(mark); !reflect.DeepEqual(got, []string{"list?K"}) {
		t.Fatalf("after the rejection A's next fan-out sent %v, want the list alone", got)
	}
	resp, out := l.fetch("A", "item", "L1", client)
	if out != obs.OutcomeOrigin || string(resp.Body) != `{}` {
		t.Fatalf("live item: %v %q, want the origin's bytes", out, resp.Body)
	}
	l.p.Drain()
	l.get("A", "list", "M")
	l.p.Drain()
	for _, id := range []string{"K1", "M1"} {
		if out := l.get("A", "item", id, client); out != obs.OutcomePrefetchHit {
			t.Fatalf("item %s after A's live item: %v, want prefetch-hit", id, out)
		}
	}
	// B's prefetches of the signature run.
	l.get("B", "list", "N")
	l.p.Drain()
	if out := l.get("B", "item", "N1", client); out != obs.OutcomePrefetchHit {
		t.Fatalf("B's item: %v, want prefetch-hit", out)
	}
}

// TestBorrowNothingCrossesUsers: B's prefetches never carry a header, a
// device value or a cookie that only A sent, and a user who sent none of them
// borrows nothing.
func TestBorrowNothingCrossesUsers(t *testing.T) {
	lang := sig.Wildcard(air.APIDeviceLocale)
	g := listGraph(func(s *sig.Signature) {
		s.Header = []sig.Field{{Key: "Accept-Language", Value: lang}}
	}, func(s *sig.Signature) {
		s.Header = []sig.Field{{Key: "Accept-Language", Value: lang}, {Key: "Cookie", Value: sig.Wildcard(air.APIDeviceCookie)}}
	})
	l := newFollowLabOn(t, g, listBody(3), noSharedTier)
	l.answer = func(r *httpmsg.Request, resp *httpmsg.Response) {
		if id, _ := r.GetQuery("id"); r.Path == "/list" {
			resp.Header = append(resp.Header, httpmsg.Field{Key: "Set-Cookie", Value: "sid=" + id})
		}
	}
	device := map[string][]httpmsg.Field{
		"A": {{Key: "Accept-Language", Value: "fr"}, {Key: "X-Device", Value: "phone-A"}},
		"B": {{Key: "Accept-Language", Value: "de"}, {Key: "X-Device", Value: "phone-B"}},
	}
	l.get("A", "list", "A", device["A"]...)
	l.get("B", "list", "B", device["B"]...)
	l.get("C", "list", "C")
	l.p.Drain()
	items := map[string]int{}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, r := range l.sent {
		if r.Path != "/item" {
			continue
		}
		id, _ := r.GetQuery("id")
		user := id[:1]
		items[user]++
		cookie, _ := r.GetHeader("Cookie")
		lang, _ := r.GetHeader("Accept-Language")
		dev, _ := r.GetHeader("X-Device")
		if got, want := []string{cookie, lang, dev}, []string{"sid=" + user, device[user][0].Value, device[user][1].Value}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s's item carried %v, want %v", l.arrivals[i], user, got, want)
		}
	}
	if items["A"] != 3 || items["B"] != 3 || items["C"] != 0 {
		t.Fatalf("items fetched per user = %v, want 3 for A and B, none for C", items)
	}
}

// TestProfileUpdateAllocs: a miss that teaches the profile nothing new — the
// same stack headers, device values and cookies as before — allocates
// nothing.
func TestProfileUpdateAllocs(t *testing.T) {
	g := listGraph(func(s *sig.Signature) {
		s.Header = []sig.Field{
			{Key: "User-Agent", Value: sig.Wildcard(air.APIDeviceUserAgent)},
			{Key: "Cookie", Value: sig.Concat(sig.Literal("v=1; "), sig.Wildcard(air.APIDeviceCookie))},
		}
	}, nil)
	l := newFollowLabOn(t, g, listBody(1), noSharedTier)
	u, st := l.p.user("A"), l.p.sigs.byID["t:list#0"]
	req := &httpmsg.Request{Method: "GET", Host: "h.example", Path: "/list", Header: []httpmsg.Field{
		{Key: "Content-Type", Value: "text/plain"},
		{Key: "Cookie", Value: "v=1; sid=7"},
		{Key: "User-Agent", Value: "app/1"},
		{Key: "X-Device", Value: "phone"},
	}}
	resp := []httpmsg.Field{{Key: "Set-Cookie", Value: "sid=7; Path=/"}}
	if !noteMiss(u, st, req, resp, false) {
		t.Fatal("the first miss taught the profile nothing")
	}
	if noteMiss(u, st, req, resp, false) {
		t.Fatal("the same miss again changed the profile")
	}
	if allocs := testing.AllocsPerRun(100, func() { noteMiss(u, st, req, resp, false) }); allocs != 0 {
		t.Fatalf("a miss that changes nothing costs %v allocations, want 0", allocs)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if ev := u.prof.stackFor(st.names); ev == nil || !reflect.DeepEqual(ev.headers, req.Header[3:]) {
		t.Fatalf("stack evidence = %+v, want X-Device alone", ev)
	}
	if v := u.prof.values[keyOf(air.APIDeviceCookie, "h.example")]; v != "sid=7" {
		t.Fatalf("jar = %q, want sid=7", v)
	}
}

// TestMissReasons: one foreground miss of each reason, counted per signature
// in /appx/v1/stats and in appx_miss_total.
func TestMissReasons(t *testing.T) {
	l := newFollowLab(t, []edge{{"list", "store", "stores[*]"}, {"store", "menu", "menu"}}, 0, storefrontBody(1, 0))
	l.get("U1", "list", "L")  // nothing feeds the list: unpredicted
	l.get("U2", "store", "Z") // a user with no profile yet: no_exemplar
	busy := make(stall)
	l.p.sched.Submit(&sched.Task{Job: busy})
	l.get("U3", "store", "S")                                       // no_exemplar; its menu is borrowed...
	if out := l.get("U3", "menu", "Sm"); out != obs.OutcomeOrigin { // ...and still queued
		t.Fatalf("menu behind a busy worker: %v, want origin", out)
	}
	close(busy)
	l.p.Drain()
	l.get("U3", "menu", "Q") // never derived: other
	want := adminv1.MissReasons{
		MissCounts: adminv1.MissCounts{Unpredicted: 1, NoExemplar: 2, Queued: 1, Other: 1},
		Signatures: map[string]adminv1.MissCounts{
			"t:list#0":  {Unpredicted: 1},
			"t:store#0": {NoExemplar: 2},
			"t:menu#0":  {Queued: 1, Other: 1},
		},
	}
	if got := l.p.statsV1().MissReasons; !reflect.DeepEqual(got, want) {
		t.Fatalf("miss reasons = %+v, want %+v", got, want)
	}
	var text strings.Builder
	l.p.Registry().WritePrometheus(&text)
	for _, line := range []string{
		`appx_miss_total{reason="unpredicted"} 1` + "\n", `appx_miss_total{reason="no_exemplar"} 2` + "\n",
		`appx_miss_total{reason="queued"} 1` + "\n", `appx_miss_total{reason="other"} 1` + "\n",
		"appx_prefetch_borrowed_total ", "appx_prefetch_borrowed_used_total ", "appx_prefetch_borrowed_rejected_total ",
	} {
		if !strings.Contains(text.String(), line) {
			t.Fatalf("metrics lack %q", line)
		}
	}
}

// TestQueuedClaimCommitLeavesSample: a foreground miss commits its capture
// under a queued prefetch's claim; the task then finds the entry resident
// and returns. That zero-byte prefetch leaves its request — the client's
// key — as the verification sample, as a fetched one would.
func TestQueuedClaimCommitLeavesSample(t *testing.T) {
	l := newFollowLab(t, storefront[:2], 0, storefrontBody(1, 0))
	l.teach("A", "store", "menu")
	busy := make(stall)
	l.p.sched.Submit(&sched.Task{Job: busy})
	l.get("A", "store", "S")
	if out := l.get("A", "menu", "Sm"); out != obs.OutcomeOrigin {
		t.Fatalf("menu behind a busy worker: %v, want origin", out)
	}
	close(busy)
	l.p.Drain()
	if n := l.p.Stats().Snapshot().PerSig["t:menu#0"].Prefetches; n != 1 {
		t.Fatalf("%d menu prefetches, want the one zero-byte prefetch", n)
	}
	if l.p.SampleRequest("t:menu#0") == nil {
		t.Fatal("a counted prefetch left no verification sample")
	}
}

// TestWithCookie: a Set-Cookie pair replaces the jar's cookie of its name
// and is appended otherwise; a jar that holds it already comes back as is.
func TestWithCookie(t *testing.T) {
	for _, tc := range []struct{ jar, name, pair, want string }{
		{"", "sid", "sid=1", "sid=1"},
		{"sid=1", "sid", "sid=1", "sid=1"},
		{"sid=1", "sid", "sid=2", "sid=2"},
		{"a=1; sid=1; b=2", "sid", "sid=2", "a=1; b=2; sid=2"},
		{"a=1", "sid", "sid=2", "a=1; sid=2"},
		{"a=1;sid=2", "sid", "sid=2", "a=1;sid=2"},
	} {
		if got := withCookie(tc.jar, tc.name, tc.pair); got != tc.want {
			t.Errorf("withCookie(%q, %q) = %q, want %q", tc.jar, tc.pair, got, tc.want)
		}
	}
}

// BenchmarkNoteMiss is what a miss that teaches the profile nothing new adds
// to runFlight: the classification and the profile comparison, under the
// user's lock.
func BenchmarkNoteMiss(b *testing.B) {
	g := listGraph(func(s *sig.Signature) {
		s.Header = []sig.Field{{Key: "User-Agent", Value: sig.Wildcard(air.APIDeviceUserAgent)}}
	}, nil)
	p := New(Options{Graph: g, Workers: 1})
	defer p.Close()
	u, st := p.user("A"), p.sigs.byID["t:list#0"]
	req := &httpmsg.Request{Method: "GET", Host: "h.example", Path: "/list", Header: []httpmsg.Field{
		{Key: "Accept-Encoding", Value: "gzip"}, {Key: "User-Agent", Value: "app/1"}, {Key: "X-Device", Value: "phone"},
	}}
	hdr := []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}}
	noteMiss(u, st, req, hdr, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noteMiss(u, st, req, hdr, false)
	}
}
