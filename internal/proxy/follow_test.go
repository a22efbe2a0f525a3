package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/obs"
	"appx/internal/proxy/sched"
	"appx/internal/sig"
)

// The proxy's attention follows the user (DESIGN.md §6, §14): these tests
// pin the dispatch order across users, what a hit, a deduplicated instance
// and an attach do to a chain, and a worker adopting a foreground flight. All
// of them run
// on a frozen clock — every origin time is zero, so the §5 priority is its
// hit-rate term alone and the cache evicts by recency — one prefetch worker,
// and a stub origin that parks chosen requests on a channel: what reaches the
// origin, in what order, is decided by the scheduler and nothing else.

// followLab is a chain-shaped app: every signature is GET h.example/<name>
// with one query field id, drawn from its predecessor's response.
type followLab struct {
	t *testing.T
	g *sig.Graph
	p *Proxy

	mu       sync.Mutex
	arrivals []string           // "<name>?<id>", in the order requests reached the origin
	sent     []*httpmsg.Request // the requests themselves, in the same order
	// parked requests wait at the origin before it answers; held ones are
	// answered at once, headers first, and their body waits. Both until
	// release.
	parked, held func(name, id string) bool
	gate         chan struct{}
	// answer, when set, finishes the origin's response to a request: its
	// status and headers.
	answer func(r *httpmsg.Request, resp *httpmsg.Response)
}

// gatedBody is a response body that yields nothing until its gate opens.
type gatedBody struct {
	gate <-chan struct{}
	io.Reader
}

func (b gatedBody) Read(p []byte) (int, error) {
	<-b.gate
	return b.Reader.Read(p)
}

func (gatedBody) Close() error { return nil }

// edge is one dependency: succ's id is read from pred's response at path.
type edge struct{ pred, succ, path string }

// newFollowLab builds the graph from its edges and a proxy over it. body
// renders the origin's answer to <name>?id=<id>.
func newFollowLab(t *testing.T, edges []edge, entriesPerUser int, body func(name, id string) string) *followLab {
	t.Helper()
	return newFollowLabWith(t, edges, body, func(o *Options) { o.MaxCacheEntriesPerUser = entriesPerUser })
}

// newFollowLabWith is newFollowLab with the proxy's options (shared tier
// off) handed to tune before the proxy is built.
func newFollowLabWith(t *testing.T, edges []edge, body func(name, id string) string, tune func(*Options)) *followLab {
	t.Helper()
	return newFollowLabOn(t, followGraph(edges), body, tune)
}

// followGraph is the lab's graph of edges.
func followGraph(edges []edge) *sig.Graph {
	g := sig.NewGraph("t")
	add := func(name string) *sig.Signature {
		if s := g.Sig("t:" + name + "#0"); s != nil {
			return s
		}
		s := &sig.Signature{ID: "t:" + name + "#0", Method: "GET", URI: sig.Literal("h.example/" + name)}
		g.Add(s)
		return s
	}
	for _, e := range edges {
		pred, succ := add(e.pred), add(e.succ)
		succ.Query = []sig.Field{{Key: "id", Value: sig.DepValue(pred.ID, e.path)}}
		g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: succ.ID, RespPath: e.path,
			Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	}
	return g
}

// newFollowLabOn is newFollowLabWith over a graph built by the caller.
func newFollowLabOn(t *testing.T, g *sig.Graph, body func(name, id string) string, tune func(*Options)) *followLab {
	t.Helper()
	l := &followLab{t: t, g: g, gate: make(chan struct{})}
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		name := strings.TrimPrefix(r.Path, "/")
		id, _ := r.GetQuery("id")
		l.mu.Lock()
		l.arrivals = append(l.arrivals, name+"?"+id)
		l.sent = append(l.sent, r)
		wait := l.parked != nil && l.parked(name, id)
		hold := l.held != nil && l.held(name, id)
		gate, answer := l.gate, l.answer
		l.mu.Unlock()
		if wait {
			<-gate
		}
		resp := &httpmsg.Response{Status: 200,
			Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}}}
		if answer != nil {
			answer(r, resp)
		}
		if hold {
			resp.SetStream(gatedBody{gate, strings.NewReader(body(name, id))})
		} else {
			resp.Body = []byte(body(name, id))
		}
		return resp, nil
	})
	cfg := config.Default(l.g)
	cfg.Cache = &config.Cache{DisableSharedTier: true}
	frozen := time.Unix(1_700_000_000, 0)
	opts := Options{Graph: l.g, Config: cfg, Upstream: up, Workers: 1, Now: func() time.Time { return frozen }}
	tune(&opts)
	l.p = New(opts)
	t.Cleanup(l.p.Close)
	return l
}

// stall is a scheduler job that occupies a worker until it is closed.
type stall chan struct{}

func (s stall) Run()      { <-s }
func (stall) Abandon()    {}
func (stall) OnPanic(any) {}

// getQueued is get with the lab's one worker kept busy meanwhile, so that
// everything the response fans out is queued before any of it runs: a worker
// that finishes the first instance before the foreground has submitted the
// last would otherwise chain ahead of its siblings.
func (l *followLab) getQueued(user, name, id string) {
	busy := make(stall)
	l.p.sched.Submit(&sched.Task{Job: busy})
	l.get(user, name, id)
	close(busy)
}

// park makes the origin sit on every request pick selects until release.
func (l *followLab) park(pick func(name, id string) bool) {
	l.mu.Lock()
	l.parked, l.gate = pick, make(chan struct{})
	l.mu.Unlock()
}

// hold makes the origin answer the requests pick selects with headers only,
// the body following at release.
func (l *followLab) hold(pick func(name, id string) bool) {
	l.mu.Lock()
	l.held, l.gate = pick, make(chan struct{})
	l.mu.Unlock()
}

func (l *followLab) release() {
	l.mu.Lock()
	l.parked, l.held = nil, nil
	close(l.gate)
	l.mu.Unlock()
}

// seen returns the arrivals so far; since(n) those after the first n.
func (l *followLab) seen() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.arrivals...)
}

func (l *followLab) since(n int) []string { return l.seen()[n:] }

// get sends one client request as user and returns the span outcome.
func (l *followLab) get(user, name, id string, header ...httpmsg.Field) obs.Outcome {
	l.t.Helper()
	_, out := l.fetch(user, name, id, header...)
	return out
}

// fetch is get returning the response the client was served too.
func (l *followLab) fetch(user, name, id string, header ...httpmsg.Field) (*httpmsg.Response, obs.Outcome) {
	l.t.Helper()
	req := &httpmsg.Request{Method: "GET", Host: "h.example", Path: "/" + name,
		Query: []httpmsg.Field{{Key: "id", Value: id}}, Header: header}
	resp, err := (&proxyTransport{p: l.p, user: user}).RoundTrip(req)
	if err != nil || resp.Status != 200 {
		l.t.Fatalf("GET /%s?id=%s as %s: %v, %+v", name, id, user, err, resp)
	}
	for _, sp := range l.p.RecentSpans(16) {
		if sp.User == user && sp.SigID == "t:"+name+"#0" {
			return resp, sp.Outcome
		}
	}
	l.t.Fatalf("no span for /%s?id=%s as %s", name, id, user)
	return nil, obs.OutcomeUnknown
}

// teach gives user a live example of every named signature, leaf first, so
// instances of them are issued rather than parked. Id 0 names nothing: the
// stub answers it with an empty object, which fans out to nothing.
func (l *followLab) teach(user string, names ...string) {
	l.t.Helper()
	for i := len(names) - 1; i >= 0; i-- {
		l.get(user, names[i], "0")
	}
	l.p.Drain()
}

// waitFor spins until cond holds: an event the test cannot be signalled of
// (a goroutine having reached a blocking point inside the proxy).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// storefront is a DoorDash-shaped graph: list → stores → menu → items →
// suggest, the last two fanning out per menu.
var storefront = []edge{
	{"list", "store", "stores[*]"},
	{"store", "menu", "menu"},
	{"menu", "item", "items[*]"},
	{"item", "suggest", "suggest"},
}

func storefrontBody(stores, items int) func(name, id string) string {
	quoted := func(prefix string, n int) string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%q", fmt.Sprintf("%s%d", prefix, i+1))
		}
		return strings.Join(out, ",")
	}
	return func(name, id string) string {
		if id == "0" {
			return `{}`
		}
		switch name {
		case "list":
			return `{"stores":[` + quoted(id, stores) + `]}`
		case "store":
			return fmt.Sprintf(`{"menu":%q}`, id+"m")
		case "menu":
			return `{"items":[` + quoted(id+"-", items) + `]}`
		case "item":
			return fmt.Sprintf(`{"suggest":%q}`, id+"g")
		}
		return `{}`
	}
}

// TestDispatchFollowsTheNearestUser: user A's launch has left two dozen
// depth-2 prefetches queued (and a depth-3 one behind every one that runs)
// when user B launches. Everything B's client is one and two transactions
// from asking for reaches the origin before any more of A's speculation does.
// Ordered by the §5 priority alone, B's menus (their signature has been
// prefetched and never hit: priority 0) wait behind all of A's items and
// suggestions (never prefetched when queued: 0.5).
func TestDispatchFollowsTheNearestUser(t *testing.T) {
	const stores, items = 2, 12
	l := newFollowLab(t, storefront, 0, storefrontBody(stores, items))
	for _, u := range []string{"A", "B"} {
		l.teach(u, "store", "menu", "item", "suggest")
	}
	// A's chain runs until its first item, which the origin holds: the worker
	// is busy, 23 more depth-2 items wait.
	l.park(func(name, id string) bool { return name == "item" && strings.HasPrefix(id, "A") })
	l.getQueued("A", "list", "A")
	waitFor(t, "A's first item to reach the origin", func() bool {
		s := l.seen()
		return len(s) > 0 && strings.HasPrefix(s[len(s)-1], "item?A")
	})
	if q := l.p.sched.QueueLen(); q != stores*items-1 {
		t.Fatalf("%d prefetches queued behind A's first item, want %d", q, stores*items-1)
	}
	mark := len(l.seen())
	l.get("B", "list", "B")
	l.release()
	l.p.Drain()

	got := l.since(mark)
	want := []string{"list?B", "store?B1", "store?B2", "menu?B1m", "menu?B2m"}
	if len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("after B's launch the origin saw %v first, want %v", got[:min(len(got), 8)], want)
	}
	// Nothing was lost to the reordering: both chains ran to their ends.
	all := strings.Join(l.seen(), " ")
	for _, u := range []string{"A", "B"} {
		if n := strings.Count(all, "suggest?"+u); n != stores*items {
			t.Fatalf("%d of %s's %d suggestions were prefetched", n, u, stores*items)
		}
	}
	// Depth orders the queue; the class still says what was admitted as what.
	m := l.p.SchedMetrics()
	if m.Shallow.Submitted != 2*stores || m.Deep.Submitted != int64(2*(stores+2*stores*items)) {
		t.Fatalf("submitted shallow %d deep %d, want %d and %d", m.Shallow.Submitted, m.Deep.Submitted,
			2*stores, 2*(stores+2*stores*items))
	}
	issued := l.p.statsV1().Sched.Issued
	if issued.Miss != 2*stores || issued.Chain != m.Deep.Submitted || issued.Hit != 0 {
		t.Fatalf("issued by trigger = %+v", issued)
	}
}

// TestHitReissuesEvictedChild: a store and its menu are prefetched, the menu
// is pushed out by the user's entry cap, the client opens the store (a hit).
// The hit re-derives the menu and issues it again, once, at depth 0, so the
// client's next request is a hit too; a hit whose children are all resident
// issues nothing.
func TestHitReissuesEvictedChild(t *testing.T) {
	edges := []edge{{"list", "store", "stores[*]"}, {"store", "menu", "menu"}, {"xlist", "extra", "xs[*]"}}
	l := newFollowLab(t, edges, 3, func(name, id string) string {
		switch {
		case id == "0":
			return `{}`
		case name == "list":
			return `{"stores":["S"]}`
		case name == "store":
			return `{"menu":"M"}`
		case name == "xlist":
			return `{"xs":["X1","X2"]}`
		}
		return `{}`
	})
	l.teach("A", "store", "menu", "extra")
	l.get("A", "list", "A")
	l.p.Drain() // store S and menu M are resident

	mark := len(l.seen())
	if out := l.get("A", "store", "S"); out != obs.OutcomePrefetchHit {
		t.Fatalf("store: %v, want prefetch-hit", out)
	}
	l.p.Drain()
	if got := l.since(mark); len(got) != 0 {
		t.Fatalf("a hit whose child is resident reached the origin: %v", got)
	}
	// Two more entries into a cap of three: the menu, least recently used
	// (the hit touched the store), leaves.
	l.get("A", "xlist", "A")
	l.p.Drain()
	if e, _ := l.p.Cache().Peek("A", menuKey("M")); e != nil {
		t.Fatal("menu M still resident: the cap did not evict it")
	}

	mark = len(l.seen())
	before := l.p.SchedMetrics().Shallow.Submitted
	if out := l.get("A", "store", "S"); out != obs.OutcomePrefetchHit {
		t.Fatalf("store: %v, want prefetch-hit", out)
	}
	l.p.Drain()
	if got := l.since(mark); !reflect.DeepEqual(got, []string{"menu?M"}) {
		t.Fatalf("hit on the store sent %v to the origin, want exactly its evicted menu", got)
	}
	if d := l.p.SchedMetrics().Shallow.Submitted - before; d != 1 {
		t.Fatalf("%d depth-0 submissions from the hit, want 1", d)
	}
	if issued := l.p.statsV1().Sched.Issued; issued.Hit != 1 {
		t.Fatalf("issued by trigger = %+v, want one from a hit", issued)
	}
	if out := l.get("A", "menu", "M"); out != obs.OutcomePrefetchHit {
		t.Fatalf("menu after the store hit: %v, want prefetch-hit", out)
	}
	var text strings.Builder
	l.p.Registry().WritePrometheus(&text)
	if want := `appx_prefetch_issued_total{trigger="hit"} 1` + "\n"; !strings.Contains(text.String(), want) {
		t.Fatalf("metrics lack %q", want)
	}
}

// claimedMenuPrefetch is what maybePrefetch hands the scheduler for user A's
// menu id: the task and the claim it holds, not submitted.
func (l *followLab) claimedMenuPrefetch(id string) *prefetch {
	l.t.Helper()
	s := l.g.Sig("t:menu#0")
	req := &httpmsg.Request{Method: "GET", Scheme: "http", Host: "h.example", Path: "/menu",
		Query: []httpmsg.Field{{Key: "id", Value: id}}}
	pf := &prefetch{p: l.p, u: l.p.user("A"), st: l.p.sigs.byID[s.ID], req: req, scope: "A", key: req.CanonicalKey(), expiry: time.Minute}
	pf.ikey = issueKey(pf.scope, pf.key)
	pf.task = sched.Task{SigID: s.ID, Class: sched.ClassShallow, Job: pf}
	if ok, _ := l.p.keys.claim(pf.ikey, pf, true); !ok {
		l.t.Fatal("claim refused: nothing holds the key")
	}
	return pf
}

func menuKey(id string) string { return labKey("menu", id) }

// labKey is the cache key of the lab's GET h.example/<name>?id=<id>.
func labKey(name, id string) string {
	return (&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/" + name,
		Query: []httpmsg.Field{{Key: "id", Value: id}}}).CanonicalKey()
}

// TestDedupPromotesQueuedChild: three items wait at depth 2 behind a busy
// worker when the client asks for the menu the last one hangs off, in a form
// the prefetched entry does not answer (a miss). The live learn re-derives
// that item, loses its claim to the queued one — and the queued task moves
// to depth 0 instead of the demand being dropped: it runs next.
func TestDedupPromotesQueuedChild(t *testing.T) {
	const stores = 3
	l := newFollowLab(t, storefront[:3], 0, storefrontBody(stores, 1))
	l.teach("A", "store", "menu", "item")
	l.park(func(name, id string) bool { return name == "item" })
	l.getQueued("A", "list", "A")
	waitFor(t, "the first item to reach the origin", func() bool {
		s := l.seen()
		return len(s) > 0 && s[len(s)-1] == "item?A1m-1"
	})
	mark := len(l.seen())
	// Same menu, one header more than the exemplar the prefetch was built
	// from: a different key, so a miss; the same response, so the same item.
	if out := l.get("A", "menu", "A3m", httpmsg.Field{Key: "X-Retry", Value: "1"}); out != obs.OutcomeOrigin {
		t.Fatalf("menu with an extra header: %v, want origin", out)
	}
	l.release()
	l.p.Drain()
	if got, want := l.since(mark), []string{"menu?A3m", "item?A3m-1", "item?A2m-1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("origin saw %v, want %v: the demanded item was not promoted", got, want)
	}
	st := l.p.statsV1().Sched
	if st.Promoted != 1 {
		t.Fatalf("promoted = %d, want 1", st.Promoted)
	}
	// Promoted, not re-issued, and still booked where it was admitted.
	if m := l.p.SchedMetrics(); m.Deep.Submitted != 2*stores || m.Deep.Ran != 2*stores || m.Shallow.Submitted != stores {
		t.Fatalf("class accounting = %+v", m)
	}
	var text strings.Builder
	l.p.Registry().WritePrometheus(&text)
	if want := "appx_prefetch_promoted_total 1\n"; !strings.Contains(text.String(), want) {
		t.Fatalf("metrics lack %q", want)
	}
}

// TestAttachContinuesChainAtDepthZero: the client asks for a menu while its
// prefetch is still at the origin and is served from that flight. The
// response is no longer speculation, so the worker continues the chain from
// depth 0: the menu's items run before the other stores' menus (depth 1),
// which were queued first.
func TestAttachContinuesChainAtDepthZero(t *testing.T) {
	const stores, items = 3, 2
	l := newFollowLab(t, storefront[:3], 0, storefrontBody(stores, items))
	l.teach("A", "store", "menu", "item")
	// The first menu's prefetch has its headers and waits for its body; the
	// client attaches to that flight and waits with it.
	l.hold(func(name, id string) bool { return name == "menu" })
	l.getQueued("A", "list", "A")
	fkey := issueKey("A", menuKey("A1m"))
	flight := func() *flight { return l.p.keys.snapshot()[fkey].fl }
	waitFor(t, "the first menu's prefetch to publish its headers", func() bool {
		fl := flight()
		if fl == nil {
			return false
		}
		select {
		case <-fl.ready:
			return true
		default:
			return false
		}
	})
	mark := len(l.seen())
	outcome := make(chan obs.Outcome, 1)
	go func() { outcome <- l.get("A", "menu", "A1m") }()
	waitFor(t, "the client to attach to the menu's flight", func() bool { return flight().sp.Readers() == 1 })
	l.release()
	if out := <-outcome; out != obs.OutcomeAttachHit {
		t.Fatalf("menu while its prefetch is in flight: %v, want attach-hit", out)
	}
	l.p.Drain()
	if got, want := l.since(mark), []string{"item?A1m-1", "item?A1m-2", "menu?A2m", "menu?A3m"}; !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("origin saw %v, want %v first", got, want)
	}
	if issued := l.p.statsV1().Sched.Issued; issued.Hit != items {
		t.Fatalf("issued by trigger = %+v, want %d from the attach", issued, items)
	}
}

// TestPrefetchLookupPinsForegroundFlight: a prefetch worker looks the key up
// while a foreground miss still owns its flight, and gets to adopting it only
// after the client has its response. The reader the lookup took pins the
// spool, so the worker caches the foreground fetch's capture: the origin sees
// the menu once, and the client's next request for it is a hit.
//
// Nothing can hold a worker between its lookup and its adoption, so the test
// takes both steps itself around a real foreground flight: the dispatch
// transition, then — once the client has its response — the rest of
// runPrefetch.
func TestPrefetchLookupPinsForegroundFlight(t *testing.T) {
	l := newFollowLab(t, storefront[:2], 0, storefrontBody(1, 0))
	l.teach("A", "store", "menu")
	l.park(func(name, id string) bool { return name == "menu" })
	done := make(chan obs.Outcome, 1)
	go func() { done <- l.get("A", "menu", "M") }()
	waitFor(t, "the client's miss to reach the origin", func() bool {
		s := l.seen()
		return len(s) > 0 && s[len(s)-1] == "menu?M"
	})

	pf := l.claimedMenuPrefetch("M")
	fl, rd := l.p.keys.dispatch(pf.ikey, pf)
	if fl == nil || rd == nil {
		t.Fatal("the worker's lookup found no foreground flight to read")
	}
	l.release()
	if out := <-done; out != obs.OutcomeOrigin {
		t.Fatalf("client: %v, want origin", out)
	}

	l.p.ridePrefetch(pf, fl, rd, false)
	if e, fresh := l.p.Cache().Peek("A", pf.key); e == nil || !fresh {
		t.Fatal("the prefetch cached nothing")
	}
	if got := l.seen(); strings.Count(strings.Join(got, " "), "menu?M") != 1 {
		t.Fatalf("origin saw %v, want menu?M once", got)
	}
	if out := l.get("A", "menu", "M"); out != obs.OutcomePrefetchHit {
		t.Fatalf("menu after the prefetch: %v, want prefetch-hit", out)
	}
	if n := l.p.ChunkPool().Outstanding(); n != 0 {
		t.Fatalf("%d chunks outstanding", n)
	}
}

// A flight that cannot be read from the start for any other reason is not
// retried: the worker gives its claim back, as before.
func TestPrefetchGivesUpOnFailedFlight(t *testing.T) {
	l := newFollowLab(t, storefront[:2], 0, storefrontBody(1, 0))
	pf := l.claimedMenuPrefetch("M")
	// A foreground owner whose origin fails: the worker attached in time and
	// sees the error.
	own, _, _ := l.p.keys.open(pf.ikey)
	fl, rd, owner := l.p.keys.open(pf.ikey)
	rode := make(chan struct{})
	go func() { l.p.ridePrefetch(pf, fl, rd, owner); close(rode) }()
	waitFor(t, "the worker to attach", func() bool { return own.sp.Readers() == 1 })
	l.p.failFlight(pf.ikey, own, errors.New("origin down"))
	<-rode
	if got := l.seen(); len(got) != 0 {
		t.Fatalf("the worker fetched on its own after a failed flight: %v", got)
	}
	if _, held := l.p.keys.snapshot()[pf.ikey]; held {
		t.Fatal("the claim was not given back")
	}
}
