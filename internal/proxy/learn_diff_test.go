package proxy

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"appx/internal/apps"
	"appx/internal/cache"
	"appx/internal/config"
	"appx/internal/fuzz"
	"appx/internal/httpmsg"
	"appx/internal/jsonpath"
	"appx/internal/proxy/sched"
	"appx/internal/sig"
	"appx/internal/static"
)

// refLearner replays the parent commit's learn → instantiate → maybePrefetch
// sequence (learn_ref_test.go holds its helpers verbatim) over plain maps:
// full JSON tree, path text parsed per response, one map per instance. It
// shares nothing with the compiled read plans but learnExemplar, which this
// change does not touch.
type refLearner struct {
	p         *Proxy // for Config, Graph and the unchanged sharedEligible rule
	exemplars map[string]*exemplar
	pending   map[string][]refPending
	issued    map[string]bool
	skips     map[string]int64
}

type refPending struct {
	s     *sig.Signature
	pred  string
	combo map[string]string
}

func (r *refLearner) learn(s *sig.Signature, req *httpmsg.Request, resp *httpmsg.Response) (issued []string) {
	g, cfg := r.p.opts.Graph, r.p.opts.Config
	if len(g.DepsInto(s.ID)) > 0 {
		if ex := learnExemplar(s, req); ex != nil {
			r.exemplars[s.ID] = ex
			released := r.pending[s.ID]
			delete(r.pending, s.ID)
			for _, pi := range released {
				r.instantiate(pi.s, pi.pred, pi.combo, &issued)
			}
		}
	}
	if resp.Status != http.StatusOK {
		return issued
	}
	succIDs := g.Successors(s.ID)
	if len(succIDs) == 0 {
		return issued
	}
	doc, err := jsonpath.Decode(resp.Body)
	if err != nil {
		return issued
	}
	for _, succID := range succIDs {
		succ := g.Sig(succID)
		if succ == nil {
			continue
		}
		cpol := cfg.Policy(succ.Hash())
		if cpol != nil && (!cpol.Prefetch || !cpol.Condition.Eval(doc)) {
			continue
		}
		paths := refDepPaths(succ, s.ID)
		if len(paths) == 0 {
			continue
		}
		// The static policy keeps every depth-0 candidate, in this order.
		combos := refDepCombos(doc, paths)
		if len(combos) == 0 {
			r.skips[skipNoDepValues]++
			continue
		}
		for _, combo := range combos {
			r.instantiate(succ, s.ID, combo, &issued)
		}
	}
	return issued
}

func (r *refLearner) instantiate(s *sig.Signature, pred string, combo map[string]string, issued *[]string) {
	ex := r.exemplars[s.ID]
	if ex == nil {
		if len(r.pending[s.ID]) < maxPendingPerSig {
			r.pending[s.ID] = append(r.pending[s.ID], refPending{s: s, pred: pred, combo: combo})
		} else {
			r.skips[skipPendingFull]++
		}
		return
	}
	req, ok := refMaterialize(s, pred, combo, ex)
	if !ok {
		r.skips[skipNoExemplar]++
		return
	}
	if r.p.opts.Config.EffectiveProbability(r.p.opts.Config.Policy(s.Hash())) <= 0 {
		return
	}
	// The claim: one fetch per cache slot while its entry is fresh.
	scope := "user"
	if r.p.sharedEligible(s, req) {
		scope = cache.SharedScope
	}
	slot := scope + " " + req.CanonicalKey()
	if !r.issued[slot] {
		r.issued[slot] = true
		*issued = append(*issued, req.CanonicalKey())
	}
}

// diffHarness is a proxy whose issued prefetches are observable in issue
// order: a fifoProxy with chaining off and an upstream that records what it
// is asked for.
type diffHarness struct {
	p   *Proxy
	u   *user
	ref *refLearner

	mu      sync.Mutex
	fetched []string
}

// fifoProxy builds a proxy on a frozen clock whose prefetches run on one
// priority-free worker: signature priorities would reorder the queue as
// prefetch counts move, a FIFO worker dispatches in submission order.
func fifoProxy(t testing.TB, opts Options) *Proxy {
	now := time.Unix(1_700_000_000, 0)
	opts.Now = func() time.Time { return now }
	p := New(opts)
	p.sched.Close()
	p.sched = sched.NewWith(sched.Config{Workers: 1, Now: opts.Now})
	t.Cleanup(p.Close)
	return p
}

func newDiffHarness(t *testing.T, g *sig.Graph, cfg *config.Config) *diffHarness {
	h := &diffHarness{}
	up := UpstreamFunc(func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		h.mu.Lock()
		h.fetched = append(h.fetched, r.CanonicalKey())
		h.mu.Unlock()
		return &httpmsg.Response{Status: 200, Body: []byte(`{}`)}, nil
	})
	h.p = fifoProxy(t, Options{Graph: g, Config: cfg, Upstream: up, DisableChaining: true})
	h.u = h.p.user("10.0.0.1")
	h.ref = &refLearner{p: h.p, exemplars: map[string]*exemplar{}, pending: map[string][]refPending{},
		issued: map[string]bool{}, skips: map[string]int64{}}
	return h
}

// replay feeds one live transaction to both learners, through every
// signature it matches, and compares what each issued, in order.
func (h *diffHarness) replay(t *testing.T, step string, req *httpmsg.Request, resp *httpmsg.Response) {
	t.Helper()
	for _, s := range h.p.opts.Graph.MatchRequest(req) {
		want := h.ref.learn(s, req, resp)
		h.p.learn(h.u, h.p.sigs.byID[s.ID], req, resp, 0, true)
		h.p.Drain()
		h.mu.Lock()
		got := h.fetched
		h.fetched = nil
		h.mu.Unlock()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (%s %s%s as %s): issued\n %v\nreference\n %v", step, req.Method, req.Host, req.Path, s.ID, got, want)
		}
	}
}

// finish compares the end state: skip counts by reason and, per signature,
// the instances still parked for an exemplar that never came.
func (h *diffHarness) finish(t *testing.T) (issued int) {
	t.Helper()
	got := map[string]int64{
		skipNoExemplar:  h.p.skips.noExemplar.Load(),
		skipNoDepValues: h.p.skips.noDepValues.Load(),
		skipPendingFull: h.p.skips.pendingFull.Load(),
	}
	for reason, n := range got {
		if n != h.ref.skips[reason] {
			t.Fatalf("appx_prefetch_skipped_total{reason=%q} = %d, reference %d", reason, n, h.ref.skips[reason])
		}
	}
	if d := h.p.skips.depth.Load(); d != 0 {
		t.Fatalf("%d depth skips at depth 0", d)
	}
	parked := map[string][]string{}
	h.u.mu.Lock()
	for id, insts := range h.u.pending {
		rp := h.p.opts.Graph.ReadPlan(insts[0].sp.Pred)
		for _, pi := range insts {
			var kv []string
			for j, r := range pi.sp.Reads {
				kv = append(kv, rp.Paths[r].String()+"="+pi.vals[j])
			}
			sort.Strings(kv)
			parked[id] = append(parked[id], pi.sp.Pred+" "+strings.Join(kv, " "))
		}
	}
	h.u.mu.Unlock()
	want := map[string][]string{}
	for id, insts := range h.ref.pending {
		for _, pi := range insts {
			var kv []string
			for path, v := range pi.combo {
				kv = append(kv, path+"="+v)
			}
			sort.Strings(kv)
			want[id] = append(want[id], pi.pred+" "+strings.Join(kv, " "))
		}
	}
	if !reflect.DeepEqual(parked, want) {
		t.Fatalf("parked instances\n %v\nreference\n %v", parked, want)
	}
	return len(h.ref.issued)
}

// TestLearnPlanDifferential: compiled read plans + Scan + positional values
// issue exactly the requests the parent's tree + path-text + map code
// issued — same canonical keys, same order, same skip counts, same parked
// and released instances — over the recorded traffic of all five apps (with
// and without prefetch conditions) and over a 500-signature learn_fanout-
// shaped graph driven through every corner the plans compile away.
func TestLearnPlanDifferential(t *testing.T) {
	for _, app := range apps.All() {
		app := app
		g, err := static.Analyze(app.APK.Program, app.Name, app.APK.Entries(), static.Options{Features: static.AllFeatures()})
		if err != nil {
			t.Fatal(err)
		}
		txns, err := fuzz.Record(app.APK, app.Handler(0), fuzz.Options{Seed: 7, Events: 120})
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []struct {
			name string
			cond func(i int) *config.Condition
		}{
			{"default", func(int) *config.Condition { return nil }},
			{"conditions", func(i int) *config.Condition {
				// One that holds only where the field exists, one that never
				// parses, one that compares numbers.
				return []*config.Condition{
					{Field: "data.products[*].thumb", Op: "contains", Value: "img"},
					{Field: "data..bad", Op: "eq", Value: "x"},
					{Field: "data.products[*].aspect_rat", Op: "lt", Value: "100"},
					nil,
				}[i%4]
			}},
		} {
			t.Run(app.Name+"/"+variant.name, func(t *testing.T) {
				cfg := config.Default(g)
				for i, pol := range cfg.Policies {
					pol.Condition = variant.cond(i)
				}
				h := newDiffHarness(t, g, cfg)
				for i, tx := range txns {
					h.replay(t, fmt.Sprintf("txn %d", i), tx.Request, tx.Response)
				}
				if n := h.finish(t); n == 0 && variant.name == "default" {
					t.Fatal("the recorded session issued no prefetch at all")
				}
			})
		}
	}
	t.Run("fanout500", func(t *testing.T) { fanoutDifferential(t) })
}

// fanoutGraph is bench's learn_fanout chain — list → item → detail among
// 500 signatures — plus successors of list that hit what the chain alone
// does not: two response paths (a cartesian product), a path that does not
// parse, a dependency on a second predecessor, a JSON body with an optional
// field, an optional form field, and a signature whose exemplar never comes.
func fanoutGraph() *sig.Graph { return chainGraph(true) }

// chainGraph is list → item → detail among 500 signatures; extras adds
// fanoutGraph's further successors of list.
func chainGraph(extras bool) *sig.Graph {
	const host = "bench.example"
	g := sig.NewGraph("fanout")
	uriDep := func(prefix, pred, path string) sig.Pattern {
		return sig.Concat(sig.Literal(host+prefix), sig.DepValue(pred, path))
	}
	device := []sig.Field{{Key: "X-Device", Value: sig.Wildcard("device.id")}}
	add := func(s *sig.Signature, preds ...string) {
		s.App = "fanout"
		g.Add(s)
		for _, pred := range preds {
			g.AddDep(sig.Dependency{PredID: pred, SuccID: s.ID})
		}
	}
	add(&sig.Signature{ID: "f:list#0", Method: "GET", URI: sig.Literal(host + "/list"),
		Query: []sig.Field{{Key: "id", Value: sig.Wildcard("round")}}})
	add(&sig.Signature{ID: "f:other#0", Method: "GET", URI: sig.Literal(host + "/other")})
	add(&sig.Signature{ID: "f:item#0", Method: "GET", URI: uriDep("/item/", "f:list#0", "items[*].id"), Header: device}, "f:list#0")
	add(&sig.Signature{ID: "f:detail#0", Method: "GET", URI: uriDep("/detail/", "f:item#0", "detail[*].id"), Header: device}, "f:item#0")
	if extras {
		addFanoutExtras(add, host, uriDep)
	}
	for i := len(g.Sigs); i < 500; i++ {
		s := &sig.Signature{ID: fmt.Sprintf("f:filler#%d", i), Method: "GET"}
		if i%2 == 0 {
			s.URI = sig.Literal(fmt.Sprintf("%s/res/%d", host, i))
		} else {
			s.URI = sig.Concat(sig.Literal(fmt.Sprintf("%s/grp/%d/", host, i)), sig.Wildcard("id"))
		}
		add(s)
	}
	return g
}

func addFanoutExtras(add func(*sig.Signature, ...string), host string, uriDep func(prefix, pred, path string) sig.Pattern) {
	add(&sig.Signature{ID: "f:pair#0", Method: "GET", URI: sig.Literal(host + "/pair"), Query: []sig.Field{
		{Key: "a", Value: sig.DepValue("f:list#0", "items[*].id")},
		{Key: "t", Value: sig.Concat(sig.Literal("t-"), sig.DepValue("f:list#0", "tags[*]"), sig.Literal("-"), sig.DepValue("f:list#0", "items[*].id"))},
	}}, "f:list#0")
	add(&sig.Signature{ID: "f:bad#0", Method: "GET", URI: sig.Literal(host + "/bad"), Query: []sig.Field{
		{Key: "q", Value: sig.DepValue("f:list#0", "items[")}}}, "f:list#0")
	add(&sig.Signature{ID: "f:mix#0", Method: "GET", URI: sig.Literal(host + "/mix"), Query: []sig.Field{
		{Key: "a", Value: sig.DepValue("f:list#0", "id")},
		{Key: "b", Value: sig.DepValue("f:other#0", "key")},
	}}, "f:list#0", "f:other#0")
	add(&sig.Signature{ID: "f:json#0", Method: "POST", URI: sig.Literal(host + "/graph"), BodyKind: httpmsg.BodyJSON,
		BodyJSON: []sig.JSONField{
			{Path: "query.id", Value: sig.DepValue("f:list#0", "id")},
			{Path: "query.first", Value: sig.Concat(sig.Literal("i:"), sig.DepValue("f:list#0", "items[0].id"))},
			{Path: "opts.debug", Value: sig.Literal("1"), Optional: true},
		}}, "f:list#0")
	add(&sig.Signature{ID: "f:form#0", Method: "POST", URI: sig.Concat(sig.Wildcard("host"), sig.Literal("/product/get")),
		Header: []sig.Field{{Key: "cookie", Value: sig.Wildcard("cookie")}}, BodyKind: httpmsg.BodyForm,
		BodyForm: []sig.Field{
			{Key: "cid", Value: sig.DepValue("f:list#0", "items[*].id")},
			{Key: "_client", Value: sig.Literal("android")},
			{Key: "credit_id", Value: sig.Wildcard("branch"), Optional: true},
		}}, "f:list#0")
	add(&sig.Signature{ID: "f:never#0", Method: "GET", URI: uriDep("/never/", "f:list#0", "items[*].id")}, "f:list#0")
}

func fanoutDifferential(t *testing.T) {
	g := fanoutGraph()
	h := newDiffHarness(t, g, config.Default(g))
	const host = "bench.example"
	ua := httpmsg.Field{Key: "User-Agent", Value: "okhttp/3"}
	get := func(path string, extra ...httpmsg.Field) *httpmsg.Request {
		r := &httpmsg.Request{Method: "GET", Scheme: "http", Host: host, Header: []httpmsg.Field{ua}}
		r.Path, _, _ = strings.Cut(path, "?")
		if _, q, ok := strings.Cut(path, "?"); ok {
			k, v, _ := strings.Cut(q, "=")
			r.Query = []httpmsg.Field{{Key: k, Value: v}}
		}
		r.Header = append(r.Header, extra...)
		return r
	}
	ok := func(body string) *httpmsg.Response {
		return &httpmsg.Response{Status: 200, Body: []byte(body),
			Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}}}
	}
	list := func(round string, n int, tags string) string {
		var ids []string
		for i := 0; i < n; i++ {
			ids = append(ids, fmt.Sprintf(`{"id":"%s.%d"}`, round, i))
		}
		return fmt.Sprintf(`{"id":"%s","items":[%s],"tags":%s,"pad":"%s"}`, round, strings.Join(ids, ","), tags, strings.Repeat("p", 800))
	}
	dev := httpmsg.Field{Key: "X-Device", Value: "phone-1"}

	// Round 1 meets no exemplar: every successor parks.
	h.replay(t, "list r1", get("/list?id=r1"), ok(list("r1", 8, `["x","y"]`)))
	// Exemplars arrive late, one signature at a time, releasing what parked.
	h.replay(t, "item exemplar", get("/item/r1.3", dev), ok(`{"id":"r1.3","detail":[{"id":"r1.3.0"},{"id":"r1.3.1"}]}`))
	h.replay(t, "detail exemplar", get("/detail/r1.3.0", dev), ok(`{"id":"r1.3.0","leaf":true}`))
	h.replay(t, "pair exemplar", get("/pair?a=zz"), ok(`{}`))
	// The mix exemplar lacks "b": its other-predecessor slot stays
	// unresolved, so the parked instance is counted no_exemplar.
	h.replay(t, "mix exemplar", get("/mix?a=r0"), ok(`{}`))
	h.replay(t, "json exemplar", &httpmsg.Request{Method: "POST", Scheme: "http", Host: host, Path: "/graph",
		Header: []httpmsg.Field{ua}, BodyKind: httpmsg.BodyJSON, BodyJSON: map[string]any{"query": map[string]any{"id": "r0"}}}, ok(`{}`))
	form := &httpmsg.Request{Method: "POST", Scheme: "http", Host: "shop.example", Path: "/product/get",
		Header: []httpmsg.Field{{Key: "Cookie", Value: "sid=1"}, ua}, BodyKind: httpmsg.BodyForm,
		BodyForm: []httpmsg.Field{{Key: "_client", Value: "android"}, {Key: "cid", Value: "c0"}}}
	h.replay(t, "form exemplar, class without credit_id", form, ok(`{}`))
	// Round 2 meets every exemplar but f:never's and issues straight away.
	h.replay(t, "list r2", get("/list?id=r2"), ok(list("r2", 8, `["x"]`)))
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("r2.%d", i)
		h.replay(t, "item "+id, get("/item/"+id, dev), ok(fmt.Sprintf(`{"id":"%s","detail":[{"id":"%s.0"},{"id":"%s.1"}]}`, id, id, id)))
	}
	// The instance class flips: credit_id now present.
	withCredit := form.Clone()
	withCredit.SetForm("credit_id", "cc-9")
	h.replay(t, "form exemplar, class with credit_id", withCredit, ok(`{}`))
	// Odd documents: numbers and booleans as values, a duplicated key (the
	// last wins), escapes, an empty list, a missing path, more than
	// maxFanOut items, values needing URL splitting.
	for i, body := range []string{
		`{"id":3.0,"items":[{"id":1},{"id":2.5},{"id":true},{"id":null},{"id":{}}],"tags":[1e2]}`,
		`{"id":"dup","items":[{"id":"gone"}],"tags":["a"],"items":[{"id":"kept","id":"last"}]}`,
		`{"id":"escé\n","items":[{"id":"a\/b 😀"},{"id":"q?x=1&y=2"}],"tags":["t\\"]}`,
		`{"id":"empty","items":[],"tags":["x"]}`,
		`{"id":"notags","items":[{"id":"n.0"}]}`,
		list("big", 100, `["p","q","r"]`),
		list("big2", 100, `["p"]`), list("big3", 100, `["p"]`), list("big4", 100, `["p"]`), list("big5", 100, `["p"]`),
		`{"id":"r1","items":[{"id":"r1.0"}],"tags":["x"]}`, // all seen before: nothing new to issue
	} {
		h.replay(t, fmt.Sprintf("odd list %d", i), get(fmt.Sprintf("/list?id=odd%d", i)), ok(body))
	}
	// Documents learning must ignore whole: broken, trailing bytes, a
	// number outside float64, a non-200.
	for i, resp := range []*httpmsg.Response{
		ok(`{"id":"broken","items":[{"id":"b.0"}`), ok(list("trail", 2, `["x"]`) + "x"), ok(`{"id":"inf","items":[{"id":"i.0"}],"tags":[1e999]}`),
		{Status: 500, Body: []byte(list("err", 2, `["x"]`))},
	} {
		h.replay(t, fmt.Sprintf("ignored list %d", i), get(fmt.Sprintf("/list?id=bad%d", i)), resp)
	}
	if n := h.finish(t); n < 300 {
		t.Fatalf("only %d prefetches issued over the whole script", n)
	}
	for _, reason := range []string{skipNoExemplar, skipNoDepValues, skipPendingFull} {
		if h.ref.skips[reason] == 0 {
			t.Fatalf("the script never produced a %s skip", reason)
		}
	}
}

// TestParkedInstanceHoldsValuesOnly: a parked instance used to carry the
// predecessor's whole decoded body (pendingInstance.doc, read by nothing)
// for as long as it waited. It now holds its extracted values and the
// shared, compiled plan — nothing that scales with the response.
func TestParkedInstanceHoldsValuesOnly(t *testing.T) {
	typ := reflect.TypeOf(pendingInstance{})
	for i := 0; i < typ.NumField(); i++ {
		if k := typ.Field(i).Type.Kind(); k == reflect.Interface || k == reflect.Map {
			t.Fatalf("pendingInstance.%s is a %s: parked instances must not hold decoded trees or per-instance maps", typ.Field(i).Name, k)
		}
	}
	g := fanoutGraph()
	h := newDiffHarness(t, g, config.Default(g))
	body := `{"id":"r1","items":[{"id":"r1.0"},{"id":"r1.1"}],"tags":["x"],"pad":"` + strings.Repeat("p", 1<<20) + `"}`
	req := &httpmsg.Request{Method: "GET", Scheme: "http", Host: "bench.example", Path: "/list", Query: []httpmsg.Field{{Key: "id", Value: "r1"}}}
	h.p.learn(h.u, h.p.sigs.byID["f:list#0"], req, &httpmsg.Response{Status: 200, Body: []byte(body)}, 0, true)
	h.u.mu.Lock()
	defer h.u.mu.Unlock()
	if len(h.u.pending["f:item#0"]) != 2 {
		t.Fatalf("parked %d item instances, want 2", len(h.u.pending["f:item#0"]))
	}
	for id, insts := range h.u.pending {
		for _, pi := range insts {
			held := 0
			for _, v := range pi.vals {
				held += len(v)
			}
			if len(pi.vals) != len(pi.sp.Reads) || held > 64 {
				t.Fatalf("%s parked with %d values (%d bytes) for %d reads of a 1 MiB body", id, len(pi.vals), held, len(pi.sp.Reads))
			}
		}
	}
}
