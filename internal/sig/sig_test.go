package sig

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"appx/internal/httpmsg"
)

// wishGraph models the paper's Figure 5: get-feed (①) → product/get (②).
func wishGraph() *Graph {
	g := NewGraph("wish")
	feed := &Signature{
		ID:     "wish:Main.loadFeed#0",
		App:    "wish",
		Method: "GET",
		URI:    Concat(Wildcard("host"), Literal("/api/get-feed")),
		Header: []Field{{Key: "User-Agent", Value: Wildcard("device.userAgent")}},
		RespFields: []string{
			"data.products[*].product_info.id",
		},
	}
	detail := &Signature{
		ID:       "wish:Detail.load#0",
		App:      "wish",
		Method:   "POST",
		URI:      Concat(Wildcard("host"), Literal("/product/get")),
		BodyKind: httpmsg.BodyForm,
		BodyForm: []Field{
			{Key: "cid", Value: DepValue("wish:Main.loadFeed#0", "data.products[*].product_info.id")},
			{Key: "_client", Value: Literal("android")},
			{Key: "credit_id", Value: Wildcard("branch"), Optional: true},
		},
	}
	g.Add(feed)
	g.Add(detail)
	g.AddDep(Dependency{
		PredID:   feed.ID,
		SuccID:   detail.ID,
		RespPath: "data.products[*].product_info.id",
		Loc:      FieldLoc{Where: "form", Key: "cid"},
	})
	return g
}

func TestPatternString(t *testing.T) {
	p := Concat(Wildcard("host"), Literal("/api/get-feed"))
	if got := p.String(); got != ".*/api/get-feed" {
		t.Fatalf("String = %q", got)
	}
}

func TestPatternRegexp(t *testing.T) {
	p := Concat(Wildcard(""), Literal("/img"), Wildcard(""))
	re, err := p.Regexp()
	if err != nil {
		t.Fatalf("Regexp: %v", err)
	}
	if !re.MatchString("cdn.wish.example/img?x=1") {
		t.Fatal("regexp should match")
	}
	if re.MatchString("cdn.wish.example/other") {
		t.Fatal("regexp should not match")
	}
}

func TestPatternRegexpEscapesLiterals(t *testing.T) {
	p := Literal("/a.b/c?d=1")
	re, _ := p.Regexp()
	if !re.MatchString("/a.b/c?d=1") {
		t.Fatal("literal should match itself")
	}
	if re.MatchString("/aXb/c?d=1") {
		t.Fatal("dot must be escaped")
	}
}

func TestPatternPredicates(t *testing.T) {
	lit := Literal("x")
	if s, ok := lit.IsLiteral(); !ok || s != "x" {
		t.Fatal("IsLiteral failed")
	}
	if lit.HasDep() || lit.HasUnknown() {
		t.Fatal("literal misclassified")
	}
	dep := DepValue("p", "a.b")
	if !dep.HasDep() || !dep.HasUnknown() {
		t.Fatal("dep misclassified")
	}
	w := Wildcard("o")
	if w.HasDep() || !w.HasUnknown() {
		t.Fatal("wild misclassified")
	}
	if _, ok := Concat(lit, w).IsLiteral(); ok {
		t.Fatal("concat misclassified as literal")
	}
}

func TestMatchesRequest(t *testing.T) {
	g := wishGraph()
	feedReq := &httpmsg.Request{Method: "GET", Host: "wish.example", Path: "/api/get-feed"}
	s := g.Sig("wish:Main.loadFeed#0")
	if !s.MatchesRequest(feedReq) {
		t.Fatal("feed signature should match feed request")
	}
	if s.MatchesRequest(&httpmsg.Request{Method: "POST", Host: "wish.example", Path: "/api/get-feed"}) {
		t.Fatal("method mismatch should not match")
	}
	if s.MatchesRequest(&httpmsg.Request{Method: "GET", Host: "wish.example", Path: "/api/get-feed/x"}) {
		t.Fatal("URI suffix should not match anchored pattern")
	}
}

func TestMatchRequestSpecificityOrder(t *testing.T) {
	g := NewGraph("a")
	g.Add(&Signature{ID: "generic", Method: "GET", URI: Concat(Wildcard(""), Literal("/img"), Wildcard(""))})
	g.Add(&Signature{ID: "specific", Method: "GET", URI: Concat(Wildcard(""), Literal("/img/full/size"), Wildcard(""))})
	req := &httpmsg.Request{Method: "GET", Host: "h", Path: "/img/full/size"}
	got := g.MatchRequest(req)
	if len(got) != 2 || got[0].ID != "specific" {
		ids := make([]string, len(got))
		for i, s := range got {
			ids[i] = s.ID
		}
		t.Fatalf("MatchRequest order = %v, want specific first", ids)
	}
}

func TestGraphTopology(t *testing.T) {
	g := wishGraph()
	if got := g.Predecessors("wish:Detail.load#0"); !reflect.DeepEqual(got, []string{"wish:Main.loadFeed#0"}) {
		t.Fatalf("Predecessors = %v", got)
	}
	if got := g.Successors("wish:Main.loadFeed#0"); !reflect.DeepEqual(got, []string{"wish:Detail.load#0"}) {
		t.Fatalf("Successors = %v", got)
	}
	if got := g.Prefetchable(); !reflect.DeepEqual(got, []string{"wish:Detail.load#0"}) {
		t.Fatalf("Prefetchable = %v", got)
	}
	if got := g.MaxChainLen(); got != 2 {
		t.Fatalf("MaxChainLen = %d, want 2", got)
	}
}

func TestChain(t *testing.T) {
	g := NewGraph("doordash")
	for _, id := range []string{"list", "store", "menu", "suggest"} {
		g.Add(&Signature{ID: id, Method: "GET", URI: Literal("/" + id)})
	}
	g.AddDep(Dependency{PredID: "list", SuccID: "store", RespPath: "id", Loc: FieldLoc{Where: "query", Key: "id"}})
	g.AddDep(Dependency{PredID: "store", SuccID: "menu", RespPath: "id", Loc: FieldLoc{Where: "query", Key: "id"}})
	g.AddDep(Dependency{PredID: "menu", SuccID: "suggest", RespPath: "id", Loc: FieldLoc{Where: "query", Key: "id"}})
	want := []string{"list", "store", "menu", "suggest"}
	if got := g.Chain(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Chain = %v, want %v", got, want)
	}
	if got := g.MaxChainLen(); got != 4 {
		t.Fatalf("MaxChainLen = %d, want 4", got)
	}
}

func TestMaxChainLenHandlesCycles(t *testing.T) {
	g := NewGraph("x")
	g.Add(&Signature{ID: "a", Method: "GET", URI: Literal("/a")})
	g.Add(&Signature{ID: "b", Method: "GET", URI: Literal("/b")})
	g.AddDep(Dependency{PredID: "a", SuccID: "b", RespPath: "p", Loc: FieldLoc{Where: "query", Key: "k"}})
	g.AddDep(Dependency{PredID: "b", SuccID: "a", RespPath: "p", Loc: FieldLoc{Where: "query", Key: "k"}})
	if got := g.MaxChainLen(); got != 2 {
		t.Fatalf("MaxChainLen with cycle = %d, want 2", got)
	}
}

func TestAddDepDeduplicates(t *testing.T) {
	g := wishGraph()
	n := len(g.Deps)
	g.AddDep(g.Deps[0])
	if len(g.Deps) != n {
		t.Fatal("duplicate dependency added")
	}
}

func TestAddReplacesByID(t *testing.T) {
	g := wishGraph()
	n := len(g.Sigs)
	g.Add(&Signature{ID: "wish:Detail.load#0", Method: "GET", URI: Literal("/new")})
	if len(g.Sigs) != n {
		t.Fatalf("Add with same ID grew Sigs to %d", len(g.Sigs))
	}
	if s := g.Sig("wish:Detail.load#0"); s.Method != "GET" {
		t.Fatal("Add did not replace")
	}
}

func TestHashStableAndSensitive(t *testing.T) {
	a := wishGraph().Sig("wish:Detail.load#0")
	b := wishGraph().Sig("wish:Detail.load#0")
	if a.Hash() != b.Hash() {
		t.Fatal("hash not deterministic")
	}
	if len(a.Hash()) != 12 {
		t.Fatalf("hash length = %d", len(a.Hash()))
	}
	// A signature is hashed once, so the variant is changed before its
	// first Hash call.
	c := wishGraph().Sig("wish:Detail.load#0")
	c.Method = "PUT"
	if a.Hash() == c.Hash() {
		t.Fatal("hash insensitive to method")
	}
}

// Hash runs for every prefetch instance the proxy considers: after the first
// call it must cost nothing, and concurrent first calls must agree (run
// under -race).
func TestHashMemoised(t *testing.T) {
	s := wishGraph().Sig("wish:Detail.load#0")
	want := wishGraph().Sig("wish:Detail.load#0").Hash()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := s.Hash(); got != want {
				t.Errorf("concurrent Hash = %q, want %q", got, want)
			}
		}()
	}
	wg.Wait()
	if n := testing.AllocsPerRun(100, func() { s.Hash() }); n != 0 {
		t.Fatalf("Hash allocates %v times per call after the first, want 0", n)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	g := wishGraph()
	b, err := g.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	g2, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(g2.Sigs) != len(g.Sigs) || len(g2.Deps) != len(g.Deps) {
		t.Fatalf("round trip lost data: %d/%d sigs, %d/%d deps",
			len(g2.Sigs), len(g.Sigs), len(g2.Deps), len(g.Deps))
	}
	if g2.Sig("wish:Detail.load#0") == nil {
		t.Fatal("round-tripped graph lost index")
	}
	if g2.Sig("wish:Detail.load#0").Hash() != g.Sig("wish:Detail.load#0").Hash() {
		t.Fatal("hash changed across serialization")
	}
}

// Property: a pattern built from random literal/wildcard parts always
// matches a string built by substituting arbitrary text for wildcards.
func TestPatternRegexpMatchesInstancesProperty(t *testing.T) {
	f := func(kinds []bool, fills []string) bool {
		if len(kinds) == 0 || len(kinds) > 8 {
			return true
		}
		var p Pattern
		var inst strings.Builder
		fi := 0
		for i, isLit := range kinds {
			if isLit {
				litStr := "seg" + string(rune('a'+i))
				p = Concat(p, Literal(litStr))
				inst.WriteString(litStr)
			} else {
				p = Concat(p, Wildcard(""))
				fill := "x"
				if fi < len(fills) {
					// Strip newlines: '.' does not match '\n'.
					fill = strings.Map(func(r rune) rune {
						if r == '\n' || r == '\r' {
							return 'n'
						}
						return r
					}, fills[fi])
					fi++
				}
				inst.WriteString(fill)
			}
		}
		re, err := p.Regexp()
		if err != nil {
			return false
		}
		return re.MatchString(inst.String())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldLocString(t *testing.T) {
	l := FieldLoc{Where: "form", Key: "cid"}
	if l.String() != "form:cid" {
		t.Fatalf("FieldLoc.String = %q", l.String())
	}
}

func TestMerge(t *testing.T) {
	a := wishGraph()
	b := NewGraph("geek")
	b.Add(&Signature{ID: "geek:Main.f#0", Method: "GET", URI: Literal("api.geek.example/feed")})
	b.Add(&Signature{ID: "geek:Det.g#0", Method: "GET", URI: Literal("api.geek.example/item")})
	b.AddDep(Dependency{PredID: "geek:Main.f#0", SuccID: "geek:Det.g#0", RespPath: "id",
		Loc: FieldLoc{Where: "query", Key: "id"}})

	m := Merge(a, b)
	if len(m.Sigs) != len(a.Sigs)+len(b.Sigs) {
		t.Fatalf("merged sigs = %d", len(m.Sigs))
	}
	if len(m.Deps) != len(a.Deps)+len(b.Deps) {
		t.Fatalf("merged deps = %d", len(m.Deps))
	}
	if m.Sig("geek:Det.g#0") == nil || m.Sig("wish:Detail.load#0") == nil {
		t.Fatal("merged graph lost signatures")
	}
	// Per-app topology preserved.
	if got := m.Predecessors("geek:Det.g#0"); len(got) != 1 || got[0] != "geek:Main.f#0" {
		t.Fatalf("merged preds = %v", got)
	}
	if single := Merge(a); single.App != "wish" {
		t.Fatalf("single merge app = %q", single.App)
	}
	if Merge(a, nil) == nil {
		t.Fatal("nil graph not tolerated")
	}
}

// TestUnmarshalRefusesJSONBodies: a request body is form fields or bytes.
// A signature file naming JSON body fields, or the retired body kind 2, is
// refused rather than loaded as a signature that sends something else.
func TestUnmarshalRefusesJSONBodies(t *testing.T) {
	for _, s := range []string{
		`{"id":"a:x#0","method":"POST","uri":{"parts":[{"kind":"lit","lit":"h/x"}]},"bodyKind":3,` +
			`"bodyJSON":[{"path":"q.id","value":{"parts":[{"kind":"lit","lit":"1"}]}}]}`,
		`{"id":"a:x#0","method":"POST","uri":{"parts":[{"kind":"lit","lit":"h/x"}]},"bodyKind":2}`,
	} {
		if _, err := Unmarshal([]byte(`{"app":"a","sigs":[` + s + `]}`)); err == nil || !strings.Contains(err.Error(), "a:x#0") {
			t.Errorf("Unmarshal(%s) = %v, want an error naming the signature", s, err)
		}
	}
	ok := `{"app":"a","sigs":[{"id":"a:x#0","method":"POST","uri":{"parts":[{"kind":"lit","lit":"h/x"}]},"bodyKind":3}]}`
	if g, err := Unmarshal([]byte(ok)); err != nil || g.Sig("a:x#0").BodyKind != httpmsg.BodyRaw {
		t.Fatalf("Unmarshal of a raw-body signature: %v", err)
	}
}
