package proxy

import (
	"reflect"
	"testing"

	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/sig"
)

func TestSplitURI(t *testing.T) {
	cases := []struct {
		in          string
		host, path  string
		queryLen    int
		firstKey    string
		firstVal    string
		ok          bool
		description string
	}{
		{"http://a.com/d.png", "a.com", "/d.png", 0, "", "", true, "scheme stripped"},
		{"https://a.com/d.png", "a.com", "/d.png", 0, "", "", true, "https stripped"},
		{"img.wish.example/img", "img.wish.example", "/img", 0, "", "", true, "schemeless"},
		{"http://h.example/p?cid=55&z=9", "h.example", "/p", 2, "cid", "55", true, "query split"},
		{"http://h.example/p?sp%20ace=a%26b", "h.example", "/p", 1, "sp ace", "a&b", true, "query decoding"},
		{"no-slash-at-all", "", "", 0, "", "", false, "no path"},
		{"/leading-slash", "", "", 0, "", "", false, "empty host"},
		{"http://h/p?bad=%zz", "", "", 0, "", "", false, "bad escape"},
		{"http://h/d%20x.png?a=1#top", "h", "/d x.png", 1, "a", "1", true, "path unescaped, fragment dropped"},
		{"http://h/p%zz", "", "", 0, "", "", false, "bad path escape"},
		{"http://h/p?z=1&a=2&z=0", "h", "/p", 3, "a", "2", true, "keys sorted"},
	}
	for _, c := range cases {
		host, path, query, ok := splitURI(c.in)
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v", c.description, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if host != c.host || path != c.path || len(query) != c.queryLen {
			t.Errorf("%s: got %q %q %v", c.description, host, path, query)
		}
		if c.queryLen > 0 && (query[0].Key != c.firstKey || query[0].Value != c.firstVal) {
			t.Errorf("%s: first query = %+v", c.description, query[0])
		}
	}
	// A repeated key keeps its values in their given order.
	_, _, query, _ := splitURI("http://h/p?z=1&a=2&z=0")
	if want := []httpmsg.Field{{Key: "a", Value: "2"}, {Key: "z", Value: "1"}, {Key: "z", Value: "0"}}; !reflect.DeepEqual(query, want) {
		t.Errorf("query = %v, want %v", query, want)
	}
}

// planFor compiles s against the predecessor pred the way the graph's
// adjacency index does, and returns the successor's plan.
func planFor(t *testing.T, s *sig.Signature, pred string) *sig.SuccPlan {
	t.Helper()
	return succFor(t, s, pred).SuccPlan
}

// succFor is planFor's plan joined with the successor's record, as New
// compiles it.
func succFor(t *testing.T, s *sig.Signature, pred string) *planSucc {
	t.Helper()
	g := sig.NewGraph("t")
	g.Add(&sig.Signature{ID: pred, Method: "GET", URI: sig.Literal("h.example/pred")})
	g.Add(s)
	g.AddDep(sig.Dependency{PredID: pred, SuccID: s.ID})
	lp := newSigTable(g, config.Default(g)).byID[pred].plan
	if lp == nil || len(lp.succs) != 1 {
		t.Fatalf("no read plan for %s → %s", pred, s.ID)
	}
	return &lp.succs[0]
}

func TestResolvePatternMissingDep(t *testing.T) {
	// A Dep on the plan's predecessor takes the instance's value; a Dep on
	// any other predecessor is missing until an exemplar supplies its slot.
	s := &sig.Signature{ID: "t:s#0", Method: "GET",
		URI: sig.Concat(sig.Literal("h/"), sig.DepValue("pred", "items[*].id"), sig.DepValue("other", "k"))}
	uri := planFor(t, s, "pred").URI
	if _, ok := resolve(uri, []string{"x"}, nil); ok {
		t.Fatal("resolved without the other predecessor's value")
	}
	if got, ok := resolve(uri, []string{"x"}, []string{"stale", "y"}); !ok || got != "h/xy" {
		t.Fatalf("resolve = %q, %v", got, ok)
	}
}

func TestDepPathsOrderAndDedup(t *testing.T) {
	s := &sig.Signature{
		ID:     "t:s#0",
		Method: "GET",
		URI:    sig.Concat(sig.Literal("h/x/"), sig.DepValue("p", "b.path")),
		Query: []sig.Field{
			{Key: "a", Value: sig.DepValue("p", "a.path")},
			{Key: "b", Value: sig.DepValue("p", "b.path")}, // duplicate path
			{Key: "c", Value: sig.DepValue("other", "c.path")},
		},
	}
	readPaths := func(pred string) []string {
		g := sig.NewGraph("t")
		g.Add(&sig.Signature{ID: pred, Method: "GET", URI: sig.Literal("h.example/pred")})
		g.Add(s)
		g.AddDep(sig.Dependency{PredID: pred, SuccID: s.ID})
		rp := g.ReadPlan(pred)
		var out []string
		for _, r := range rp.Succs[0].Reads {
			out = append(out, rp.Paths[r].String())
		}
		return out
	}
	if got := readPaths("p"); len(got) != 2 || got[0] != "b.path" || got[1] != "a.path" {
		t.Fatalf("reads from p = %v", got)
	}
	if got := readPaths("other"); len(got) != 1 || got[0] != "c.path" {
		t.Fatalf("reads from other = %v", got)
	}
	// Both uses of b.path share one instance value.
	sp := planFor(t, s, "p")
	if sp.URI.Deps[1] != 0 || sp.Query[0].Value.Deps[0] != 1 || sp.Query[1].Value.Deps[0] != 0 || sp.Query[2].Value.Deps[0] != -1 {
		t.Fatalf("compiled slots: uri %v query %v %v %v", sp.URI.Deps, sp.Query[0].Value.Deps, sp.Query[1].Value.Deps, sp.Query[2].Value.Deps)
	}
}

func TestCaptureWildsPositional(t *testing.T) {
	p := sig.Concat(sig.Literal("k="), sig.Wildcard("w1"), sig.Literal(";v="), sig.Wildcard("w2"))
	wilds, ok := p.Capture("k=abc;v=def", nil)
	if !ok || len(wilds) != 2 || wilds[0] != "abc" || wilds[1] != "def" {
		t.Fatalf("Capture = %v, %v", wilds, ok)
	}
	if _, ok := p.Capture("nope", nil); ok {
		t.Fatal("mismatched value captured")
	}
}

func TestExemplarOptionalFieldClassSwitch(t *testing.T) {
	// The proxy follows the most recent instance class (Figure 8): the
	// exemplar flips between including and omitting the optional field.
	s := mkSig()
	with := &httpmsg.Request{
		Method: "POST", Host: "h.example", Path: "/product/get",
		Header:   []httpmsg.Field{{Key: "Cookie", Value: "c=1"}},
		BodyKind: httpmsg.BodyForm,
		BodyForm: []httpmsg.Field{{Key: "cid", Value: "a"}, {Key: "_client", Value: "android"}, {Key: "credit_id", Value: "cc"}},
	}
	without := with.Clone()
	without.DeleteForm("credit_id")

	sp := succFor(t, s, "t:pred#0")
	exWith := sp.st.learnExemplar(with)
	exWithout := sp.st.learnExemplar(without)
	r1, _ := materialize(sp, []string{"x"}, exWith)
	r2, _ := materialize(sp, []string{"x"}, exWithout)
	if _, p := r1.GetForm("credit_id"); !p {
		t.Fatal("class with credit_id lost the field")
	}
	if _, p := r2.GetForm("credit_id"); p {
		t.Fatal("class without credit_id kept the field")
	}
}
