package sig

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"appx/internal/httpmsg"
)

// --- differential testing: indexed MatchRequest ≡ naive scan -------------

// matchRequestScan is the seed's O(|Sigs|·regex) matcher, kept as the
// reference implementation the differential test holds MatchRequest to:
// every matching signature, most-specific-first (longest total literal
// length), input order among equals.
func (g *Graph) matchRequestScan(r *httpmsg.Request) []*Signature {
	var out []*Signature
	for _, s := range g.Sigs {
		if s.MatchesRequest(r) {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return literalLen(out[i].URI) > literalLen(out[j].URI)
	})
	return out
}

// randPattern builds a random URI pattern over a small segment pool so that
// prefixes collide across signatures (the interesting case for the trie).
func randPattern(rnd *rand.Rand) Pattern {
	hosts := []string{"api.a.example", "api.b.example", "cdn.c.example", "h"}
	segs := []string{"/v1", "/v2", "/items", "/feed", "/img", "/x"}
	var p Pattern
	switch rnd.Intn(10) {
	case 0, 1, 2, 3: // fully literal
		p = Literal(hosts[rnd.Intn(len(hosts))])
		for n := rnd.Intn(3); n >= 0; n-- {
			p = Concat(p, Literal(segs[rnd.Intn(len(segs))]))
		}
		if rnd.Intn(3) == 0 { // multi-part literal, still exact-map material
			p = Concat(p, Literal(fmt.Sprintf("/%d", rnd.Intn(8))))
		}
	case 4, 5, 6: // literal prefix + wild tail (trie bucket)
		p = Literal(hosts[rnd.Intn(len(hosts))] + segs[rnd.Intn(len(segs))] + "/")
		p = Concat(p, Wildcard(""))
		if rnd.Intn(2) == 0 {
			p = Concat(p, Literal(segs[rnd.Intn(len(segs))]), Wildcard(""))
		}
	case 7, 8: // leading wildcard host (paper shape; root fallback bucket)
		p = Concat(Wildcard("host"), Literal(segs[rnd.Intn(len(segs))]+segs[rnd.Intn(len(segs))]))
		if rnd.Intn(2) == 0 {
			p = Concat(p, Wildcard(""))
		}
	default: // dep part in the URI (also an unknown)
		p = Concat(Literal(hosts[rnd.Intn(len(hosts))]+"/go/"), DepValue("pred", "id"))
	}
	return p
}

// instantiate renders a concrete URI from the pattern with random wild fills.
func instantiateURI(rnd *rand.Rand, p Pattern) string {
	fills := []string{"", "1", "abc", "a/b", "0/full/size"}
	var out string
	for _, part := range p.Parts {
		if part.Kind == Lit {
			out += part.Lit
		} else {
			out += fills[rnd.Intn(len(fills))]
		}
	}
	return out
}

func TestMatchRequestDifferential(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	methods := []string{"GET", "POST", "PUT", "get"}
	pairs := 0
	for gi := 0; gi < 120; gi++ {
		g := NewGraph("diff")
		nsigs := 3 + rnd.Intn(38)
		for i := 0; i < nsigs; i++ {
			g.Add(&Signature{
				ID:     fmt.Sprintf("s%d", i),
				Method: methods[rnd.Intn(3)],
				URI:    randPattern(rnd),
			})
		}
		// Mutate mid-stream sometimes, so invalidation is part of the
		// property, not a separate code path.
		for ri := 0; ri < 12; ri++ {
			if ri == 6 && rnd.Intn(2) == 0 {
				g.Add(&Signature{ID: "late", Method: "GET", URI: randPattern(rnd)})
			}
			var uri string
			if rnd.Intn(5) == 0 {
				uri = "no.such.example/none" // deliberate miss
			} else {
				uri = instantiateURI(rnd, g.Sigs[rnd.Intn(len(g.Sigs))].URI)
			}
			req := &httpmsg.Request{Method: methods[rnd.Intn(len(methods))], Host: uri}
			want := g.matchRequestScan(req)
			got := g.MatchRequest(req)
			if len(got) != len(want) {
				t.Fatalf("graph %d req %q: indexed %d matches, scan %d", gi, uri, len(got), len(want))
			}
			for k := range want {
				if got[k].ID != want[k].ID {
					gotIDs := make([]string, len(got))
					wantIDs := make([]string, len(want))
					for m := range got {
						gotIDs[m], wantIDs[m] = got[m].ID, want[m].ID
					}
					t.Fatalf("graph %d req %q: indexed %v, scan %v", gi, uri, gotIDs, wantIDs)
				}
			}
			pairs++
		}
	}
	if pairs < 1000 {
		t.Fatalf("only %d request/graph pairs exercised, want >= 1000", pairs)
	}
}

// Overlap of exact-literal and wildcard patterns on one URI, with a literal
// tie: the index must reproduce the scan's (literal length desc, insertion
// order) ordering without a hot-path sort.
func TestMatchRequestExactAndTrieMerge(t *testing.T) {
	g := NewGraph("merge")
	g.Add(&Signature{ID: "wild-early", Method: "GET", URI: Concat(Literal("h/p"), Wildcard(""))})
	g.Add(&Signature{ID: "exact", Method: "GET", URI: Literal("h/p")})
	g.Add(&Signature{ID: "wild-long", Method: "GET", URI: Concat(Literal("h/p"), Wildcard(""), Literal("x"))})
	req := &httpmsg.Request{Method: "GET", Host: "h", Path: "/p"}
	got := g.MatchRequest(req)
	want := g.matchRequestScan(req)
	if len(got) != 2 || len(want) != 2 || got[0].ID != want[0].ID || got[1].ID != want[1].ID {
		t.Fatalf("merge order: indexed %v scan %v", ids(got), ids(want))
	}
	// Equal literal length (3): insertion order breaks the tie.
	if got[0].ID != "wild-early" || got[1].ID != "exact" {
		t.Fatalf("tie order = %v, want [wild-early exact]", ids(got))
	}
}

func ids(sigs []*Signature) []string {
	out := make([]string, len(sigs))
	for i, s := range sigs {
		out[i] = s.ID
	}
	return out
}

// --- concurrency: the lazy URIRegexp compile raced before this PR --------

// TestMatchRequestConcurrent hammers matching and direct URIRegexp access on
// a cold graph from many goroutines. Under -race this failed against the
// seed's unsynchronized check-then-write regexp cache.
func TestMatchRequestConcurrent(t *testing.T) {
	g := NewGraph("conc")
	for i := 0; i < 64; i++ {
		g.Add(&Signature{ID: fmt.Sprintf("w%d", i), Method: "GET",
			URI: Concat(Wildcard("host"), Literal(fmt.Sprintf("/api/e%d/", i)), Wildcard(""))})
		g.Add(&Signature{ID: fmt.Sprintf("l%d", i), Method: "GET",
			URI: Literal(fmt.Sprintf("api.example/lit/%d", i))})
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				req := &httpmsg.Request{Method: "GET", Host: "h.example",
					Path: fmt.Sprintf("/api/e%d/%d", i%64, i)}
				if got := g.MatchRequest(req); len(got) != 1 {
					t.Errorf("worker %d: %d matches for %s", w, len(got), req.Path)
					return
				}
				// Direct signature-level access, the exact seed race site.
				g.Sigs[(w+i)%len(g.Sigs)].URIRegexp()
			}
		}(w)
	}
	wg.Wait()
}

// --- telemetry and index shape -------------------------------------------

func TestExactMatchZeroRegex(t *testing.T) {
	g := NewGraph("exact")
	for i := 0; i < 50; i++ {
		g.Add(&Signature{ID: fmt.Sprintf("lit%d", i), Method: "GET",
			URI: Literal(fmt.Sprintf("api.example/item/%d", i))})
	}
	// A wildcard signature under a different prefix must not cost the
	// literal lookups any regex evaluations.
	g.Add(&Signature{ID: "wild", Method: "GET",
		URI: Concat(Literal("cdn.example/static/"), Wildcard(""))})
	for i := 0; i < 50; i++ {
		req := &httpmsg.Request{Method: "GET", Host: "api.example", Path: fmt.Sprintf("/item/%d", i)}
		if got := g.MatchRequest(req); len(got) != 1 {
			t.Fatalf("item %d: %d matches", i, len(got))
		}
	}
	mt := g.MatchTelemetry()
	if mt.Lookups != 50 || mt.ExactHits != 50 {
		t.Fatalf("lookups/exactHits = %d/%d, want 50/50", mt.Lookups, mt.ExactHits)
	}
	if mt.RegexEvals != 0 {
		t.Fatalf("literal-URI lookups performed %d regex evaluations, want 0", mt.RegexEvals)
	}
	if mt.TrieCandidates != 0 {
		t.Fatalf("literal-URI lookups examined %d trie candidates, want 0", mt.TrieCandidates)
	}
}

func TestTrieNarrowsCandidates(t *testing.T) {
	g := NewGraph("trie")
	// 40 wildcard signatures split across two disjoint prefixes.
	for i := 0; i < 20; i++ {
		g.Add(&Signature{ID: fmt.Sprintf("a%d", i), Method: "GET",
			URI: Concat(Literal(fmt.Sprintf("a.example/x%d/", i)), Wildcard(""))})
		g.Add(&Signature{ID: fmt.Sprintf("b%d", i), Method: "GET",
			URI: Concat(Literal(fmt.Sprintf("b.example/y%d/", i)), Wildcard(""))})
	}
	req := &httpmsg.Request{Method: "GET", Host: "a.example", Path: "/x7/123"}
	if got := g.MatchRequest(req); len(got) != 1 || got[0].ID != "a7" {
		t.Fatalf("MatchRequest = %v", ids(got))
	}
	mt := g.MatchTelemetry()
	if mt.TrieCandidates >= 40 {
		t.Fatalf("trie examined %d candidates — no narrowing over the full scan", mt.TrieCandidates)
	}
	if mt.TrieCandidates < 1 || mt.RegexEvals < 1 || mt.RegexMatches != 1 {
		t.Fatalf("telemetry = %+v", mt)
	}
}

// --- invalidation rules ---------------------------------------------------

func TestMatchIndexInvalidatedByAdd(t *testing.T) {
	g := NewGraph("inv")
	g.Add(&Signature{ID: "a", Method: "GET", URI: Literal("h/a")})
	req := &httpmsg.Request{Method: "GET", Host: "h", Path: "/b"}
	if got := g.MatchRequest(req); len(got) != 0 {
		t.Fatalf("unexpected match %v", ids(got))
	}
	g.Add(&Signature{ID: "b", Method: "GET", URI: Literal("h/b")})
	if got := g.MatchRequest(req); len(got) != 1 || got[0].ID != "b" {
		t.Fatalf("index not invalidated by Add: %v", ids(got))
	}
	// Replace-by-ID must also take effect.
	g.Add(&Signature{ID: "b", Method: "GET", URI: Literal("h/b2")})
	if got := g.MatchRequest(req); len(got) != 0 {
		t.Fatalf("index kept replaced signature: %v", ids(got))
	}
}

func TestAdjIndexInvalidatedByAddDep(t *testing.T) {
	g := NewGraph("adj")
	g.Add(&Signature{ID: "p", Method: "GET", URI: Literal("h/p")})
	g.Add(&Signature{ID: "s", Method: "GET", URI: Literal("h/s")})
	if got := g.Prefetchable(); len(got) != 0 {
		t.Fatalf("Prefetchable before deps = %v", got)
	}
	g.AddDep(Dependency{PredID: "p", SuccID: "s", RespPath: "id", Loc: FieldLoc{Where: "query", Key: "id"}})
	if got := g.Prefetchable(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("adjacency index not invalidated by AddDep: %v", got)
	}
	if got := g.Successors("p"); len(got) != 1 || got[0] != "s" {
		t.Fatalf("Successors = %v", got)
	}
	if got := g.DepsInto("s"); len(got) != 1 || got[0].PredID != "p" {
		t.Fatalf("DepsInto = %v", got)
	}
}

func TestAddDepDedupAfterUnmarshal(t *testing.T) {
	g := wishGraph()
	b, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	n := len(g2.Deps)
	g2.AddDep(g2.Deps[0])
	if len(g2.Deps) != n {
		t.Fatal("depSet not rebuilt by Unmarshal: duplicate added")
	}
}
