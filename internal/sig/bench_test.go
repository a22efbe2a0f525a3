package sig

import (
	"fmt"
	"testing"

	"appx/internal/httpmsg"
)

// benchGraph builds an n-signature graph with the shape the paper reports:
// mostly literal-URI signatures, a slice of wildcard-tail patterns, and a few
// leading-wildcard hosts that can only be regex-verified.
func benchGraph(n int) (*Graph, []*httpmsg.Request) {
	g := NewGraph("bench")
	var reqs []*httpmsg.Request
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		switch i % 10 {
		case 0: // wildcard tail under a shared prefix (trie bucket)
			g.Add(&Signature{ID: id, Method: "GET",
				URI: Concat(Literal(fmt.Sprintf("api%d.example/v1/items/", i%7)), Wildcard(""))})
			reqs = append(reqs, &httpmsg.Request{Method: "GET",
				Host: fmt.Sprintf("api%d.example", i%7), Path: fmt.Sprintf("/v1/items/%d", i)})
		case 1: // leading-wildcard host (root fallback, always regex)
			g.Add(&Signature{ID: id, Method: "GET",
				URI: Concat(Wildcard("host"), Literal(fmt.Sprintf("/api/feed%d", i)))})
			reqs = append(reqs, &httpmsg.Request{Method: "GET",
				Host: "cdn.example", Path: fmt.Sprintf("/api/feed%d", i)})
		default: // fully literal (exact map)
			g.Add(&Signature{ID: id, Method: "GET",
				URI: Literal(fmt.Sprintf("api%d.example/v1/res/%d", i%7, i))})
			reqs = append(reqs, &httpmsg.Request{Method: "GET",
				Host: fmt.Sprintf("api%d.example", i%7), Path: fmt.Sprintf("/v1/res/%d", i)})
		}
	}
	return g, reqs
}

// BenchmarkMatchRequest measures the indexed hot path at 1,000 signatures.
func BenchmarkMatchRequest(b *testing.B) {
	g, reqs := benchGraph(1000)
	g.matchIndex() // build outside the timed region, as in steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.MatchRequest(reqs[i%len(reqs)]); len(got) == 0 {
			b.Fatal("no match")
		}
	}
}

// BenchmarkMatchRequestNaive measures the seed's linear scan on the
// same graph and request stream, for the speedup figure in EXPERIMENTS.md.
func BenchmarkMatchRequestNaive(b *testing.B) {
	g, reqs := benchGraph(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.matchRequestScan(reqs[i%len(reqs)]); len(got) == 0 {
			b.Fatal("no match")
		}
	}
}

// BenchmarkCanonicalKey measures the memoized key on a repeated request (the
// cache-lookup hot path) …
func BenchmarkCanonicalKey(b *testing.B) {
	req := benchKeyRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if req.CanonicalKey() == "" {
			b.Fatal("empty key")
		}
	}
}

// … and BenchmarkCanonicalKeyCold the full recomputation.
func BenchmarkCanonicalKeyCold(b *testing.B) {
	req := benchKeyRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := req.Clone() // drops the memo
		if r.CanonicalKey() == "" {
			b.Fatal("empty key")
		}
	}
}

func benchKeyRequest() *httpmsg.Request {
	return &httpmsg.Request{
		Method: "GET", Scheme: "http", Host: "api.example", Path: "/v1/items/42",
		Query: []httpmsg.Field{{Key: "b", Value: "2"}, {Key: "a", Value: "1"}},
		Header: []httpmsg.Field{
			{Key: "User-Agent", Value: "bench/1.0"},
			{Key: "Accept", Value: "application/json"},
			{Key: "Cookie", Value: "session=abcdef"},
		},
	}
}
