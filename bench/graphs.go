package main

import (
	"fmt"

	"appx/internal/sig"
)

// The loopback workloads' signature graphs are written by hand in the shape
// static analysis emits: literal URIs with a run-time query value for the
// list-like predecessors (exact-map matches), URIs ending in a dependency or
// wildcard part for their successors (prefix-trie plus regex matches).

const (
	sigList    = "bench:list#0"
	sigItem    = "bench:item#0"
	sigDetail  = "bench:detail#0"
	sigBlob    = "bench:blob#0"
	sigCatalog = "bench:catalog#0"
	sigAsset   = "bench:asset#0"
)

// deviceHeader makes a signature per-user: a run-time header the analysis
// could not resolve, learned from each user's live exemplar.
var deviceHeader = []sig.Field{{Key: "X-Device", Value: sig.Wildcard("device.id")}}

func uriDep(prefix, pred, path string) sig.Pattern {
	return sig.Concat(sig.Literal(originHost+prefix), sig.DepValue(pred, path))
}

func addDep(g *sig.Graph, pred, succ, path string) {
	g.AddDep(sig.Dependency{PredID: pred, SuccID: succ, RespPath: path,
		Loc: sig.FieldLoc{Where: "uri", Key: "1"}})
}

// chainGraph is list → item (→ detail when withDetail), padded with filler
// signatures nothing requests: half literal, half regex.
func chainGraph(app string, withDetail bool, filler int) *sig.Graph {
	g := sig.NewGraph(app)
	g.Add(&sig.Signature{ID: sigList, App: app, Method: "GET", URI: sig.Literal(originHost + "/list"),
		Query: []sig.Field{{Key: "id", Value: sig.Wildcard("round")}}, RespFields: []string{"items[*].id"}})
	g.Add(&sig.Signature{ID: sigItem, App: app, Method: "GET", URI: uriDep("/item/", sigList, "items[*].id"),
		Header: deviceHeader, RespFields: []string{"detail[*].id"}})
	addDep(g, sigList, sigItem, "items[*].id")
	if withDetail {
		g.Add(&sig.Signature{ID: sigDetail, App: app, Method: "GET",
			URI: uriDep("/detail/", sigItem, "detail[*].id"), Header: deviceHeader})
		addDep(g, sigItem, sigDetail, "detail[*].id")
	}
	for i := 0; i < filler; i++ {
		s := &sig.Signature{ID: fmt.Sprintf("bench:filler#%d", i), App: app, Method: "GET"}
		if i%2 == 0 {
			s.URI = sig.Literal(fmt.Sprintf("%s/res/%d", originHost, i))
		} else {
			s.URI = sig.Concat(sig.Literal(fmt.Sprintf("%s/grp/%d/", originHost, i)), sig.Wildcard("id"))
		}
		g.Add(s)
	}
	return g
}

// streamGraph has a dependency-free blob signature (per-user, never cached:
// every fetch is a streamed miss) and catalog → asset, whose assets carry no
// run-time wildcard and so prefetch into the shared tier.
func streamGraph(app string) *sig.Graph {
	g := sig.NewGraph(app)
	g.Add(&sig.Signature{ID: sigBlob, App: app, Method: "GET",
		URI: sig.Concat(sig.Literal(originHost+"/blob/"), sig.Wildcard("key"))})
	g.Add(&sig.Signature{ID: sigCatalog, App: app, Method: "GET", URI: sig.Literal(originHost + "/catalog"),
		Query: []sig.Field{{Key: "id", Value: sig.Wildcard("page")}}, RespFields: []string{"assets[*].id"}})
	g.Add(&sig.Signature{ID: sigAsset, App: app, Method: "GET", URI: uriDep("/asset/", sigCatalog, "assets[*].id")})
	addDep(g, sigCatalog, sigAsset, "assets[*].id")
	return g
}
