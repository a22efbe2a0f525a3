package main

// budgetRow is one line of the per-request cost budget: what one layer costs
// a request on the hit or the miss path. The rows of a path sum to the
// direct-ServeHTTP time of that path; what no probed layer accounts for is the
// row named unattributed.
type budgetRow struct {
	Path        string  `json:"path"`
	Layer       string  `json:"layer"`
	CallsPerReq float64 `json:"calls_per_req"`
	NsPerCall   float64 `json:"ns_per_call"`
	UsPerReq    float64 `json:"us_per_req"`
	Share       float64 `json:"share"`
}

const unattributed = "unattributed"

// buildBudget multiplies each layer's probed cost by the number of calls the
// proxy makes into it per request. The call counts follow the proxy's request
// paths: a hit is span, parse, key, lookup, write; a matched miss adds the
// signature match, the origin exchange, the body's trip through the spool,
// and learning — one decode, one extract and one rank for the response, then
// key, rank and submit once per prefetch instance it fans out.
func buildBudget(hit, miss serveProbe, lc layerCosts, sharedTier bool, upstreamUs float64) []budgetRow {
	var rows []budgetRow
	add := func(path, layer string, calls, ns float64) {
		if calls > 0 {
			rows = append(rows, budgetRow{Path: path, Layer: layer, CallsPerReq: calls, NsPerCall: ns, UsPerReq: calls * ns / 1e3})
		}
	}
	finish := func(path string, total float64) {
		sum := 0.0
		for _, r := range rows {
			if r.Path == path {
				sum += r.UsPerReq
			}
		}
		rows = append(rows, budgetRow{Path: path, Layer: unattributed, CallsPerReq: 1, NsPerCall: (total - sum) * 1e3, UsPerReq: total - sum})
		for i := range rows {
			if rows[i].Path == path && total > 0 {
				rows[i].Share = rows[i].UsPerReq / total
			}
		}
	}
	if hit.n > 0 {
		add("hit", "obs.span", 1, lc.spanNs)
		add("hit", "httpmsg.parse", 1, lc.parseNs)
		add("hit", "httpmsg.key", 1, lc.keyNs)
		add("hit", "cache.get_hit", 1, hit.getHitNs)
		add("hit", "httpmsg.write", 1, lc.writeNs)
		finish("hit", hit.us)
	}
	if miss.n > 0 {
		f := miss.instances
		lookups := 1.0
		if sharedTier {
			lookups = 2
		}
		learns := 0.0
		if f > 0 {
			learns = 1
		}
		add("miss", "obs.span", 1, lc.spanNs)
		add("miss", "httpmsg.parse", 1, lc.parseNs)
		add("miss", "httpmsg.key", 1+f, lc.keyNs)
		add("miss", "cache.get_miss", lookups, lc.getMissNs)
		add("miss", "sig.match", 1, lc.matchNs)
		add("miss", "upstream.roundtrip", 1, upstreamUs*1e3)
		add("miss", "stream.spool", miss.bodyBytes/(1<<20), lc.spoolNsPerByte*(1<<20))
		add("miss", "jsonpath.decode", learns, lc.decodeNs)
		add("miss", "jsonpath.extract", learns, lc.extractNs)
		add("miss", "policy.rank", learns+f, lc.rankNs)
		add("miss", "sched.submit", f, lc.submitNs)
		finish("miss", miss.us)
	}
	return rows
}
