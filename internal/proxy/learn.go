package proxy

import (
	"net/url"
	"sort"
	"strings"

	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/jsonpath"
	"appx/internal/sig"
)

// Dynamic learning (§4.2 of the paper).
//
// Static analysis yields signatures whose patterns still contain two kinds of
// unknowns: wildcards (device- or session-specific values such as User-Agent
// and Cookie headers, dynamic hosts) and dependency references (values drawn
// from predecessor responses). The proxy resolves the first kind from live
// *successor* transactions — the most recent concrete example of the request
// (Figure 7 case 2) — and the second kind from live *predecessor* responses
// (Figure 7 case 1), replicating the request instance once per extracted
// array element.

// exemplar is the most recent live instance of a successor signature: the
// source of run-time values and of the currently active instance class
// (which optional fields are present, Figure 8).
type exemplar struct {
	// uriWilds holds captured values for the URI pattern's non-literal
	// parts, in order.
	uriWilds []string
	// fieldWilds maps a field location ("query:k", "header:k", "form:k") to
	// the captured values of that field pattern's non-literal parts.
	fieldWilds map[string][]string
	// present records which optional field locations appeared in the live
	// request.
	present map[string]bool
	// headers is the live request's full header set. Real HTTP stacks add
	// headers the app code never mentions (a default User-Agent, accept
	// headers); for the prefetched request to be identical to the client's,
	// those must be mimicked too — the paper's "learns missing values, such
	// as HTTP header fields ... from the instances derived from the same
	// signature".
	headers []httpmsg.Field
}

// learnExemplar extracts an exemplar from a live request matching s.
// It returns nil when the request does not actually instantiate the
// signature's URI pattern.
func learnExemplar(s *sig.Signature, req *httpmsg.Request) *exemplar {
	uriWilds, ok := captureURIWilds(s, req.Host+req.Path)
	if !ok {
		return nil
	}
	ex := &exemplar{
		uriWilds:   uriWilds,
		fieldWilds: map[string][]string{},
		present:    map[string]bool{},
		headers:    append([]httpmsg.Field(nil), req.Header...),
	}
	learnFields := func(where string, fields []sig.Field, get func(string) (string, bool)) {
		for _, f := range fields {
			loc := where + ":" + f.Key
			v, found := get(f.Key)
			if !found {
				continue
			}
			ex.present[loc] = true
			if wilds, ok := captureWilds(f.Value, v); ok {
				ex.fieldWilds[loc] = wilds
			}
		}
	}
	learnFields("query", s.Query, req.GetQuery)
	learnFields("header", s.Header, req.GetHeader)
	learnFields("form", s.BodyForm, req.GetForm)
	return ex
}

// captureURIWilds is captureWilds for the signature's URI pattern, going
// through the signature's precompiled matcher instead of recompiling the
// regex on every live transaction.
func captureURIWilds(s *sig.Signature, value string) ([]string, bool) {
	if !s.URI.HasUnknown() {
		// Fully literal: the match is string equality, no regex at all.
		if s.URI.String() == value {
			return nil, true
		}
		return nil, false
	}
	m := s.URIRegexp().FindStringSubmatch(value)
	if m == nil {
		return nil, false
	}
	return m[1:], true
}

// captureWilds matches value against the pattern and returns the text
// captured by each non-literal part, in order. Fully-literal patterns are
// compared as strings — the regex path is reserved for patterns that
// actually capture something.
func captureWilds(p sig.Pattern, value string) ([]string, bool) {
	if !p.HasUnknown() {
		if p.String() == value {
			return nil, true
		}
		return nil, false
	}
	re, err := p.Regexp()
	if err != nil {
		return nil, false
	}
	m := re.FindStringSubmatch(value)
	if m == nil {
		return nil, false
	}
	return m[1:], true
}

// learnPlan is a predecessor's sig.ReadPlan joined with the configuration
// the proxy was built with: the successors' condition fields are read in the
// same scan as their dependency values. Conditions are compiled here, once;
// a policy's Prefetch switch and probability are still read live.
type learnPlan struct {
	paths []jsonpath.Path
	succs []planSucc
}

// planSucc is one successor of a learnPlan.
type planSucc struct {
	*sig.SuccPlan
	// st is the successor's own record, which gates and counts its instances.
	st *sigState
	// cond is the successor policy's condition (nil: none) and condRead
	// where the scan puts its field's values; -1 when the field does not
	// parse, which no response satisfies.
	cond     *config.Condition
	condRead int
	// borrow: a user's profile may build this successor's first instance —
	// no optional field, and every unknown part a device value or a Dep on
	// this predecessor (borrow.go).
	borrow bool
}

// buildLearnPlan compiles the learnPlan of predecessor predID against the
// records in t; nil when nothing depends on it.
func buildLearnPlan(g *sig.Graph, t *sigTable, predID string) *learnPlan {
	rp := g.ReadPlan(predID)
	if rp == nil {
		return nil
	}
	lp := &learnPlan{paths: append([]jsonpath.Path(nil), rp.Paths...)}
	for _, sp := range rp.Succs {
		ps := planSucc{SuccPlan: sp, st: t.byID[sp.Sig.ID], condRead: -1}
		if cpol := ps.st.pol; cpol != nil && cpol.Condition != nil {
			ps.cond = cpol.Condition
			if path, err := jsonpath.Parse(ps.cond.Field); err == nil {
				ps.condRead = len(lp.paths)
				lp.paths = append(lp.paths, path)
			}
		}
		ps.borrow = ps.borrowable()
		lp.succs = append(lp.succs, ps)
	}
	return lp
}

// holds evaluates the successor's condition over one scan.
func (ps *planSucc) holds(scan [][]string) bool {
	return ps.cond == nil || (ps.condRead >= 0 && ps.cond.Holds(scan[ps.condRead]))
}

// maxFanOut bounds instances created from one predecessor response; a
// 30-item feed stays under it, and anything larger is a server-driven
// explosion the proxy should not amplify.
const maxFanOut = 64

// depValues expands one scan into per-instance value assignments, each
// parallel to reads: the cartesian product across the successor's response
// paths with the last path varying fastest, capped at maxFanOut. Nil when
// any path yielded nothing.
func depValues(scan [][]string, reads []int) [][]string {
	total := 1
	for _, r := range reads {
		if r < 0 || len(scan[r]) == 0 {
			return nil
		}
		if total < maxFanOut {
			total *= len(scan[r])
		}
	}
	if total > maxFanOut {
		total = maxFanOut
	}
	k := len(reads)
	flat := make([]string, total*k)
	out := make([][]string, total)
	for i := range out {
		vals := flat[i*k : (i+1)*k : (i+1)*k]
		for j, rem := k-1, i; j >= 0; j-- {
			vs := scan[reads[j]]
			vals[j], rem = vs[rem%len(vs)], rem/len(vs)
		}
		out[i] = vals
	}
	return out
}

// resolve renders a compiled pattern: Dep parts on the plan's predecessor
// take the instance's values, every other unknown takes the exemplar's
// capture at its position (a Dep on a different predecessor falls back to
// the most recently observed value for its slot; deps occupy a capture slot
// too). ok is false while any part remains unresolved.
func resolve(p sig.PlanPattern, vals, wilds []string) (string, bool) {
	var buf [96]byte
	out := buf[:0]
	wi := 0
	for i, part := range p.Parts {
		var piece string
		switch {
		case part.Kind == sig.Lit:
			piece = part.Lit
		case p.Deps[i] >= 0:
			piece = vals[p.Deps[i]]
			wi++
		case wi < len(wilds):
			piece = wilds[wi]
			wi++
		default:
			return "", false
		}
		if len(p.Parts) == 1 {
			return piece, true // the value itself, no copy
		}
		out = append(out, piece...)
	}
	return string(out), true
}

// addFields appends the resolved fields of one request section to dst.
// Optional fields follow the exemplar's instance class.
func addFields(dst []httpmsg.Field, fields []sig.PlanField, vals []string, ex *exemplar) ([]httpmsg.Field, bool) {
	for _, f := range fields {
		if f.Optional && !ex.present[f.Loc] {
			continue
		}
		v, ok := resolve(f.Value, vals, ex.fieldWilds[f.Loc])
		if !ok {
			return nil, false
		}
		dst = append(dst, httpmsg.Field{Key: f.Key, Value: v})
	}
	return dst, true
}

// namesHeader reports whether the signature describes a header itself.
func namesHeader(fields []sig.PlanField, key string) bool {
	for _, f := range fields {
		if strings.EqualFold(f.Key, key) {
			return true
		}
	}
	return false
}

// materialize builds one complete prefetch request for the plan's signature
// from an instance's dependency values and (optionally) an exemplar. ok is
// false when run-time values are still missing — the instance must wait for
// a live example (§4.2: "a prefetch request becomes ready ... when all
// dynamic values have been resolved").
func materialize(sp *sig.SuccPlan, vals []string, ex *exemplar) (*httpmsg.Request, bool) {
	if ex == nil {
		// No instance class yet: optional fields are omitted (the
		// conservative class) and every capture is missing.
		ex = &exemplar{}
	}
	uri, ok := resolve(sp.URI, vals, ex.uriWilds)
	if !ok {
		return nil, false
	}
	host, path, uriQuery, ok := splitURI(uri)
	if !ok {
		return nil, false
	}
	req := &httpmsg.Request{
		Method: sp.Sig.Method,
		Scheme: "http",
		Host:   host,
		Path:   path,
		Query:  uriQuery,
	}
	// Headers the app never sets but the client's HTTP stack adds (default
	// User-Agent etc.) are mimicked from the exemplar; signature-described
	// headers are then resolved from their patterns.
	if n := len(ex.headers) + len(sp.Header); n > 0 {
		req.Header = make([]httpmsg.Field, 0, n)
	}
	for _, h := range ex.headers {
		if !namesHeader(sp.Header, h.Key) {
			req.Header = append(req.Header, h)
		}
	}
	if req.Query, ok = addFields(req.Query, sp.Query, vals, ex); !ok {
		return nil, false
	}
	if req.Header, ok = addFields(req.Header, sp.Header, vals, ex); !ok {
		return nil, false
	}
	if req.BodyForm, ok = addFields(nil, sp.Form, vals, ex); !ok {
		return nil, false
	}
	if len(req.BodyForm) > 0 {
		req.BodyKind = httpmsg.BodyForm
	}
	if len(sp.JSON) > 0 {
		// The one place learning still builds a tree: the request's own body.
		var doc any
		for _, f := range sp.JSON {
			if f.Optional && !ex.present[f.Loc] {
				continue
			}
			v, ok := resolve(f.Value, vals, nil)
			if !ok || f.BadPath {
				return nil, false
			}
			var err error
			if doc, err = jsonpath.Inject(doc, f.Path, v); err != nil {
				return nil, false
			}
		}
		req.BodyKind = httpmsg.BodyJSON
		req.BodyJSON = doc
	}
	return req, true
}

// splitURI decomposes a resolved URI value into host, path, and query
// fields. Dependency values may carry complete URLs ("http://a.com/d.png",
// Figure 3(c)'s prefetched image), so a scheme prefix and an embedded query
// string are handled like the app's own URL parsing would.
func splitURI(uri string) (host, path string, query []httpmsg.Field, ok bool) {
	for _, scheme := range []string{"http://", "https://"} {
		if strings.HasPrefix(uri, scheme) {
			uri = uri[len(scheme):]
			break
		}
	}
	var rawQuery string
	if qi := strings.IndexByte(uri, '?'); qi >= 0 {
		uri, rawQuery = uri[:qi], uri[qi+1:]
	}
	slash := strings.IndexByte(uri, '/')
	if slash <= 0 {
		return "", "", nil, false
	}
	host, path = uri[:slash], uri[slash:]
	if rawQuery != "" {
		vals, err := url.ParseQuery(rawQuery)
		if err != nil {
			return "", "", nil, false
		}
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			for _, v := range vals[k] {
				query = append(query, httpmsg.Field{Key: k, Value: v})
			}
		}
	}
	return host, path, query, true
}
