package proxy

// The map-keyed learning path — depPaths, depCombos, resolvePattern and
// materialize under ref* names, and the exemplar keyed by field location
// that learnExemplar builds — kept as the reference the compiled read plans
// and the slot-numbered exemplar are differentially tested against
// (TestLearnPlanDifferential).

import (
	"strings"

	"appx/internal/httpmsg"
	"appx/internal/jsonpath"
	"appx/internal/sig"
)

// exemplar is the reference's most recent live instance of a successor
// signature, keyed by field location.
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
	// headers is the live request's full header set.
	headers []httpmsg.Field
}

// learnExemplar extracts an exemplar from a live request matching s.
// It returns nil when the request does not actually instantiate the
// signature's URI pattern.
func learnExemplar(s *sig.Signature, req *httpmsg.Request) *exemplar {
	uriWilds, ok := s.URI.Capture(req.Host+req.Path, nil)
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
			if wilds, ok := f.Value.Capture(v, nil); ok {
				ex.fieldWilds[loc] = wilds
			}
		}
	}
	learnFields("query", s.Query, req.GetQuery)
	learnFields("header", s.Header, req.GetHeader)
	learnFields("form", s.BodyForm, req.GetForm)
	return ex
}

// refDepPaths lists the distinct (PredID, RespPath) pairs appearing in the
// signature's patterns for the given predecessor, in first-use order.
func refDepPaths(s *sig.Signature, pred string) []string {
	var out []string
	seen := map[string]bool{}
	add := func(p sig.Pattern) {
		for _, part := range p.Parts {
			if part.Kind == sig.Dep && part.PredID == pred && !seen[part.RespPath] {
				seen[part.RespPath] = true
				out = append(out, part.RespPath)
			}
		}
	}
	add(s.URI)
	for _, f := range s.Query {
		add(f.Value)
	}
	for _, f := range s.Header {
		add(f.Value)
	}
	for _, f := range s.BodyForm {
		add(f.Value)
	}
	for _, f := range s.BodyJSON {
		add(f.Value)
	}
	return out
}

// refDepCombos expands the predecessor response into per-instance value
// assignments: one combination per element of the fanned-out paths
// (cartesian across paths, capped).
func refDepCombos(doc any, paths []string) []map[string]string {
	combos := []map[string]string{{}}
	for _, path := range paths {
		p, err := jsonpath.Parse(path)
		if err != nil {
			return nil
		}
		vals := jsonpath.ExtractStrings(doc, p)
		if len(vals) == 0 {
			return nil
		}
		var next []map[string]string
		for _, c := range combos {
			for _, v := range vals {
				nc := make(map[string]string, len(c)+1)
				for k, vv := range c {
					nc[k] = vv
				}
				nc[path] = v
				next = append(next, nc)
				if len(next) >= maxFanOut {
					break
				}
			}
			if len(next) >= maxFanOut {
				break
			}
		}
		combos = next
	}
	return combos
}

// refResolvePattern renders a pattern using dependency values for pred and
// exemplar-captured wildcard values (positional). ok is false while any part
// remains unresolved.
func refResolvePattern(p sig.Pattern, pred string, combo map[string]string, wilds []string) (string, bool) {
	var b strings.Builder
	wi := 0
	for _, part := range p.Parts {
		switch part.Kind {
		case sig.Lit:
			b.WriteString(part.Lit)
			continue
		case sig.Dep:
			if part.PredID == pred {
				v, ok := combo[part.RespPath]
				if !ok {
					return "", false
				}
				b.WriteString(v)
				wi++ // deps occupy a capture slot too
				continue
			}
			// Dependency on a different predecessor: fall through to the
			// exemplar value, which holds the most recently observed value
			// for this slot.
			fallthrough
		case sig.Wild:
			if wi >= len(wilds) {
				return "", false
			}
			b.WriteString(wilds[wi])
			wi++
		}
	}
	return b.String(), true
}

// refMaterialize builds one complete prefetch request for signature s from a
// dependency combination and (optionally) an exemplar. ok is false when
// run-time values are still missing — the instance must wait for a live
// example (§4.2: "a prefetch request becomes ready ... when all dynamic
// values have been resolved").
func refMaterialize(s *sig.Signature, pred string, combo map[string]string, ex *exemplar) (*httpmsg.Request, bool) {
	var uriWilds []string
	if ex != nil {
		uriWilds = ex.uriWilds
	}
	uri, ok := refResolvePattern(s.URI, pred, combo, uriWilds)
	if !ok {
		return nil, false
	}
	host, path, uriQuery, ok := splitURI(uri)
	if !ok {
		return nil, false
	}
	req := &httpmsg.Request{
		Method: s.Method,
		Scheme: "http",
		Host:   host,
		Path:   path,
		Query:  uriQuery,
	}

	addFields := func(where string, fields []sig.Field, add func(k, v string)) bool {
		for _, f := range fields {
			loc := where + ":" + f.Key
			if f.Optional {
				// Optional fields follow the most recent instance class; with
				// no exemplar they are omitted (the conservative class).
				if ex == nil || !ex.present[loc] {
					continue
				}
			}
			var wilds []string
			if ex != nil {
				wilds = ex.fieldWilds[loc]
			}
			v, ok := refResolvePattern(f.Value, pred, combo, wilds)
			if !ok {
				return false
			}
			add(f.Key, v)
		}
		return true
	}
	if !addFields("query", s.Query, func(k, v string) {
		req.Query = append(req.Query, httpmsg.Field{Key: k, Value: v})
	}) {
		return nil, false
	}
	// Headers the app never sets but the client's HTTP stack adds (default
	// User-Agent etc.) are mimicked from the exemplar; signature-described
	// headers are then resolved from their patterns.
	if ex != nil {
		named := map[string]bool{}
		for _, f := range s.Header {
			named[strings.ToLower(f.Key)] = true
		}
		for _, h := range ex.headers {
			if !named[strings.ToLower(h.Key)] {
				req.Header = append(req.Header, h)
			}
		}
	}
	if !addFields("header", s.Header, func(k, v string) {
		req.Header = append(req.Header, httpmsg.Field{Key: k, Value: v})
	}) {
		return nil, false
	}
	if s.BodyKind == httpmsg.BodyForm || len(s.BodyForm) > 0 {
		if !addFields("form", s.BodyForm, func(k, v string) {
			req.BodyKind = httpmsg.BodyForm
			req.BodyForm = append(req.BodyForm, httpmsg.Field{Key: k, Value: v})
		}) {
			return nil, false
		}
	}
	if len(s.BodyJSON) > 0 {
		var doc any
		for _, f := range s.BodyJSON {
			if f.Optional && (ex == nil || !ex.present["json:"+f.Path]) {
				continue
			}
			v, ok := refResolvePattern(f.Value, pred, combo, nil)
			if !ok {
				return nil, false
			}
			path, err := jsonpath.Parse(f.Path)
			if err != nil {
				return nil, false
			}
			doc, err = jsonpath.Inject(doc, path, v)
			if err != nil {
				return nil, false
			}
		}
		req.BodyKind = httpmsg.BodyJSON
		req.BodyJSON = doc
	}
	return req, true
}
