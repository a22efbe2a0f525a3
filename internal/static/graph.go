package static

import (
	"sort"
	"strconv"
	"strings"

	"appx/internal/httpmsg"
	"appx/internal/sig"
)

// buildGraph lowers the accumulated per-site evidence into the signature and
// dependency graph.
func (an *analyzer) buildGraph() *sig.Graph {
	g := sig.NewGraph(an.app)

	ids := make([]string, 0, len(an.sites))
	for id := range an.sites {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	for _, id := range ids {
		site := an.sites[id]
		if len(site.snapshots) == 0 {
			continue
		}
		s := an.buildSignature(site)
		g.Add(s)
		addDeps(g, s)
	}
	return g
}

// buildSignature merges a site's path snapshots into one signature, marking
// fields absent on some paths optional (Figure 8's instance classes).
func (an *analyzer) buildSignature(site *siteInfo) *sig.Signature {
	merged := site.snapshots[0]
	for _, snap := range site.snapshots[1:] {
		m := &reqSnapshot{
			method:   merged.method,
			uriParts: merged.uriParts,
			query:    joinFields(merged.query, snap.query),
			header:   joinFields(merged.header, snap.header),
			form:     joinFields(merged.form, snap.form),
		}
		if m.method == "" {
			m.method = snap.method
		}
		if len(m.uriParts) == 0 {
			m.uriParts = snap.uriParts
		} else if len(snap.uriParts) > 0 && patternKey(partsPattern(m.uriParts)) != patternKey(partsPattern(snap.uriParts)) {
			// URI differs across paths: degrade per-part via join.
			m.uriParts = joinURIParts(m.uriParts, snap.uriParts)
		}
		merged = m
	}

	uri, urlQuery := splitURL(merged.uriParts)
	s := &sig.Signature{
		ID:     site.id,
		App:    an.app,
		Method: merged.method,
		URI:    uri,
	}
	for _, f := range urlQuery {
		s.Query = append(s.Query, sig.Field{Key: f.key, Value: toPattern(f.val), Optional: f.optional})
	}
	for _, f := range merged.query {
		s.Query = append(s.Query, sig.Field{Key: f.key, Value: toPattern(f.val), Optional: f.optional})
	}
	for _, f := range merged.header {
		s.Header = append(s.Header, sig.Field{Key: f.key, Value: toPattern(f.val), Optional: f.optional})
	}
	if len(merged.form) > 0 {
		s.BodyKind = httpmsg.BodyForm
		for _, f := range merged.form {
			s.BodyForm = append(s.BodyForm, sig.Field{Key: f.key, Value: toPattern(f.val), Optional: f.optional})
		}
	}
	for path := range site.respFields {
		s.RespFields = append(s.RespFields, path)
	}
	sort.Strings(s.RespFields)
	return s
}

func partsPattern(parts []AVal) sig.Pattern {
	var p sig.Pattern
	for _, v := range parts {
		p = sig.Concat(p, toPattern(v))
	}
	return p
}

func joinURIParts(a, b []AVal) []AVal {
	if len(a) != len(b) {
		return []AVal{AWild{Origin: "uri-join"}}
	}
	out := make([]AVal, len(a))
	for i := range a {
		out[i] = joinVal(a[i], b[i])
	}
	return out
}

// splitURL lowers the abstract URL parts into a host+path URI pattern and
// URL-embedded query fields. The scheme prefix is stripped from the leading
// literal; a '?' inside a literal starts the query string, which is parsed
// as k=v pairs separated by '&' (values may continue into dynamic parts,
// e.g. "http://h/img?cid=" + id).
func splitURL(parts []AVal) (sig.Pattern, []fieldVal) {
	var uri sig.Pattern
	var query []fieldVal

	inQuery := false
	var curKey string
	var curVal sig.Pattern
	haveKey := false

	flush := func() {
		if haveKey {
			query = append(query, fieldVal{key: curKey, val: patternToAVal(curVal)})
			curKey, curVal, haveKey = "", sig.Pattern{}, false
		}
	}

	for i, part := range parts {
		lit, isLit := litString(part)
		if isLit && i == 0 {
			lit = stripScheme(lit)
		}
		if !inQuery {
			if !isLit {
				uri = sig.Concat(uri, toPattern(part))
				continue
			}
			qi := strings.IndexByte(lit, '?')
			if qi < 0 {
				uri = sig.Concat(uri, sig.Literal(lit))
				continue
			}
			if qi > 0 {
				uri = sig.Concat(uri, sig.Literal(lit[:qi]))
			}
			inQuery = true
			lit = lit[qi+1:]
			// fall through to query parsing of the remainder
		}
		if !isLit {
			// Dynamic fragment extends the current value.
			curVal = sig.Concat(curVal, toPattern(part))
			continue
		}
		for lit != "" {
			amp := strings.IndexByte(lit, '&')
			var seg string
			if amp >= 0 {
				seg, lit = lit[:amp], lit[amp+1:]
			} else {
				seg, lit = lit, ""
			}
			if !haveKey {
				if eq := strings.IndexByte(seg, '='); eq >= 0 {
					curKey = seg[:eq]
					haveKey = true
					if rest := seg[eq+1:]; rest != "" {
						curVal = sig.Concat(curVal, sig.Literal(rest))
					}
				}
				// A segment without '=' and no pending key is malformed; skip.
			} else {
				curVal = sig.Concat(curVal, sig.Literal(seg))
			}
			if amp >= 0 {
				flush()
			}
		}
	}
	flush()
	if len(uri.Parts) == 0 {
		uri = sig.Wildcard("uri")
	}
	return uri, query
}

func stripScheme(s string) string {
	for _, p := range []string{"https://", "http://"} {
		if strings.HasPrefix(s, p) {
			return s[len(p):]
		}
	}
	return s
}

// patternToAVal converts a lowered pattern back to an abstract value (used
// when query values were assembled during URL splitting).
func patternToAVal(p sig.Pattern) AVal {
	var parts []AVal
	for _, part := range p.Parts {
		switch part.Kind {
		case sig.Lit:
			parts = append(parts, ALit{S: part.Lit})
		case sig.Wild:
			parts = append(parts, AWild{Origin: part.Origin})
		case sig.Dep:
			parts = append(parts, ARespField{Pred: part.PredID, Path: part.RespPath})
		}
	}
	if len(parts) == 0 {
		return ALit{S: ""}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return AConcat{Parts: parts}
}

// addDeps emits dependency edges for every dep-referencing pattern in the
// signature.
func addDeps(g *sig.Graph, s *sig.Signature) {
	emit := func(p sig.Pattern, loc sig.FieldLoc) {
		for _, part := range p.Parts {
			if part.Kind == sig.Dep && part.PredID != s.ID {
				g.AddDep(sig.Dependency{
					PredID:   part.PredID,
					SuccID:   s.ID,
					RespPath: part.RespPath,
					Loc:      loc,
				})
			}
		}
	}
	for i, part := range s.URI.Parts {
		if part.Kind == sig.Dep && part.PredID != s.ID {
			g.AddDep(sig.Dependency{
				PredID:   part.PredID,
				SuccID:   s.ID,
				RespPath: part.RespPath,
				Loc:      sig.FieldLoc{Where: "uri", Key: strconv.Itoa(i)},
			})
		}
	}
	for _, f := range s.Query {
		emit(f.Value, sig.FieldLoc{Where: "query", Key: f.Key})
	}
	for _, f := range s.Header {
		emit(f.Value, sig.FieldLoc{Where: "header", Key: f.Key})
	}
	for _, f := range s.BodyForm {
		emit(f.Value, sig.FieldLoc{Where: "form", Key: f.Key})
	}
}
