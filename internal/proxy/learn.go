package proxy

import (
	"net/url"
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

// slot is one query, header or form field of a signature: the unit an
// exemplar records presence and captures by. A signature's slots are its
// query, header and form fields in that order, numbered from 0 as
// sig.PlanField.Slot numbers them, and compiled once, at New.
type slot struct {
	where    string // "query", "header" or "form"
	key      string
	get      func(*httpmsg.Request, string) (string, bool)
	optional bool
	// value is the field's pattern with adjacent literals fused, so a
	// capture allocates nothing of its own; its captures, one per unknown
	// part, take [at, end) of an exemplar's capture slice.
	value   sig.Pattern
	at, end int
	// origin is the device value the pattern's one unknown part is
	// (borrow.go), or "" when its unknowns are anything else.
	origin string
}

// compileSlots builds the signature's slot list.
func (st *sigState) compileSlots() {
	s, at := st.sig, 0
	for _, sec := range []struct {
		where  string
		fields []sig.Field
		get    func(*httpmsg.Request, string) (string, bool)
	}{
		{"query", s.Query, (*httpmsg.Request).GetQuery},
		{"header", s.Header, (*httpmsg.Request).GetHeader},
		{"form", s.BodyForm, (*httpmsg.Request).GetForm},
	} {
		for _, f := range sec.fields {
			sl := slot{where: sec.where, key: f.Key, get: sec.get, optional: f.Optional, value: f.Value.Fused(), at: at}
			for _, part := range f.Value.Parts {
				if part.Kind != sig.Lit {
					sl.origin, at = "", at+1
					if part.Kind == sig.Wild && isDeviceValue(part.Origin) {
						sl.origin = part.Origin
					}
				}
			}
			if sl.end = at; sl.end-sl.at != 1 {
				sl.origin = ""
			}
			st.slots = append(st.slots, sl)
		}
	}
}

// slotExemplar is the most recent live instance of a successor signature:
// the source of run-time values and of the currently active instance class
// (which optional fields are present, Figure 8).
type slotExemplar struct {
	// uriWilds holds captured values for the URI pattern's non-literal
	// parts, in order.
	uriWilds []string
	// captures holds every slot's captures at the slot's [at, end); seen
	// says, per slot, whether the live request carried the field and
	// whether its pattern captured it.
	captures []string
	seen     []uint8
	// headers is the live request's full header set. Real HTTP stacks add
	// headers the app code never mentions (a default User-Agent, accept
	// headers); for the prefetched request to be identical to the client's,
	// those must be mimicked too — the paper's "learns missing values, such
	// as HTTP header fields ... from the instances derived from the same
	// signature".
	headers []httpmsg.Field
}

// The flags of slotExemplar.seen.
const (
	slotPresent uint8 = 1 << iota
	slotCaptured
)

// newExemplar returns an exemplar of the signature with every slot unseen.
func (st *sigState) newExemplar(headers []httpmsg.Field) *slotExemplar {
	ex := &slotExemplar{headers: headers}
	if n := len(st.slots); n > 0 {
		ex.captures = make([]string, st.slots[n-1].end)
		ex.seen = make([]uint8, n)
	}
	return ex
}

// has reports whether slot i carries flag.
func (ex *slotExemplar) has(i int, flag uint8) bool {
	return i < len(ex.seen) && ex.seen[i]&flag != 0
}

// wilds returns the captures of slot i of slots, nil when it has none.
func (ex *slotExemplar) wilds(slots []slot, i int) []string {
	if !ex.has(i, slotCaptured) {
		return nil
	}
	return ex.captures[slots[i].at:slots[i].end]
}

// learnExemplar extracts an exemplar from a live request matching the
// signature. It returns nil when the request does not actually instantiate
// the signature's URI pattern.
func (st *sigState) learnExemplar(req *httpmsg.Request) *slotExemplar {
	uriWilds, ok := st.sig.URI.Capture(req.Host+req.Path, nil)
	if !ok {
		return nil
	}
	ex := st.newExemplar(append([]httpmsg.Field(nil), req.Header...))
	ex.uriWilds = uriWilds
	for i := range st.slots {
		sl := &st.slots[i]
		v, found := sl.get(req, sl.key)
		if !found {
			continue
		}
		ex.seen[i] = slotPresent
		if _, ok := sl.value.Capture(v, ex.captures[sl.at:sl.at]); ok {
			ex.seen[i] |= slotCaptured
		} else {
			clear(ex.captures[sl.at:sl.end])
		}
	}
	return ex
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
func (ps *planSucc) addFields(dst []httpmsg.Field, fields []sig.PlanField, vals []string, ex *slotExemplar) ([]httpmsg.Field, bool) {
	for _, f := range fields {
		if f.Optional && !ex.has(f.Slot, slotPresent) {
			continue
		}
		v, ok := resolve(f.Value, vals, ex.wilds(ps.st.slots, f.Slot))
		if !ok {
			return nil, false
		}
		dst = append(dst, httpmsg.Field{Key: f.Key, Value: v})
	}
	return dst, true
}

// materialize builds one complete prefetch request for the plan's successor
// from an instance's dependency values and (optionally) an exemplar. ok is
// false when run-time values are still missing — the instance must wait for
// a live example (§4.2: "a prefetch request becomes ready ... when all
// dynamic values have been resolved").
func materialize(ps *planSucc, vals []string, ex *slotExemplar) (*httpmsg.Request, bool) {
	if ex == nil {
		// No instance class yet: optional fields are omitted (the
		// conservative class) and every capture is missing.
		ex = &slotExemplar{}
	}
	uri, ok := resolve(ps.URI, vals, ex.uriWilds)
	if !ok {
		return nil, false
	}
	host, path, uriQuery, ok := splitURI(uri)
	if !ok {
		return nil, false
	}
	req := &httpmsg.Request{
		Method: ps.Sig.Method,
		Scheme: "http",
		Host:   host,
		Path:   path,
		Query:  uriQuery,
	}
	// Headers the app never sets but the client's HTTP stack adds (default
	// User-Agent etc.) are mimicked from the exemplar; signature-described
	// headers are then resolved from their patterns.
	if n := len(ex.headers) + len(ps.Header); n > 0 {
		req.Header = make([]httpmsg.Field, 0, n)
	}
	for _, h := range ex.headers {
		if !ps.st.namesHeader(h.Key) {
			req.Header = append(req.Header, h)
		}
	}
	if req.Query, ok = ps.addFields(req.Query, ps.Query, vals, ex); !ok {
		return nil, false
	}
	if req.Header, ok = ps.addFields(req.Header, ps.Header, vals, ex); !ok {
		return nil, false
	}
	if req.BodyForm, ok = ps.addFields(nil, ps.Form, vals, ex); !ok {
		return nil, false
	}
	if len(req.BodyForm) > 0 {
		req.BodyKind = httpmsg.BodyForm
	}
	if len(ps.JSON) > 0 {
		// The one place learning still builds a tree: the request's own body.
		var doc any
		for _, f := range ps.JSON {
			if f.Optional {
				// A JSON field has no slot: its presence is never learned,
				// so the instance class without it is the one sent.
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
// string are handled like the app's own URL parsing would: the fragment is
// dropped, and the path is unescaped as FromHTTP keys a client's request.
func splitURI(uri string) (host, path string, query []httpmsg.Field, ok bool) {
	for _, scheme := range []string{"http://", "https://"} {
		if strings.HasPrefix(uri, scheme) {
			uri = uri[len(scheme):]
			break
		}
	}
	uri, _, _ = strings.Cut(uri, "#")
	var rawQuery string
	if qi := strings.IndexByte(uri, '?'); qi >= 0 {
		uri, rawQuery = uri[:qi], uri[qi+1:]
	}
	slash := strings.IndexByte(uri, '/')
	if slash <= 0 {
		return "", "", nil, false
	}
	host, path = uri[:slash], uri[slash:]
	var err error
	if path, err = url.PathUnescape(path); err != nil {
		return "", "", nil, false
	}
	if query, err = httpmsg.ParseFields(rawQuery); err != nil {
		return "", "", nil, false
	}
	return host, path, query, true
}
