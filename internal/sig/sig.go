// Package sig defines APPx message signatures and the inter-transaction
// dependency graph — the interchange format between the static analyzer
// (internal/static), the verification phase (internal/verify), and the
// acceleration proxy (internal/proxy).
//
// A Signature characterizes one HTTP transaction site in the app: the
// request's method, URI, query, header, and body fields as patterns
// (concatenations of literals, run-time wildcards, and dependency
// references), plus the response fields the app is known to consume. A
// Dependency records that a field of a successor request is derived from a
// field of a predecessor response (Figure 5 of the paper: Signature ②'s
// 'cid' body field ← Signature ①'s 'data.products[*].product_info.id').
package sig

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"appx/internal/httpmsg"
)

// PartKind discriminates the atoms of a Pattern.
type PartKind string

const (
	// Lit is a string literal known statically.
	Lit PartKind = "lit"
	// Wild is a value determined only at run time (device property, server
	// cookie, dynamic host): matches anything, learned by the proxy.
	Wild PartKind = "wild"
	// Dep is a value derived from a predecessor transaction's response
	// field; resolvable by dynamic learning once the predecessor is seen.
	Dep PartKind = "dep"
)

// Part is one atom of a concatenation pattern.
type Part struct {
	Kind PartKind `json:"kind"`
	Lit  string   `json:"lit,omitempty"`
	// Origin describes where a wild value comes from (e.g. "device.userAgent"),
	// for diagnostics only.
	Origin string `json:"origin,omitempty"`
	// PredID and RespPath locate the source of a dep value: the predecessor
	// signature and the JSON path inside its response body.
	PredID   string `json:"pred,omitempty"`
	RespPath string `json:"respPath,omitempty"`
}

// Pattern is a concatenation of parts describing one field value.
type Pattern struct {
	Parts []Part `json:"parts"`
}

// Literal builds a single-literal pattern.
func Literal(s string) Pattern { return Pattern{Parts: []Part{{Kind: Lit, Lit: s}}} }

// Wildcard builds a single-wildcard pattern.
func Wildcard(origin string) Pattern {
	return Pattern{Parts: []Part{{Kind: Wild, Origin: origin}}}
}

// DepValue builds a single-dependency pattern.
func DepValue(predID, respPath string) Pattern {
	return Pattern{Parts: []Part{{Kind: Dep, PredID: predID, RespPath: respPath}}}
}

// Concat joins several patterns into one.
func Concat(ps ...Pattern) Pattern {
	var out Pattern
	for _, p := range ps {
		out.Parts = append(out.Parts, p.Parts...)
	}
	return out
}

// IsLiteral reports whether the pattern is a pure literal and returns it.
func (p Pattern) IsLiteral() (string, bool) {
	if len(p.Parts) == 1 && p.Parts[0].Kind == Lit {
		return p.Parts[0].Lit, true
	}
	return "", false
}

// HasDep reports whether any part references a predecessor.
func (p Pattern) HasDep() bool {
	for _, part := range p.Parts {
		if part.Kind == Dep {
			return true
		}
	}
	return false
}

// HasUnknown reports whether any part must be resolved at run time (wild or
// dep).
func (p Pattern) HasUnknown() bool {
	for _, part := range p.Parts {
		if part.Kind != Lit {
			return true
		}
	}
	return false
}

// String renders the pattern in the paper's notation: literals verbatim,
// unknowns as ".*".
func (p Pattern) String() string {
	var b strings.Builder
	for _, part := range p.Parts {
		if part.Kind == Lit {
			b.WriteString(part.Lit)
		} else {
			b.WriteString(".*")
		}
	}
	return b.String()
}

// Capture matches value against the pattern exactly as the anchored regexp
// ^lit(.*)lit…(.*)lit$ would, and appends the text each unknown part
// captured to dst, in order. Adjacent literals match as one; the first
// literal is anchored at the start of value and the last at its end;
// captures are leftmost-first and greedy, and none contains '\n'. On a
// mismatch dst comes back as it was given.
//
// Nothing backtracks: each literal run is searched once, from the right, so
// the cost is O(len(value) × len(p.Parts)), as the regexp's was. Matching is
// byte-exact, where the regexp decodes an invalid UTF-8 byte of value as
// U+FFFD and so matches it against a literal U+FFFD: "a\xffz" does not match
// a literal "a\uFFFD" followed by an unknown.
func (p Pattern) Capture(value string, dst []string) ([]string, bool) {
	parts := p.Parts
	for i := 1; i < len(parts); i++ {
		if parts[i].Kind == Lit && parts[i-1].Kind == Lit {
			return p.Fused().Capture(value, dst)
		}
	}
	lo, hi := 0, len(value)
	if len(parts) > 0 && parts[0].Kind == Lit {
		if !strings.HasPrefix(value, parts[0].Lit) {
			return dst, false
		}
		lo, parts = len(parts[0].Lit), parts[1:]
	}
	if len(parts) == 0 {
		return dst, lo == hi
	}
	if last := parts[len(parts)-1]; last.Kind == Lit {
		if hi-lo < len(last.Lit) || !strings.HasSuffix(value, last.Lit) {
			return dst, false
		}
		hi, parts = hi-len(last.Lit), parts[:len(parts)-1]
	}
	// parts now runs unknown (literal? unknown)*, over value[lo:hi]. Each
	// literal takes its rightmost place that leaves room for the ones after
	// it, which leaves the most text to the captures before it.
	base, end := len(dst), hi
	for j := len(parts) - 1; j >= 0; j-- {
		start, lit := lo, ""
		if j > 0 {
			start = end // two unknowns in a row: the right one gets nothing
			if parts[j-1].Kind == Lit {
				lit = parts[j-1].Lit
				k := strings.LastIndex(value[lo:end], lit)
				if k < 0 {
					return dst[:base], false
				}
				start = lo + k + len(lit)
				j--
			}
		}
		dst = append(dst, value[start:end])
		end = start - len(lit)
	}
	// A match puts every '\n' of value[lo:hi] in a literal, and any
	// placement of the literals covers as many as they hold: so if this one
	// left a '\n' to a capture, no placement matches.
	for _, c := range dst[base:] {
		if strings.IndexByte(c, '\n') >= 0 {
			return dst[:base], false
		}
	}
	slices.Reverse(dst[base:])
	return dst, true
}

// Fused returns the pattern with each run of adjacent literals joined: the
// same matches and captures, and Capture on it allocates nothing of its own.
func (p Pattern) Fused() Pattern {
	var out Pattern
	for _, part := range p.Parts {
		if n := len(out.Parts); part.Kind == Lit && n > 0 && out.Parts[n-1].Kind == Lit {
			out.Parts[n-1].Lit += part.Lit
			continue
		}
		out.Parts = append(out.Parts, part)
	}
	return out
}

// Field is a named pattern in the query string, header, or form body.
// Optional fields appear only under some run-time branch conditions
// (Figure 8 of the paper); the proxy learns which instance class is current.
type Field struct {
	Key      string  `json:"key"`
	Value    Pattern `json:"value"`
	Optional bool    `json:"optional,omitempty"`
}

// JSONField is a pattern at a path inside a JSON request body.
type JSONField struct {
	Path     string  `json:"path"`
	Value    Pattern `json:"value"`
	Optional bool    `json:"optional,omitempty"`
}

// Signature describes one transaction site.
type Signature struct {
	// ID is the stable analysis-site identifier, e.g.
	// "wish:DetailActivity.onCreate#1".
	ID string `json:"id"`
	// App is the application package name.
	App string `json:"app"`

	Method string  `json:"method"`
	URI    Pattern `json:"uri"` // host + path (scheme-less), e.g. ".*/product/get"

	Query  []Field `json:"query,omitempty"`
	Header []Field `json:"header,omitempty"`

	BodyKind httpmsg.BodyKind `json:"bodyKind"`
	BodyForm []Field          `json:"bodyForm,omitempty"`
	BodyJSON []JSONField      `json:"bodyJSON,omitempty"`

	// RespFields are the response-body JSON paths the app consumes —
	// the positions successors may depend on.
	RespFields []string `json:"respFields,omitempty"`

	// request-shape digest, computed exactly once (Hash).
	hashOnce sync.Once
	hash     string
}

// Hash returns a short stable digest of the signature's request shape, used
// by the configuration file (§4.4, the `hash` field of Figure 9). It is
// computed on the first call and kept — the proxy asks for it on every
// prefetch instance — so a signature must not change once it has been
// hashed; signatures are immutable once their graph is built.
func (s *Signature) Hash() string {
	s.hashOnce.Do(func() {
		h := sha256.New()
		enc := json.NewEncoder(h)
		// Hash a reduced, deterministic view.
		view := struct {
			ID     string
			Method string
			URI    string
			Query  []Field
			Header []Field
			BKind  httpmsg.BodyKind
			BForm  []Field
			BJSON  []JSONField
		}{s.ID, s.Method, s.URI.String(), s.Query, s.Header, s.BodyKind, s.BodyForm, s.BodyJSON}
		enc.Encode(view)
		s.hash = hex.EncodeToString(h.Sum(nil))[:12]
	})
	return s.hash
}

// MatchesRequest reports whether a live request plausibly instantiates this
// signature: method equality plus a URI pattern match (the paper's learning
// target identification, §4.2: "the proxy performs regular expression
// matching on the URI of the incoming transaction"; a pattern's only
// expression is the unknown, so Capture's literal segments suffice).
func (s *Signature) MatchesRequest(r *httpmsg.Request) bool {
	if !strings.EqualFold(s.Method, r.Method) {
		return false
	}
	var buf [4]string
	_, ok := s.URI.Capture(r.Host+r.Path, buf[:0])
	return ok
}

// UserAgnostic reports whether every pattern of the signature is free of
// run-time wildcards: each field is either a static literal or derived from
// a predecessor *response* (a Dep part). Wild parts are the per-user
// runtime values (cookies, device properties, learned hosts); a signature
// without them reconstructs identically for every user whose predecessor
// returned the same data, making its responses candidates for the proxy's
// cross-user shared cache tier. The exemplar's extra runtime headers are
// vetted separately by the proxy's header check.
func (s *Signature) UserAgnostic() bool {
	if s.URI.hasWild() {
		return false
	}
	for _, f := range s.Query {
		if f.Value.hasWild() {
			return false
		}
	}
	for _, f := range s.Header {
		if f.Value.hasWild() {
			return false
		}
	}
	for _, f := range s.BodyForm {
		if f.Value.hasWild() {
			return false
		}
	}
	for _, f := range s.BodyJSON {
		if f.Value.hasWild() {
			return false
		}
	}
	return true
}

func (p Pattern) hasWild() bool {
	for _, part := range p.Parts {
		if part.Kind == Wild {
			return true
		}
	}
	return false
}

// FieldLoc names a position inside a request where a dependency lands.
type FieldLoc struct {
	// Where is one of "uri", "query", "header", "form", "json".
	Where string `json:"where"`
	// Key is the query/header/form key or JSON body path; for "uri" it is
	// the decimal index of the pattern part.
	Key string `json:"key"`
}

func (l FieldLoc) String() string { return l.Where + ":" + l.Key }

// Dependency is one edge of the dependency graph: successor field ← value at
// RespPath of predecessor's response.
type Dependency struct {
	PredID   string   `json:"pred"`
	SuccID   string   `json:"succ"`
	RespPath string   `json:"respPath"`
	Loc      FieldLoc `json:"loc"`
}

// Graph bundles an app's signatures and dependencies.
type Graph struct {
	App  string       `json:"app"`
	Sigs []*Signature `json:"sigs"`
	Deps []Dependency `json:"deps"`

	byID map[string]*Signature
	// sigPos maps an ID to its position in Sigs, so replace-by-ID swaps via
	// the map instead of rescanning the slice.
	sigPos map[string]int
	// depSet backs AddDep's dedup with O(1) membership instead of an
	// O(|Deps|) scan per insert.
	depSet map[Dependency]bool

	// Lazily built, atomically published lookup indexes (index.go). Add and
	// reindex invalidate both, AddDep invalidates adj.
	idxMu sync.Mutex
	midx  atomic.Pointer[matchIndex]
	adj   atomic.Pointer[adjIndex]

	// Match-index telemetry (MatchTelemetry); lives here so counters
	// survive index rebuilds.
	matchLookups      atomic.Int64
	matchExactHits    atomic.Int64
	matchTrieCands    atomic.Int64
	matchRegexEvals   atomic.Int64
	matchRegexMatches atomic.Int64
}

// NewGraph builds an empty graph for an app.
func NewGraph(app string) *Graph {
	return &Graph{
		App:    app,
		byID:   make(map[string]*Signature),
		sigPos: make(map[string]int),
		depSet: make(map[Dependency]bool),
	}
}

// Add inserts a signature, replacing any previous one with the same ID.
func (g *Graph) Add(s *Signature) {
	if g.byID == nil {
		g.reindex()
	}
	if pos, exists := g.sigPos[s.ID]; exists {
		g.Sigs[pos] = s
	} else {
		g.sigPos[s.ID] = len(g.Sigs)
		g.Sigs = append(g.Sigs, s)
	}
	g.byID[s.ID] = s
	g.midx.Store(nil)
	g.adj.Store(nil)
}

// Sig resolves a signature by ID; nil when absent.
func (g *Graph) Sig(id string) *Signature {
	if g.byID == nil {
		g.reindex()
	}
	return g.byID[id]
}

func (g *Graph) reindex() {
	g.byID = make(map[string]*Signature, len(g.Sigs))
	g.sigPos = make(map[string]int, len(g.Sigs))
	for i, s := range g.Sigs {
		g.byID[s.ID] = s
		g.sigPos[s.ID] = i
	}
	g.depSet = make(map[Dependency]bool, len(g.Deps))
	for _, d := range g.Deps {
		g.depSet[d] = true
	}
	g.midx.Store(nil)
	g.adj.Store(nil)
}

// AddDep appends a dependency edge (deduplicating exact repeats).
func (g *Graph) AddDep(d Dependency) {
	if g.depSet == nil {
		g.reindex()
	}
	if g.depSet[d] {
		return
	}
	g.depSet[d] = true
	g.Deps = append(g.Deps, d)
	g.adj.Store(nil)
}

// Predecessors returns the IDs of signatures that id depends on, in
// deterministic order. The returned slice is shared with the graph's
// adjacency index: treat it as read-only.
func (g *Graph) Predecessors(id string) []string {
	return g.adjIndex().pred[id]
}

// Successors returns the IDs of signatures depending on id. The returned
// slice is shared with the adjacency index: treat it as read-only.
func (g *Graph) Successors(id string) []string {
	return g.adjIndex().succ[id]
}

// DepsInto returns the dependency edges landing in succ, in Deps order.
// Shared with the adjacency index: treat it as read-only.
func (g *Graph) DepsInto(succ string) []Dependency {
	return g.adjIndex().depsInto[succ]
}

// DepsFrom returns the dependency edges leaving pred, in Deps order.
// Shared with the adjacency index: treat it as read-only.
func (g *Graph) DepsFrom(pred string) []Dependency {
	return g.adjIndex().depsFrom[pred]
}

// Prefetchable returns the IDs of successor signatures — those with at least
// one incoming dependency (the paper's "prefetchable signature is a
// successor"). Sorted, cached in the adjacency index: treat as read-only.
func (g *Graph) Prefetchable() []string {
	return g.adjIndex().prefetchable
}

// MaxChainLen returns the length (in edges + 1, i.e. number of transactions)
// of the longest successive dependency chain. Cycles, which static
// over-approximation can produce, are broken by visit marking.
func (g *Graph) MaxChainLen() int {
	adj := map[string][]string{}
	for _, d := range g.Deps {
		adj[d.PredID] = append(adj[d.PredID], d.SuccID)
	}
	memo := map[string]int{}
	onPath := map[string]bool{}
	var depth func(id string) int
	depth = func(id string) int {
		if v, ok := memo[id]; ok {
			return v
		}
		if onPath[id] {
			return 0
		}
		onPath[id] = true
		best := 0
		for _, nxt := range adj[id] {
			if d := depth(nxt); d > best {
				best = d
			}
		}
		onPath[id] = false
		memo[id] = best + 1
		return best + 1
	}
	max := 0
	if len(g.Sigs) > 0 && len(g.Deps) > 0 {
		for _, s := range g.Sigs {
			if d := depth(s.ID); d > max {
				max = d
			}
		}
	}
	return max
}

// Chain returns one longest dependency chain as a sequence of signature IDs,
// for the case-study outputs (Figures 11/12 of the paper).
func (g *Graph) Chain() []string {
	adj := map[string][]string{}
	for _, d := range g.Deps {
		adj[d.PredID] = append(adj[d.PredID], d.SuccID)
	}
	for _, v := range adj {
		sort.Strings(v)
	}
	var best []string
	onPath := map[string]bool{}
	var walk func(id string, path []string)
	walk = func(id string, path []string) {
		if onPath[id] {
			return
		}
		onPath[id] = true
		path = append(path, id)
		if len(path) > len(best) {
			best = append([]string(nil), path...)
		}
		for _, nxt := range adj[id] {
			walk(nxt, path)
		}
		onPath[id] = false
	}
	ids := make([]string, 0, len(g.Sigs))
	for _, s := range g.Sigs {
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	for _, id := range ids {
		walk(id, nil)
	}
	return best
}

func literalLen(p Pattern) int {
	n := 0
	for _, part := range p.Parts {
		if part.Kind == Lit {
			n += len(part.Lit)
		}
	}
	return n
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merge combines several apps' graphs into one, so a single proxy instance
// can accelerate multiple target apps (§2 of the paper: "the proxy can
// accelerate multiple target apps"). Signature IDs are app-prefixed by
// construction, so they cannot collide.
func Merge(graphs ...*Graph) *Graph {
	out := NewGraph("multi")
	if len(graphs) == 1 {
		out.App = graphs[0].App
	}
	for _, g := range graphs {
		if g == nil {
			continue
		}
		for _, s := range g.Sigs {
			out.Add(s)
		}
		for _, d := range g.Deps {
			out.AddDep(d)
		}
	}
	return out
}

// Fingerprint returns a short stable digest of the whole graph — every
// signature's ID and shape hash plus every dependency edge, order
// independent. Persisted learner state is keyed by it: exemplars and
// samples learned against one graph are meaningless (or wrong) against
// another, so a restore only applies when the fingerprints match.
func (g *Graph) Fingerprint() string {
	lines := make([]string, 0, len(g.Sigs)+len(g.Deps))
	for _, s := range g.Sigs {
		lines = append(lines, "sig\x00"+s.ID+"\x00"+s.Hash())
	}
	for _, d := range g.Deps {
		lines = append(lines, "dep\x00"+d.PredID+"\x00"+d.SuccID+"\x00"+d.RespPath+"\x00"+d.Loc.String())
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Marshal serializes the graph to JSON.
func (g *Graph) Marshal() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// Unmarshal parses a graph from JSON.
func Unmarshal(b []byte) (*Graph, error) {
	var g Graph
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, err
	}
	g.reindex()
	return &g, nil
}
