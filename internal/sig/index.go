// Match and adjacency indexes for Graph.
//
// The proxy identifies the signature of *every* live transaction by URI
// matching (§4.2), and walks the dependency graph on every prefetch chain
// step. The seed implementation scanned all signatures (one pattern match
// each) per request and rescanned the full Deps slice per graph query —
// O(|Sigs|) matches and O(|Deps|) on the hottest paths in the proxy. This
// file replaces both scans with indexes built once and invalidated on
// mutation:
//
//   - matchIndex: an exact map keyed by the full literal URI (one hash
//     lookup, zero pattern evaluations) plus a longest-literal-prefix radix
//     trie that narrows patterns with wild/dep parts to a small candidate
//     bucket, each verified by Pattern.Capture's literal-segment match.
//     Candidates carry a precomputed specificity key so results come out
//     most-specific-first without sorting machinery on the hot path.
//   - adjIndex: successor/predecessor edge maps, the prefetchable set, and
//     each predecessor's compiled read plan (plan.go), so chain walking
//     never rescans Deps and learning never re-derives what an edge reads.
//
// Invalidation rules: Add invalidates the match index and, because read
// plans compile the signatures' patterns, the adjacency index too; AddDep
// invalidates the adjacency index (edges changed); and reindex — which
// Unmarshal calls — invalidates both. Indexes rebuild lazily on next
// use, under a mutex, so graph construction stays O(1) per insert and
// concurrent readers never see a half-built index. Mutating a graph while
// other goroutines match against it is not supported (and never was — the
// Sigs/Deps slices themselves are unsynchronized); the lazy rebuild is
// guarded so that read-only concurrent use, the proxy's steady state, is
// race-free.
package sig

import (
	"math"
	"strings"

	"appx/internal/httpmsg"
)

// matchCand is one indexed signature and its hot-path ordering key.
type matchCand struct {
	sig *Signature
	// key orders candidates most-specific-first with ties broken by Sigs
	// position — exactly the order the naive scan's stable sort produced:
	// high 32 bits hold the inverted literal length, low 32 the ordinal.
	key uint64
}

func candKey(litLen, ordinal int) uint64 {
	return uint64(math.MaxUint32-uint32(litLen))<<32 | uint64(uint32(ordinal))
}

// trieNode is one node of the radix trie over literal URI prefixes.
// Candidates hang off the node where their literal prefix ends; matching a
// request visits every node on the path its URI spells, so each request sees
// exactly the candidates whose literal prefix is a prefix of its URI.
type trieNode struct {
	label    string
	children map[byte]*trieNode
	cands    []*matchCand
}

func (n *trieNode) insert(prefix string, c *matchCand) {
	node := n
	for {
		if prefix == "" {
			node.cands = append(node.cands, c)
			return
		}
		if node.children == nil {
			node.children = map[byte]*trieNode{}
		}
		child := node.children[prefix[0]]
		if child == nil {
			node.children[prefix[0]] = &trieNode{label: prefix, cands: []*matchCand{c}}
			return
		}
		common := commonPrefixLen(prefix, child.label)
		if common == len(child.label) {
			prefix = prefix[common:]
			node = child
			continue
		}
		// Split the child at the divergence point.
		split := &trieNode{
			label:    child.label[:common],
			children: map[byte]*trieNode{},
		}
		child.label = child.label[common:]
		split.children[child.label[0]] = child
		node.children[split.label[0]] = split
		prefix = prefix[common:]
		node = split
	}
}

// collect appends the candidates of every node on s's path into out and
// returns it. The walk touches O(len(s)) nodes regardless of index size.
func (n *trieNode) collect(s string, out []*matchCand) []*matchCand {
	node := n
	for {
		out = append(out, node.cands...)
		if len(s) == 0 || node.children == nil {
			return out
		}
		child := node.children[s[0]]
		if child == nil || !strings.HasPrefix(s, child.label) {
			return out
		}
		s = s[len(child.label):]
		node = child
	}
}

func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// matchIndex is the two-level signature lookup structure.
type matchIndex struct {
	// exact maps a fully-literal host+path to its candidates. Zero pattern
	// evaluations on this level: key equality is the match.
	exact map[string][]*matchCand
	// root holds patterns with wild/dep parts, bucketed by longest literal
	// prefix. Patterns starting with a wildcard (the paper's dynamic-host
	// shape) land at the root and are matched on every lookup — the
	// fallback the telemetry's regexEvals counter makes visible.
	root *trieNode
}

// literalPrefix returns the concatenation of the pattern's leading literal
// parts — the trie bucketing key.
func literalPrefix(p Pattern) string {
	var b strings.Builder
	for _, part := range p.Parts {
		if part.Kind != Lit {
			break
		}
		b.WriteString(part.Lit)
	}
	return b.String()
}

// literalString joins all parts of a fully-literal pattern.
func literalString(p Pattern) string {
	var b strings.Builder
	for _, part := range p.Parts {
		b.WriteString(part.Lit)
	}
	return b.String()
}

func buildMatchIndex(sigs []*Signature) *matchIndex {
	idx := &matchIndex{
		exact: make(map[string][]*matchCand),
		root:  &trieNode{},
	}
	for i, s := range sigs {
		c := &matchCand{sig: s, key: candKey(literalLen(s.URI), i)}
		if !s.URI.HasUnknown() {
			uri := literalString(s.URI)
			idx.exact[uri] = append(idx.exact[uri], c)
			continue
		}
		idx.root.insert(literalPrefix(s.URI), c)
	}
	// Exact buckets come out pre-ordered; trie buckets are ordered per node,
	// and the cross-node merge happens in MatchRequest's insertion sort.
	for _, bucket := range idx.exact {
		sortCands(bucket)
	}
	sortTrieCands(idx.root)
	return idx
}

func sortTrieCands(n *trieNode) {
	sortCands(n.cands)
	for _, child := range n.children {
		sortTrieCands(child)
	}
}

// sortCands orders a candidate slice by key ascending (most-specific-first,
// ties in Sigs order). Buckets are small; insertion sort is allocation-free
// and stable by construction (keys are unique — ordinals differ).
func sortCands(cands []*matchCand) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].key < cands[j-1].key; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// adjIndex caches the dependency graph's adjacency so chain walking and the
// status endpoints stop scanning Deps. Returned slices are shared: callers
// must treat them as read-only.
type adjIndex struct {
	succ         map[string][]string
	pred         map[string][]string
	depsInto     map[string][]Dependency
	depsFrom     map[string][]Dependency
	prefetchable []string
	plans        map[string]*ReadPlan
}

func buildAdjIndex(g *Graph) *adjIndex {
	a := &adjIndex{
		succ:     make(map[string][]string),
		pred:     make(map[string][]string),
		depsInto: make(map[string][]Dependency),
		depsFrom: make(map[string][]Dependency),
		plans:    make(map[string]*ReadPlan),
	}
	for _, d := range g.Deps {
		a.depsInto[d.SuccID] = append(a.depsInto[d.SuccID], d)
		a.depsFrom[d.PredID] = append(a.depsFrom[d.PredID], d)
	}
	prefSet := make(map[string]bool, len(a.depsInto))
	for succID, ds := range a.depsInto {
		prefSet[succID] = true
		set := make(map[string]bool, len(ds))
		for _, d := range ds {
			set[d.PredID] = true
		}
		a.pred[succID] = sortedKeys(set)
	}
	for predID, ds := range a.depsFrom {
		set := make(map[string]bool, len(ds))
		for _, d := range ds {
			set[d.SuccID] = true
		}
		a.succ[predID] = sortedKeys(set)
		if plan := buildReadPlan(g, predID, a.succ[predID]); plan != nil {
			a.plans[predID] = plan
		}
	}
	a.prefetchable = sortedKeys(prefSet)
	return a
}

// matchIndex returns the current match index, building it if a mutation (or
// construction) invalidated it. Double-checked under idxMu so concurrent
// readers build at most once.
func (g *Graph) matchIndex() *matchIndex {
	if idx := g.midx.Load(); idx != nil {
		return idx
	}
	g.idxMu.Lock()
	defer g.idxMu.Unlock()
	if idx := g.midx.Load(); idx != nil {
		return idx
	}
	idx := buildMatchIndex(g.Sigs)
	g.midx.Store(idx)
	return idx
}

// adjIndex returns the current adjacency index, building it on demand.
func (g *Graph) adjIndex() *adjIndex {
	if a := g.adj.Load(); a != nil {
		return a
	}
	g.idxMu.Lock()
	defer g.idxMu.Unlock()
	if a := g.adj.Load(); a != nil {
		return a
	}
	a := buildAdjIndex(g)
	g.adj.Store(a)
	return a
}

// MatchTelemetry counts match-index hot-path events since graph creation.
// Counters survive index rebuilds (they live on the Graph, not the index).
type MatchTelemetry struct {
	// Lookups counts MatchRequest calls.
	Lookups int64
	// ExactHits counts lookups answered (at least partly) by the exact map —
	// zero pattern evaluations on that level.
	ExactHits int64
	// TrieCandidates counts candidates the prefix trie handed up for
	// verification, totalled across lookups.
	TrieCandidates int64
	// RegexEvals counts pattern evaluations (Pattern.Capture on a trie
	// candidate) — the work the index exists to avoid; RegexMatches is the
	// subset that matched. The names predate the literal-segment matcher.
	RegexEvals   int64
	RegexMatches int64
}

// MatchTelemetry snapshots the match-index counters.
func (g *Graph) MatchTelemetry() MatchTelemetry {
	return MatchTelemetry{
		Lookups:        g.matchLookups.Load(),
		ExactHits:      g.matchExactHits.Load(),
		TrieCandidates: g.matchTrieCands.Load(),
		RegexEvals:     g.matchRegexEvals.Load(),
		RegexMatches:   g.matchRegexMatches.Load(),
	}
}

// MatchRequest finds the signatures whose URI pattern matches a live request,
// most-specific (longest literal prefix) first — the same set in the same
// order as the reference scan (matchRequestScan in index_test.go), via the
// two-level index: exact map first (pure literals, no pattern evaluation),
// then the prefix trie's candidate bucket, each candidate matched by
// literal segments.
func (g *Graph) MatchRequest(r *httpmsg.Request) []*Signature {
	idx := g.matchIndex()
	g.matchLookups.Add(1)
	uri := r.Host + r.Path

	var candBuf [8]*matchCand
	cands := candBuf[:0]
	if bucket := idx.exact[uri]; len(bucket) > 0 {
		hit := false
		for _, c := range bucket {
			if strings.EqualFold(c.sig.Method, r.Method) {
				cands = append(cands, c)
				hit = true
			}
		}
		if hit {
			g.matchExactHits.Add(1)
		}
	}

	var rawBuf [8]*matchCand
	raw := idx.root.collect(uri, rawBuf[:0])
	if len(raw) > 0 {
		g.matchTrieCands.Add(int64(len(raw)))
		evals, hits := int64(0), int64(0)
		var capBuf [8]string
		for _, c := range raw {
			if !strings.EqualFold(c.sig.Method, r.Method) {
				continue
			}
			evals++
			if _, ok := c.sig.URI.Capture(uri, capBuf[:0]); ok {
				hits++
				cands = append(cands, c)
			}
		}
		if evals > 0 {
			g.matchRegexEvals.Add(evals)
		}
		if hits > 0 {
			g.matchRegexMatches.Add(hits)
		}
	}

	if len(cands) == 0 {
		return nil
	}
	// Exact and trie buckets are each pre-ordered, but their union (and
	// candidates drawn from several trie nodes) needs a merge; candidate
	// sets are small, so an insertion sort on the precomputed keys replaces
	// the seed's sort.SliceStable + closure on the hot path.
	sortCands(cands)
	out := make([]*Signature, len(cands))
	for i, c := range cands {
		out[i] = c.sig
	}
	return out
}
