// Package cache implements the proxy's prefetch-response store: a
// hash-sharded, byte-budgeted, TTL-indexed cache with a cross-user shared
// tier.
//
// The paper's prototype keeps prefetched responses in one map per user (§5:
// "manages prefetched response per user separately"); this subsystem keeps
// that per-user semantics — a *scope* is a user key — while adding what a
// production deployment needs: per-shard locks instead of one mutex,
// expiry-ordered eviction via a min-heap instead of an O(n) scan, a
// cost-aware (GreedyDual-Size) eviction order under capacity pressure, a
// global resident-byte budget with per-scope fairness caps, and
// eviction/hit telemetry by cause.
//
// The shared tier is one distinguished scope (SharedScope): responses to
// requests that carry no per-user runtime values are stored once and served
// to every user. Safety rests on the proxy's exact-match rule (R3) — a
// cached response is only ever served to a byte-identical request — so the
// shared tier changes *who pays for the origin fetch*, never *what any
// client observes*. The store holds responses only: which fetch is on its way
// to a slot, and who may start one, is the proxy's key table.
//
// Beneath the scopes, a body table keeps each distinct complete body of 2 KiB
// or more once: an image prefetched for six users is six entries over one
// slice. Accounting stays logical — every entry is charged its full body — so
// caps, the budget, RoomFor and the eviction order read as if nothing were
// shared, and only physical memory moves.
package cache

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/httpmsg"
)

// SharedScope is the reserved scope for entries shared across all users.
// The NUL prefix keeps it disjoint from any proxy user key (user keys come
// from IPs or header values, which never contain NUL).
const SharedScope = "\x00shared"

// Options configures a Store. Zero fields take defaults.
type Options struct {
	// Shards is the number of independently locked shard partitions
	// (default 32).
	Shards int
	// MaxBytes is the global resident-byte budget across all shards and
	// scopes (default 256 MiB); exceeding it evicts the entries with the
	// least eviction credit left (see scopeState). <0 disables the budget.
	MaxBytes int64
	// PerScopeBytes caps one user scope's resident bytes (default
	// MaxBytes/64, at least 1 MiB) so a single chatty user cannot occupy
	// the whole budget. The shared scope is exempt. <0 disables the cap.
	PerScopeBytes int64
	// MaxEntriesPerScope caps one user scope's entry count (default 4096).
	// The shared scope is exempt. <0 disables the cap.
	MaxEntriesPerScope int
	// Now supplies time; defaults to time.Now. Injected for expiry tests.
	Now func() time.Time
	// Tier, when non-nil, is a lower storage level (a disk tier): Put
	// spills entries into it write-behind, Get probes it on a miss and
	// promotes what it finds, and DropScope propagates scope removal.
	Tier Tier
}

// Tier is a lower storage level below the in-memory store. Implementations
// must be safe for concurrent use and must never block the caller for long:
// Spill is fire-and-forget, Load is a synchronous read bounded by one file
// read, Drop is a synchronous scope removal.
type Tier interface {
	Spill(scope, key string, e *Entry)
	Load(scope, key string) (*Entry, bool)
	Drop(scope string)
}

func (o Options) filled() Options {
	if o.Shards <= 0 {
		o.Shards = 32
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = 256 << 20
	}
	if o.PerScopeBytes == 0 {
		o.PerScopeBytes = o.MaxBytes / 64
		if o.PerScopeBytes < 1<<20 {
			o.PerScopeBytes = 1 << 20
		}
	}
	if o.MaxEntriesPerScope == 0 {
		o.MaxEntriesPerScope = 4096
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Entry is one prefetched response payload. Req is retained so an expired
// entry can seed a refresh prefetch; SigID attributes telemetry.
//
// A stored entry's Resp.Body is immutable: the store may hand the same slice
// to every entry whose body is equal, across users, so a reader may slice,
// write out, scan or encode it, and never write into it.
type Entry struct {
	Resp    *httpmsg.Response
	Req     *httpmsg.Request
	SigID   string
	Expires time.Time
	// Refreshed marks an entry produced by a foreground refresh of an
	// expired entry (kept warm for a demonstrated client) rather than a
	// speculative prefetch — telemetry distinguishes the two hit kinds.
	Refreshed bool
	// Borrowed marks an entry whose request was built from what the user's
	// device had shown the proxy on other signatures, before any live
	// instance of its own: telemetry counts how many of them are served.
	Borrowed bool
	// Cost is the latency a miss on this entry would cost the client: its
	// signature's origin response time when it was stored. Eviction weighs
	// it against the entry's size (see scopeState). Zero means unknown: the
	// entry is ordered by recency alone and leaves before any costed entry
	// of the same age.
	Cost time.Duration
	// Root orders entries by the live transaction their prefetch chain
	// descends from (a per-user count; later is larger). Zero — an entry that
	// was not prefetched here — is older than every chain. Only RoomFor reads
	// it; the eviction order does not.
	Root uint64

	used atomic.Bool
}

// FirstUse atomically marks the entry served and reports whether this was
// the first time (the numerator of the paper's used-prefetch ratio).
func (e *Entry) FirstUse() bool { return e.used.CompareAndSwap(false, true) }

// entryOverhead approximates the per-entry bookkeeping cost (maps, heap
// slots, struct headers) charged against the byte budget.
const entryOverhead = 256

// size approximates an entry's resident footprint: response body and
// headers, the canonical key, and fixed overhead. The retained request is
// a reconstruction recipe, small next to response bodies, and is not
// charged.
func size(key string, e *Entry) int64 {
	n := int64(len(key)) + entryOverhead
	if e.Resp != nil {
		n += int64(len(e.Resp.Body))
		for _, f := range e.Resp.Header {
			n += int64(len(f.Key) + len(f.Value))
		}
	}
	return n
}

// costFloor is the least miss cost told apart: an origin time under a
// millisecond is of the order of the proxy's own queueing, so it measures
// the proxy, not the origin, and orders nothing.
const costFloor = time.Millisecond

// credit is what a byte of cache spent on an entry saves: miss latency in
// ns per resident byte, rounded down to a power of two. The rounding makes
// entries of one signature and about one size tie — the cost is a moving
// average and a difference under 2x is inside its noise — so recency decides
// among them, and it keeps priorities exact sums of powers of two.
func credit(cost time.Duration, size int64) float64 {
	if cost <= 0 {
		return 0
	}
	if cost < costFloor {
		cost = costFloor
	}
	_, exp := math.Frexp(float64(cost) / float64(size))
	return math.Ldexp(0.5, exp)
}

// entry is the shard-internal wrapper: payload plus index state.
type entry struct {
	payload *Entry
	sc      *scopeState
	body    *body // the body-table reference, nil for an unshared body
	key     string
	size    int64
	credit  float64
	// prio is the GreedyDual-Size priority H, seq the shard tick of the
	// last touch; together they key the scope's eviction heap.
	prio    float64
	seq     uint64
	ordIdx  int
	heapIdx int
}

// scopeState is one scope's slice of a shard: its entries, their bytes, and
// the one order every capacity eviction draws victims from — GreedyDual-Size
// (Cao & Irani). An entry's priority is H = L + credit, set when it is stored
// and again on every Get, where L is the scope's clock; the victim is the
// lowest H (oldest touch among equals) and L advances to the victim's H. A
// large body that is cheap to refetch therefore leaves before a small one
// that is slow to refetch, and an entry nobody reads loses to newer ones once
// L has risen by its credit. L never falls, so with equal credits H grows
// with touch time and the order is exactly least-recently-used.
//
// H is a float64: once L dwarfs a credit by 2^53 the sum rounds to L and that
// entry orders by recency alone — a graceful decay, not an overflow.
type scopeState struct {
	name    string
	entries map[string]*entry // canonical key → entry
	order   evictHeap
	bytes   int64
	clock   float64
}

// evictHeap is a min-heap on (prio, seq); ordIdx tracks positions.
type evictHeap []*entry

func (h evictHeap) Len() int { return len(h) }
func (h evictHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h evictHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].ordIdx = i
	h[j].ordIdx = j
}
func (h *evictHeap) Push(x any) {
	e := x.(*entry)
	e.ordIdx = len(*h)
	*h = append(*h, e)
}
func (h *evictHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// victim returns the scope's next eviction victim other than keep, nil when
// keep is all it holds. When keep is the root, the runner-up is one of the
// root's two children.
func (sc *scopeState) victim(keep *entry) *entry {
	h := sc.order
	if h[0] != keep {
		return h[0]
	}
	switch {
	case len(h) == 1:
		return nil
	case len(h) == 2 || h.Less(1, 2):
		return h[1]
	}
	return h[2]
}

// entryHeap is a min-heap on expiry time; heapIdx tracks positions so
// arbitrary removal is O(log n).
type entryHeap []*entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	return h[i].payload.Expires.Before(h[j].payload.Expires)
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*entry)
	e.heapIdx = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.heapIdx = -1
	*h = old[:n-1]
	return e
}

// shard is one lock domain: a fraction of the scopes (and of the shared
// tier's keys), with its own expiry heap. Hot-path counters live here too,
// guarded by the lock the operation already holds, so telemetry adds no
// cross-shard synchronization.
type shard struct {
	mu      sync.Mutex
	byScope map[string]*scopeState // non-empty scopes only
	heap    entryHeap
	tick    uint64 // touch counter: recency across the shard

	hits, misses, sharedHits, puts int64
	sigs                           map[string]*SigStats
}

// sigStat returns the shard-local counters for a signature (sh.mu held).
func (sh *shard) sigStat(id string) *SigStats {
	st := sh.sigs[id]
	if st == nil {
		st = &SigStats{}
		sh.sigs[id] = st
	}
	return st
}

// EvictionCounts breaks evictions down by cause.
type EvictionCounts struct {
	// Expired entries were past their expiration time (heap sweep or
	// discovered at lookup).
	Expired int64
	// Budget entries were evicted to respect the global byte budget.
	Budget int64
	// ScopeBytes / ScopeEntries entries were evicted to respect one user
	// scope's byte or entry cap.
	ScopeBytes   int64
	ScopeEntries int64
	// Replaced entries were overwritten by a newer Put of the same key.
	Replaced int64
	// Dropped entries left with their whole scope (user eviction).
	Dropped int64
}

// SigStats is one signature's cache telemetry. Hit ratio is hits over
// entries stored (misses cannot be attributed to a signature: an absent
// key names no signature). Evicted counts entries a capacity limit pushed
// out (scope caps and the global budget — not expiry, replacement or a
// dropped scope); EvictedUnused those of them no client was ever served, and
// EvictedUnusedBytes their resident size: origin bytes that bought nothing.
type SigStats struct {
	Puts, Hits, Expired    int64
	Evicted, EvictedUnused int64
	EvictedUnusedBytes     int64
}

// HitRatio returns hits per stored entry (may exceed 1: one entry can be
// served many times).
func (s SigStats) HitRatio() float64 {
	if s.Puts == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Puts)
}

// Metrics is an immutable snapshot of the store's counters.
type Metrics struct {
	// Hits and SharedHits count fresh lookups served, overall and from the
	// shared tier; Misses counts per-tier probes that found nothing fresh
	// (a layered lookup probing two tiers can record two misses).
	Hits, Misses, SharedHits int64
	// Puts counts entries stored.
	Puts int64
	// ResidentBytes / Entries describe current occupancy; SharedBytes /
	// SharedEntries the shared tier's slice of it. Bytes are logical: every
	// entry counts its whole body, however many entries share it.
	ResidentBytes, SharedBytes int64
	Entries, SharedEntries     int
	Evictions                  EvictionCounts
	// Bodies and BodyBytes are the body table's distinct bodies and their
	// bytes: what the shared bodies take in memory, each counted once.
	Bodies    int
	BodyBytes int64
	// PerSig carries per-signature put/hit/expiry/eviction counts.
	PerSig map[string]SigStats
}

// HitRatio returns hits/(hits+misses), 0 when idle.
func (m Metrics) HitRatio() float64 {
	if m.Hits+m.Misses == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Hits+m.Misses)
}

// SharedHitRatio returns the fraction of hits served from the shared tier.
func (m Metrics) SharedHitRatio() float64 {
	if m.Hits == 0 {
		return 0
	}
	return float64(m.SharedHits) / float64(m.Hits)
}

// Store is the sharded prefetch store. All methods are safe for concurrent
// use.
type Store struct {
	opts     Options
	shards   []*shard
	bodies   *bodyTable
	resident atomic.Int64

	// Eviction causes are rare events; plain atomics suffice.
	evExpired, evBudget, evScopeB, evScopeN atomic.Int64
	evReplaced, evDropped                   atomic.Int64

	sweepMu   sync.Mutex
	sweepStop chan struct{}
}

// New builds a store.
func New(opts Options) *Store {
	s := &Store{opts: opts.filled(), bodies: newBodyTable()}
	s.shards = make([]*shard, s.opts.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{
			byScope: map[string]*scopeState{},
			sigs:    map[string]*SigStats{},
		}
	}
	return s
}

// shardOf picks the lock domain: user scopes hash by scope, so one user's
// entries share a shard and per-user accounting and DropScope touch one
// lock; shared entries hash by key, spreading the hot shared tier across
// all shards.
func (s *Store) shardOf(scope, key string) *shard {
	x := scope
	if scope == SharedScope {
		x = key
	}
	// FNV-1a.
	h := uint32(2166136261)
	for i := 0; i < len(x); i++ {
		h ^= uint32(x[i])
		h *= 16777619
	}
	return s.shards[h%uint32(len(s.shards))]
}

// Get looks up scope/key. fresh=true means the entry is valid to serve.
// A non-nil entry with fresh=false was expired at lookup: it has been
// removed, and its payload is returned so the caller may use the retained
// request to refresh (never the response — the stale invariant).
func (s *Store) Get(scope, key string) (e *Entry, fresh bool) {
	sh := s.shardOf(scope, key)
	now := s.opts.Now()
	sh.mu.Lock()
	en := sh.lookupLocked(scope, key)
	if en == nil {
		sh.mu.Unlock()
		// Read-through: a memory miss probes the lower tier (outside the
		// shard lock — tier loads touch the disk). A fresh tier entry is
		// promoted into memory without re-spilling it back down.
		if t := s.opts.Tier; t != nil {
			if p, ok := t.Load(scope, key); ok && p != nil && now.Before(p.Expires) {
				s.put(scope, key, p, false)
				sh.mu.Lock()
				sh.hits++
				if scope == SharedScope {
					sh.sharedHits++
				}
				sh.sigStat(p.SigID).Hits++
				sh.mu.Unlock()
				return p, true
			}
		}
		sh.mu.Lock()
		sh.misses++
		sh.mu.Unlock()
		return nil, false
	}
	if !now.Before(en.payload.Expires) {
		s.removeLocked(sh, en)
		sh.misses++
		sh.sigStat(en.payload.SigID).Expired++
		sh.mu.Unlock()
		s.evExpired.Add(1)
		return en.payload, false
	}
	sh.touchLocked(en)
	heap.Fix(&en.sc.order, en.ordIdx)
	sh.hits++
	if scope == SharedScope {
		sh.sharedHits++
	}
	sh.sigStat(en.payload.SigID).Hits++
	sh.mu.Unlock()
	return en.payload, true
}

// Peek returns scope/key if present and fresh, with none of Get's side
// effects: no hit/miss counters, no priority refresh, no tier read-through, no
// expired-entry removal. Cluster siblings peek each other's shared tiers
// during peer fill; remote probes must not distort local telemetry or
// eviction order.
func (s *Store) Peek(scope, key string) (*Entry, bool) {
	sh := s.shardOf(scope, key)
	now := s.opts.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	en := sh.lookupLocked(scope, key)
	if en == nil || !now.Before(en.payload.Expires) {
		return nil, false
	}
	return en.payload, true
}

// Put stores an entry, replacing any previous one under the same key, and
// enforces the scope caps and the global budget. When a lower tier is
// configured the entry is also spilled to it write-behind. Put may replace
// p.Resp.Body with an equal slice the store already holds, so the caller
// must not have handed p to another goroutine yet.
func (s *Store) Put(scope, key string, p *Entry) {
	s.put(scope, key, p, true)
}

// put is Put's body; spill=false is the tier-promotion path, which must not
// echo the entry back down to the tier it just came from.
func (s *Store) put(scope, key string, p *Entry, spill bool) {
	sz := size(key, p)
	ref := s.shareBody(p)
	sh := s.shardOf(scope, key)
	sh.mu.Lock()
	if old := sh.lookupLocked(scope, key); old != nil {
		s.removeLocked(sh, old)
		s.evReplaced.Add(1)
	}
	sc := sh.byScope[scope]
	if sc == nil {
		sc = &scopeState{name: scope, entries: map[string]*entry{}}
		sh.byScope[scope] = sc
	}
	en := &entry{payload: p, sc: sc, body: ref, key: key, size: sz, credit: credit(p.Cost, sz)}
	sh.touchLocked(en)
	sc.entries[key] = en
	heap.Push(&sc.order, en)
	heap.Push(&sh.heap, en)
	sc.bytes += sz
	s.resident.Add(sz)
	if scope != SharedScope {
		// Per-scope fairness caps: evict the scope's own entries, never
		// another user's. The new entry itself is exempt so a single
		// oversized response still caches (and ages out normally).
		for s.opts.MaxEntriesPerScope > 0 && len(sc.entries) > s.opts.MaxEntriesPerScope {
			v := sc.victim(en)
			if v == nil {
				break
			}
			s.evictLocked(sh, v)
			s.evScopeN.Add(1)
		}
		for s.opts.PerScopeBytes > 0 && sc.bytes > s.opts.PerScopeBytes {
			v := sc.victim(en)
			if v == nil {
				break
			}
			s.evictLocked(sh, v)
			s.evScopeB.Add(1)
		}
	}
	sh.puts++
	sh.sigStat(p.SigID).Puts++
	sh.mu.Unlock()
	if spill {
		// Only complete buffered bodies spill: a streaming or truncated
		// capture serialized to disk would restore as a silently short entry.
		if t := s.opts.Tier; t != nil && (p.Resp == nil || p.Resp.BodyComplete()) {
			t.Spill(scope, key, p)
		}
	}
	if s.opts.MaxBytes > 0 && s.resident.Load() > s.opts.MaxBytes {
		s.evictGlobal(sh)
	}
}

// shareBody swaps a complete body of shareFloor bytes or more for the equal
// one the table holds, and returns the reference the entry gives back when it
// leaves; nil for a body that is not shared. It runs before the shard lock.
func (s *Store) shareBody(p *Entry) *body {
	r := p.Resp
	if r == nil || len(r.Body) < shareFloor || !r.BodyComplete() {
		return nil
	}
	x := s.bodies.acquire(r.Body)
	if &x.b[0] != &r.Body[0] {
		r.Body = x.b
	}
	return x
}

// lookupLocked returns scope/key's entry, nil when absent (sh.mu held).
func (sh *shard) lookupLocked(scope, key string) *entry {
	if sc := sh.byScope[scope]; sc != nil {
		return sc.entries[key]
	}
	return nil
}

// touchLocked (re)sets an entry's priority from its scope's clock and stamps
// its recency; the caller fixes or pushes the heap slot (sh.mu held).
func (sh *shard) touchLocked(en *entry) {
	sh.tick++
	en.prio, en.seq = en.sc.clock+en.credit, sh.tick
}

// removeLocked unlinks an entry from all three indexes and the accounting,
// and gives back its body reference (sh.mu held).
func (s *Store) removeLocked(sh *shard, en *entry) {
	sc := en.sc
	delete(sc.entries, en.key)
	if len(sc.entries) == 0 {
		delete(sh.byScope, sc.name)
	}
	heap.Remove(&sc.order, en.ordIdx)
	heap.Remove(&sh.heap, en.heapIdx)
	sc.bytes -= en.size
	s.resident.Add(-en.size)
	if en.body != nil {
		s.bodies.release(en.body)
	}
}

// evictLocked is removeLocked for a capacity eviction: the scope's clock
// advances to the victim's priority and the signature's eviction counters
// move (sh.mu held).
func (s *Store) evictLocked(sh *shard, en *entry) {
	// The clock never falls: an entry a Put exempted as just stored can sit
	// below it and be the victim later.
	if en.prio > en.sc.clock {
		en.sc.clock = en.prio
	}
	s.removeLocked(sh, en)
	st := sh.sigStat(en.payload.SigID)
	st.Evicted++
	if !en.payload.used.Load() {
		st.EvictedUnused++
		st.EvictedUnusedBytes += en.size
	}
}

// coldestLocked picks a shard's global-budget victim: of every scope's next
// victim, the one with the least credit left above its own scope's clock
// (priorities of different scopes are not comparable; what is left of them
// is), least recently touched among equals — the shard's LRU entry when
// credits are uniform (sh.mu held). It looks at one entry per scope.
func (sh *shard) coldestLocked() *entry {
	var v *entry
	var left float64
	for _, sc := range sh.byScope {
		head := sc.order[0]
		l := head.prio - sc.clock
		if v == nil || l < left || (l == left && head.seq < v.seq) {
			v, left = head, l
		}
	}
	return v
}

// evictGlobal enforces the global byte budget: drain the inserting shard
// first (cheapest — the lock is warm and the bytes just landed there), then
// sweep the other shards one lock at a time. Locks are never nested, so no
// ordering deadlock is possible.
func (s *Store) evictGlobal(pref *shard) {
	evictOne := func(sh *shard) bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		v := sh.coldestLocked()
		if v == nil {
			return false
		}
		s.evictLocked(sh, v)
		s.evBudget.Add(1)
		return true
	}
	for s.resident.Load() > s.opts.MaxBytes && evictOne(pref) {
	}
	for s.resident.Load() > s.opts.MaxBytes {
		progress := false
		for _, sh := range s.shards {
			if s.resident.Load() <= s.opts.MaxBytes {
				return
			}
			if evictOne(sh) {
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// RoomFor reports whether scope has room for bytes more resident bytes — one
// new entry and whatever else the caller already has on its way to the scope
// — descending from live transaction root, without doing harm: every entry
// their Puts would evict has been served to a client or descends from an
// earlier transaction than root. What is refused is speculation whose only
// room is an unread sibling's — integrated prefetching and caching's "do no
// harm" (Cao, Felten, Karlin, Li): never evict A to prefetch B when A is due
// no later than B, with the chain's root as the one notion of "due" the store
// is told. It replays the evictions in their order and changes nothing; under
// the caps, and at the first unread sibling — the common answers of a scope
// with room and of a scope full of speculation — it has looked at no more than
// the head. The shared scope, exempt from the caps, always has room.
func (s *Store) RoomFor(scope string, bytes int64, root uint64) bool {
	if scope == SharedScope {
		return true
	}
	sh := s.shardOf(scope, "")
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sc := sh.byScope[scope]
	if sc == nil {
		return true
	}
	var needBytes int64
	var needSlots int
	if s.opts.PerScopeBytes > 0 {
		needBytes = sc.bytes + bytes - s.opts.PerScopeBytes
	}
	if s.opts.MaxEntriesPerScope > 0 {
		needSlots = len(sc.entries) + 1 - s.opts.MaxEntriesPerScope
	}
	if needBytes <= 0 && needSlots <= 0 {
		return true
	}
	// The victims are the heap's smallest entries, in order: the root, then
	// the least of what the entries taken so far sit directly above. The
	// frontier is built only for a second victim; the common answers allocate
	// nothing.
	var next *victimWalk
	for at := 0; ; at = heap.Pop(next).(int) {
		v := sc.order[at]
		if !v.payload.used.Load() && v.payload.Root >= root {
			return false
		}
		needBytes, needSlots = needBytes-v.size, needSlots-1
		if needBytes <= 0 && needSlots <= 0 {
			return true
		}
		if next == nil {
			next = &victimWalk{order: sc.order}
		}
		for c := 2*at + 1; c <= 2*at+2 && c < len(sc.order); c++ {
			heap.Push(next, c)
		}
		if len(next.at) == 0 {
			return true // the whole scope goes: a Put never evicts what it stores
		}
	}
}

// victimWalk is RoomFor's frontier: positions in an eviction heap, least
// entry first.
type victimWalk struct {
	order evictHeap
	at    []int
}

func (w *victimWalk) Len() int           { return len(w.at) }
func (w *victimWalk) Less(i, j int) bool { return w.order.Less(w.at[i], w.at[j]) }
func (w *victimWalk) Swap(i, j int)      { w.at[i], w.at[j] = w.at[j], w.at[i] }
func (w *victimWalk) Push(x any)         { w.at = append(w.at, x.(int)) }
func (w *victimWalk) Pop() any {
	x := w.at[len(w.at)-1]
	w.at = w.at[:len(w.at)-1]
	return x
}

// DropScope removes every entry of a scope (user eviction). Returns entries
// and bytes dropped. A user scope lives in one shard; dropping SharedScope
// touches all of them.
func (s *Store) DropScope(scope string) (entries int, bytes int64) {
	targets := []*shard{s.shardOf(scope, "")}
	if scope == SharedScope {
		targets = s.shards
	}
	for _, sh := range targets {
		sh.mu.Lock()
		if sc := sh.byScope[scope]; sc != nil {
			// The whole scope goes, its eviction order with it: only the
			// shard-wide expiry heap, the body table and the accounting need
			// each entry.
			for _, en := range sc.entries {
				heap.Remove(&sh.heap, en.heapIdx)
				if en.body != nil {
					s.bodies.release(en.body)
				}
			}
			entries += len(sc.entries)
			bytes += sc.bytes
			s.resident.Add(-sc.bytes)
			delete(sh.byScope, scope)
		}
		sh.mu.Unlock()
	}
	s.evDropped.Add(int64(entries))
	// The lower tier must not keep a dropped scope's entries alive (user
	// eviction is a privacy boundary); propagate after the shard locks are
	// released — tier drops touch the disk.
	if t := s.opts.Tier; t != nil {
		t.Drop(scope)
	}
	return entries, bytes
}

// SweepExpired pops every expired entry off each shard's expiry heap —
// O(expired · log n), no full scans. Returns entries removed.
func (s *Store) SweepExpired() int {
	now := s.opts.Now()
	removed := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for len(sh.heap) > 0 && !now.Before(sh.heap[0].payload.Expires) {
			en := sh.heap[0]
			s.removeLocked(sh, en)
			removed++
			s.evExpired.Add(1)
			sh.sigStat(en.payload.SigID).Expired++
		}
		sh.mu.Unlock()
	}
	return removed
}

// StartSweeper runs SweepExpired every interval until Close. No-op for
// interval <= 0 or when already running.
func (s *Store) StartSweeper(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if s.sweepStop != nil {
		return
	}
	stop := make(chan struct{})
	s.sweepStop = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.SweepExpired()
			case <-stop:
				return
			}
		}
	}()
}

// Close stops the background sweeper. The store remains usable.
func (s *Store) Close() {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if s.sweepStop != nil {
		close(s.sweepStop)
		s.sweepStop = nil
	}
}

// ResidentBytes reports current charged occupancy: logical bytes, each entry
// charged its whole body even when the body table shares it.
func (s *Store) ResidentBytes() int64 { return s.resident.Load() }

// BodyBytes reports the bytes of the distinct bodies the body table holds.
func (s *Store) BodyBytes() int64 {
	_, n := s.bodies.stats()
	return n
}

// ScopeStats reports one scope's current entry count and bytes.
func (s *Store) ScopeStats(scope string) (entries int, bytes int64) {
	targets := []*shard{s.shardOf(scope, "")}
	if scope == SharedScope {
		targets = s.shards
	}
	for _, sh := range targets {
		sh.mu.Lock()
		if sc := sh.byScope[scope]; sc != nil {
			entries += len(sc.entries)
			bytes += sc.bytes
		}
		sh.mu.Unlock()
	}
	return entries, bytes
}

// Metrics snapshots the store's counters and occupancy, merging the
// per-shard tallies.
func (s *Store) Metrics() Metrics {
	m := Metrics{
		ResidentBytes: s.resident.Load(),
		Evictions: EvictionCounts{
			Expired:      s.evExpired.Load(),
			Budget:       s.evBudget.Load(),
			ScopeBytes:   s.evScopeB.Load(),
			ScopeEntries: s.evScopeN.Load(),
			Replaced:     s.evReplaced.Load(),
			Dropped:      s.evDropped.Load(),
		},
		PerSig: map[string]SigStats{},
	}
	m.Bodies, m.BodyBytes = s.bodies.stats()
	for _, sh := range s.shards {
		sh.mu.Lock()
		m.Hits += sh.hits
		m.Misses += sh.misses
		m.SharedHits += sh.sharedHits
		m.Puts += sh.puts
		for scope, sc := range sh.byScope {
			m.Entries += len(sc.entries)
			if scope == SharedScope {
				m.SharedEntries += len(sc.entries)
				m.SharedBytes += sc.bytes
			}
		}
		for id, st := range sh.sigs {
			agg := m.PerSig[id]
			agg.Puts += st.Puts
			agg.Hits += st.Hits
			agg.Expired += st.Expired
			agg.Evicted += st.Evicted
			agg.EvictedUnused += st.EvictedUnused
			agg.EvictedUnusedBytes += st.EvictedUnusedBytes
			m.PerSig[id] = agg
		}
		sh.mu.Unlock()
	}
	return m
}
