package proxy

import (
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/cache"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/obs"
	"appx/internal/sig"
)

// sigState is everything the proxy keeps about one graph signature: §5 ranks
// a prefetch by its signature's response time and hit rate, §4.3 disables it
// on that signature's errors and probes expiry with its sample request, and
// the store counts its entries here (stamp). The first block is fixed when
// New builds the table; the rest is synchronised inside the record, so no
// lock is shared between signatures. A nil *sigState stands for an ID the
// graph does not carry (a peer fill or disk-tier entry of another build): it
// reads as the zero record and drops writes.
type sigState struct {
	sig *sig.Signature
	// pol is the configured policy, nil for the defaults; its Prefetch
	// switch, Probability and ExpirationTime are read live through it.
	pol *config.Policy
	// plan is the compiled predecessor routine (learn.go); nil when nothing
	// depends on the signature, whose body is then never looked at.
	plan *learnPlan
	// successor: some dependency feeds the signature, so its live instances
	// are kept as exemplars.
	successor bool
	// slots are the signature's query, header and form fields, which its
	// exemplars record by number (learn.go).
	slots []slot
	// The borrow rule's pieces (borrow.go): the lower-cased header names the
	// signature names, sorted; whether a profile may build its exemplar at
	// all (no optional field, every unknown part a Dep or a device value),
	// and whether one of those is a cookie.
	names   []string
	borrows bool
	cookies bool

	// prefetches / hits / misses count completed prefetch requests, cache
	// hits served to clients, and forwarded client requests; sharedHits is
	// the subset of hits served from the cross-user shared tier.
	prefetches, hits, sharedHits, misses atomic.Int64
	// missReasons splits the forwarded requests of runFlight by why no
	// prefetch answered them.
	missReasons [numMissReasons]atomic.Int64
	// prefetchedBytes counts response body bytes the origin sent to
	// prefetches; servedBytes counts prefetched bytes actually delivered to
	// clients.
	prefetchedBytes, servedBytes atomic.Int64
	// notModified and modified count the origin's answers to fetches sent
	// with another user's ETag (revalidate.go): 304s, whose body the proxy
	// took from that user's entry, and 200s. The revalidated bytes
	// are the bodies the 304s stood for, on prefetches and forwarded misses.
	notModified, modified                             atomic.Int64
	revalidatedPrefetchBytes, revalidatedForwardBytes atomic.Int64
	// prefetchErrors counts transport failures and prefetchRejects non-200
	// origin answers to reconstructed requests (the §4.3 verification phase
	// disables signatures showing either); prefetchSuppressed counts
	// prefetches the resilience layer declined to issue.
	prefetchErrors, prefetchRejects, prefetchSuppressed atomic.Int64
	// usedEntries counts distinct prefetched responses served at least once
	// (the numerator of the paper's "ratio of data actually used").
	usedEntries atomic.Int64
	// cache is what the store counts of the signature's entries: stored,
	// served, expired and evicted.
	cache cache.SigCounts
	// respTime is the running average origin response time in nanoseconds
	// (EWMA, α = 1/4 after the first sample): folded under mu, read without.
	respTime atomic.Int64
	// sample is the latest committed prefetch request, immutable once stored.
	sample atomic.Pointer[httpmsg.Request]

	// mu serialises the two read-modify-write fields: the response-time fold
	// and the backoff (consecutive failures, end of the window they earned).
	mu       sync.Mutex
	observed bool // respTime holds a sample
	failures int
	until    time.Time
}

// observeRespTime folds one origin response time into the running average.
func (st *sigState) observeRespTime(d time.Duration) {
	if st == nil {
		return
	}
	st.mu.Lock()
	if st.observed {
		d = (time.Duration(st.respTime.Load())*3 + d) / 4
	}
	st.observed = true
	st.respTime.Store(int64(d))
	st.mu.Unlock()
}

// avgRespTime is what a miss on this signature costs its client.
func (st *sigState) avgRespTime() time.Duration {
	if st == nil {
		return 0
	}
	return time.Duration(st.respTime.Load())
}

// stamp files an entry the proxy builds or promotes under the signature: its
// ID, the miss cost as the signature's origin time stands now, and the
// counts the store moves for it. A nil record stamps nothing: the entry keeps
// its SigID and no cost, and the store counts it in its totals alone.
func (st *sigState) stamp(e *cache.Entry) *cache.Entry {
	if st != nil {
		e.SigID, e.Cost, e.Counts = st.sig.ID, st.avgRespTime(), &st.cache
	}
	return e
}

// countPrefetch records a completed prefetch and the body bytes the origin
// sent it.
func (st *sigState) countPrefetch(bytes int64) {
	st.prefetches.Add(1)
	st.prefetchedBytes.Add(bytes)
}

// meanPrefetchSize is the mean body size of the signature's completed
// prefetches — origin bytes and revalidated bytes alike, so a 304 does not
// make the signature look smaller than what it stores — 0 with none yet.
func (st *sigState) meanPrefetchSize() int64 {
	n := st.prefetches.Load()
	if n == 0 {
		return 0
	}
	return (st.prefetchedBytes.Load() + st.revalidatedPrefetchBytes.Load()) / n
}

// revalidatedBytes is the body bytes the signature's 304s stood for.
func (st *sigState) revalidatedBytes() int64 {
	return st.revalidatedPrefetchBytes.Load() + st.revalidatedForwardBytes.Load()
}

// backoff returns the failure streak and the end of its suspension window.
func (st *sigState) backoff() (failures int, until time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.failures, st.until
}

// setBackoff replaces the failure streak: a restore reinstates one, a
// committed prefetch clears it.
func (st *sigState) setBackoff(failures int, until time.Time) {
	st.mu.Lock()
	st.failures, st.until = failures, until
	st.mu.Unlock()
}

// A signature whose prefetches keep failing is suspended: from
// prefetchFailureLimit consecutive failures on, for prefetchBackoffBase,
// doubling per further failure up to prefetchBackoffMax.
const (
	prefetchFailureLimit = 3
	prefetchBackoffBase  = time.Second
	prefetchBackoffMax   = 5 * time.Minute
)

// fail notes one more consecutive prefetch failure; at limit the signature
// is suspended, the window doubling per further failure from
// prefetchBackoffBase up to prefetchBackoffMax.
func (st *sigState) fail(now time.Time, limit int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.failures++
	if st.failures < limit {
		return
	}
	d := prefetchBackoffBase
	for i := limit; i < st.failures && d < prefetchBackoffMax; i++ {
		d *= 2
	}
	st.until = now.Add(min(d, prefetchBackoffMax))
}

// sigTable holds one sigState per graph signature. New fills it and nothing
// writes the map or the slice afterwards, so both are read without a lock.
type sigTable struct {
	byID map[string]*sigState
	all  []*sigState // graph order
}

// newSigTable builds the record of every signature in g, resolving its
// policy from cfg and compiling its borrow pieces once. Plans come second:
// their successors point at records.
func newSigTable(g *sig.Graph, cfg *config.Config) *sigTable {
	t := &sigTable{byID: make(map[string]*sigState, len(g.Sigs))}
	for _, s := range g.Sigs {
		st := &sigState{sig: s, pol: cfg.Policy(s.Hash()), successor: len(g.DepsInto(s.ID)) > 0}
		st.compileSlots()
		st.compileShape()
		t.byID[s.ID] = st
		t.all = append(t.all, st)
	}
	for _, st := range t.all {
		st.plan = buildLearnPlan(g, t, st.sig.ID)
	}
	return t
}

// Stats is the proxy's counters: a view over the signature table plus the
// proxy-wide tallies, which live as obs.Counter registry series. Safe for
// concurrent use.
type Stats struct {
	sigs *sigTable

	// forwardedBytes counts response body bytes the origin sent on behalf of
	// live client requests (the baseline data usage).
	forwardedBytes *obs.Counter
	// savedLatencyNs accumulates the estimated latency hidden from clients
	// by cache hits (the hit signature's average origin response time).
	savedLatencyNs *obs.Counter
	// retries counts origin attempts beyond the first, proxy-wide.
	retries *obs.Counter
}

// newStats returns the statistics over sigs, registering the proxy-wide
// tallies and scrape-time sums over the table on reg.
func newStats(reg *obs.Registry, sigs *sigTable) *Stats {
	s := &Stats{
		sigs:           sigs,
		forwardedBytes: reg.Counter("appx_forwarded_bytes_total", "Origin response bytes forwarded to clients."),
		savedLatencyNs: reg.Counter("appx_saved_latency_nanoseconds_total", "Estimated client latency hidden by cache hits."),
		retries:        reg.Counter("appx_origin_retries_total", "Origin attempts beyond the first."),
	}
	sum := func(counter func(*sigState) *atomic.Int64) func() int64 {
		return func() (n int64) {
			for _, st := range sigs.all {
				n += counter(st).Load()
			}
			return n
		}
	}
	reg.CounterFunc("appx_cache_hits_total", "Client requests served from the prefetch store.",
		sum(func(st *sigState) *atomic.Int64 { return &st.hits }))
	reg.CounterFunc("appx_cache_misses_total", "Client requests forwarded to the origin.",
		sum(func(st *sigState) *atomic.Int64 { return &st.misses }))
	reg.CounterFunc("appx_prefetches_total", "Prefetch requests completed.",
		sum(func(st *sigState) *atomic.Int64 { return &st.prefetches }))
	reg.CounterFunc("appx_prefetch_errors_total", "Prefetch transport failures.",
		sum(func(st *sigState) *atomic.Int64 { return &st.prefetchErrors }))
	reg.CounterFunc("appx_prefetch_suppressed_total", "Prefetches declined by resilience or overload gates.",
		sum(func(st *sigState) *atomic.Int64 { return &st.prefetchSuppressed }))
	const revalidateHelp = "Fetches sent with another user's ETag, by the origin's answer: 304 or 200."
	reg.CounterFunc(`appx_revalidate_total{result="not_modified"}`, revalidateHelp,
		sum(func(st *sigState) *atomic.Int64 { return &st.notModified }))
	reg.CounterFunc(`appx_revalidate_total{result="modified"}`, revalidateHelp,
		sum(func(st *sigState) *atomic.Int64 { return &st.modified }))
	prefetched := sum(func(st *sigState) *atomic.Int64 { return &st.revalidatedPrefetchBytes })
	forwarded := sum(func(st *sigState) *atomic.Int64 { return &st.revalidatedForwardBytes })
	reg.CounterFunc("appx_revalidated_bytes_total", "Body bytes 304s let the proxy take from another user's entry instead of the origin.",
		func() int64 { return prefetched() + forwarded() })
	reg.CounterFunc("appx_cache_evicted_unused_total", "Entries a capacity limit evicted before any client was served them.",
		sum(func(st *sigState) *atomic.Int64 { return &st.cache.EvictedUnused }))
	reg.CounterFunc("appx_cache_evicted_unused_bytes_total", "Resident bytes of entries a capacity limit evicted before any client was served them.",
		sum(func(st *sigState) *atomic.Int64 { return &st.cache.EvictedUnusedBytes }))
	return s
}

// Priority computes the §5 scheduling priority: a linear combination of the
// signature's average response time (in seconds) and its hit rate. A
// signature never prefetched before gets a neutral hit rate of 0.5 so new
// opportunities are explored. Nothing in the proxy reads it: the scheduler
// dispatches by depth, then submission order. It stays because the
// benchmark module still calls it.
func (s *Stats) Priority(sigID string) float64 {
	st, hitRate := s.sigs.byID[sigID], 0.5
	if st == nil {
		return hitRate
	}
	if n := st.prefetches.Load(); n > 0 {
		hitRate = float64(st.hits.Load()) / float64(n)
	}
	return st.avgRespTime().Seconds() + hitRate
}

// countRetry records one origin retry attempt.
func (s *Stats) countRetry() { s.retries.Inc() }

// Retries reports the proxy-wide origin retry count.
func (s *Stats) Retries() int { return int(s.retries.Value()) }

// countHit records a client request served from the prefetch cache, and the
// latency it hid: the signature's average origin response time. firstUse
// marks the first time this particular cached entry is served; shared marks
// hits served from the cross-user tier.
func (s *Stats) countHit(st *sigState, bytes int64, firstUse, shared bool) {
	if st == nil {
		return
	}
	st.hits.Add(1)
	if shared {
		st.sharedHits.Add(1)
	}
	st.servedBytes.Add(bytes)
	if firstUse {
		st.usedEntries.Add(1)
	}
	s.savedLatencyNs.Add(int64(st.avgRespTime()))
}

// Snapshot is an immutable view of the aggregate counters. ForwardedBytes and
// PrefetchedBytes count only body bytes the origin sent; the Revalidated
// bytes are the bodies 304s stood for, which the proxy took from another
// user's entry.
type Snapshot struct {
	PerSig map[string]SigSnapshot

	ForwardedBytes           int64
	PrefetchedBytes          int64
	RevalidatedForwardBytes  int64
	RevalidatedPrefetchBytes int64
	NotModified              int
	Modified                 int
	ServedBytes              int64
	Hits                     int
	SharedHits               int
	Misses                   int
	Prefetches               int
	UsedEntries              int
	SavedLatency             time.Duration
	Retries                  int
	PrefetchErrors           int
	PrefetchSuppressed       int
}

// SigSnapshot is one signature's counters.
type SigSnapshot struct {
	RespTime           time.Duration
	Prefetches         int
	Hits               int
	SharedHits         int
	Misses             int
	PrefetchedBytes    int64
	ServedBytes        int64
	PrefetchErrors     int
	PrefetchRejects    int
	PrefetchSuppressed int
	// NotModified and Modified count the origin's 304 and 200 answers to
	// the signature's revalidations; RevalidatedBytes is the bodies the 304s
	// stood for.
	NotModified      int
	Modified         int
	RevalidatedBytes int64
}

// Snapshot captures current counters. PerSig lists the signatures that have
// counted anything.
func (s *Stats) Snapshot() Snapshot {
	out := Snapshot{
		PerSig:         map[string]SigSnapshot{},
		ForwardedBytes: s.forwardedBytes.Value(),
		SavedLatency:   time.Duration(s.savedLatencyNs.Value()),
		Retries:        int(s.retries.Value()),
	}
	for _, st := range s.sigs.all {
		ss := SigSnapshot{
			RespTime:           st.avgRespTime(),
			Prefetches:         int(st.prefetches.Load()),
			Hits:               int(st.hits.Load()),
			SharedHits:         int(st.sharedHits.Load()),
			Misses:             int(st.misses.Load()),
			PrefetchedBytes:    st.prefetchedBytes.Load(),
			ServedBytes:        st.servedBytes.Load(),
			PrefetchErrors:     int(st.prefetchErrors.Load()),
			PrefetchRejects:    int(st.prefetchRejects.Load()),
			PrefetchSuppressed: int(st.prefetchSuppressed.Load()),
			NotModified:        int(st.notModified.Load()),
			Modified:           int(st.modified.Load()),
			RevalidatedBytes:   st.revalidatedBytes(),
		}
		if ss == (SigSnapshot{}) {
			continue
		}
		out.PerSig[st.sig.ID] = ss
		out.UsedEntries += int(st.usedEntries.Load())
		out.PrefetchedBytes += ss.PrefetchedBytes
		out.ServedBytes += ss.ServedBytes
		out.Hits += ss.Hits
		out.SharedHits += ss.SharedHits
		out.Misses += ss.Misses
		out.Prefetches += ss.Prefetches
		out.PrefetchErrors += ss.PrefetchErrors
		out.PrefetchSuppressed += ss.PrefetchSuppressed
		out.NotModified += ss.NotModified
		out.Modified += ss.Modified
		out.RevalidatedForwardBytes += st.revalidatedForwardBytes.Load()
		out.RevalidatedPrefetchBytes += st.revalidatedPrefetchBytes.Load()
	}
	return out
}

// NormalizedDataUsage returns (forwarded+prefetched)/(forwarded+served),
// each fetch counted at its whole body: response-body bytes the proxy fetched
// for users over those clients consumed, which stand in for what an Orig run
// would have fetched; 1.0 when nothing was consumed. A fetch a 304 answered
// counts the body it stood for, on both sides for a forwarded miss, so the
// ratio keeps the paper's per-user meaning (Figure 16: what prefetching
// costs one user's data plan) whatever another user's entry saved the proxy.
// exp's Figure-16 and Figure-17 columns are this value. bench/'s data_usage_x
// differs: its numerator is ForwardedBytes+PrefetchedBytes alone, the bytes
// the origin sent, over the bytes the benchmark's own clients counted on
// receipt.
func (s Snapshot) NormalizedDataUsage() float64 {
	forwarded := s.ForwardedBytes + s.RevalidatedForwardBytes
	if forwarded+s.ServedBytes == 0 {
		return 1
	}
	// Baseline: every byte the client consumed would have been fetched from
	// the origin anyway (forwarded misses + served hits). Overhead: bytes
	// prefetched but never consumed.
	baseline := float64(forwarded + s.ServedBytes)
	total := float64(forwarded + s.PrefetchedBytes + s.RevalidatedPrefetchBytes)
	return total / baseline
}

// HitRatio returns hits/(hits+misses), 0 when idle.
func (s Snapshot) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// SharedHitRatio returns the fraction of cache hits served from the
// cross-user shared tier, 0 when idle.
func (s Snapshot) SharedHitRatio() float64 {
	if s.Hits == 0 {
		return 0
	}
	return float64(s.SharedHits) / float64(s.Hits)
}

// UsedPrefetchRatio returns the fraction of prefetched transactions the app
// actually consumed — distinct cached responses served at least once over
// prefetches issued (the paper reports 1–5 %).
func (s Snapshot) UsedPrefetchRatio() float64 {
	if s.Prefetches == 0 {
		return 0
	}
	return float64(s.UsedEntries) / float64(s.Prefetches)
}
