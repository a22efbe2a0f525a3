// Package proxy implements the APPx acceleration proxy (§4.2, §4.5, §5 of
// the paper): a forward HTTP proxy that learns run-time values from live
// traffic, reconstructs dependent requests ahead of time, prefetches their
// responses nearest-first, and serves a prefetched response only
// when the client's request is byte-equivalent to the prefetched one.
package proxy

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/cache"
	"appx/internal/cluster"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/jsonpath"
	"appx/internal/obs"
	"appx/internal/obs/adminv1"
	"appx/internal/persist"
	"appx/internal/proxy/resilience"
	"appx/internal/proxy/sched"
	"appx/internal/sig"
	"appx/internal/stream"
)

// DefaultWorkers is the prefetch pool size when Options.Workers is zero, and
// appx-proxy's -workers default. Sixteen is the knee of a sweep on the
// emulated session replay: a launch's borrowed guesses, each holding a worker
// for one origin round trip, saturate eight workers for the whole replay,
// while each doubling past sixteen buys about 1 % of tail latency for the
// memory of one more set of idle origin connections.
const DefaultWorkers = 16

// Options configures a Proxy.
type Options struct {
	Graph    *sig.Graph
	Config   *config.Config
	Upstream Upstream

	// Workers sizes the prefetch pool (default DefaultWorkers).
	Workers int
	// MaxCacheEntriesPerUser caps one user's cached entries (default
	// 4096).
	MaxCacheEntriesPerUser int
	// DisablePrefetch turns the proxy into a plain forwarder (the "Orig"
	// baseline of §6.2).
	DisablePrefetch bool
	// DisableChaining stops prefetched responses from seeding further
	// prefetches (ablates the Figure 3(c) chain behaviour).
	DisableChaining bool
	// Rand supplies probability draws; defaults to math/rand. Injected for
	// deterministic tests.
	Rand func() float64
	// Now supplies time; defaults to time.Now. Injected for expiry tests.
	Now func() time.Time

	// StreamChunkBytes sizes the pooled chunks that bodies of undeclared
	// length move through (default stream.DefaultChunkBytes, 64 KiB); a
	// declared body up to CaptureMaxBytes takes one segment of its length.
	// Tests set it to cross chunk boundaries with small bodies.
	StreamChunkBytes int
	// CaptureMaxBytes caps how much of a streamed origin body is retained
	// for cache insertion and learning (default 4 MiB). Larger bodies
	// stream through to the client uncached; over-cap prefetches abort.
	CaptureMaxBytes int64
	// MaxBodyBytes bounds client request bodies: 413 beyond it (default
	// 64 MiB; negative disables the bound).
	MaxBodyBytes int64

	// StateDir enables crash-safe persistence: a disk cache tier under
	// <StateDir>/cache plus snapshot/restore of learned soft state in
	// <StateDir>/snapshot.appx. Empty disables persistence.
	StateDir string
	// SnapshotInterval is the periodic-snapshot cadence (0 disables the
	// loop; BeginDrain still writes a final snapshot).
	SnapshotInterval time.Duration
	// PersistFaults optionally injects disk faults into persistence writes
	// (hostile-recovery tests and drills).
	PersistFaults *persist.Faults

	// Cluster configures fleet membership (cluster.Config.Self non-empty
	// turns it on): this instance joins a consistent-hash ring that pins
	// each user's learned state to one owner, relays non-owned requests
	// there, and fills shared-tier misses from ring siblings before origin.
	Cluster cluster.Config
	// DisableHedging turns hedged peer reads off: fills walk peers
	// sequentially (the chaos sweep's control arm).
	DisableHedging bool
}

// userHeader carries an explicit per-user tag from emulated devices; userKey
// prefers it over the client IP (all emulated devices on one machine share
// 127.0.0.1).
const userHeader = "X-Appx-User"

// userKey extracts the per-user state key from a request: the user header,
// else the client IP (§5: "the prototype distinguishes users by IP address").
func userKey(r *http.Request) string {
	if u := r.Header.Get(userHeader); u != "" {
		// NUL bytes are stripped so a header-supplied key can never forge the
		// NUL-prefixed reserved shared scope (or smuggle separator bytes into
		// scope-prefixed internal keys).
		return strings.ReplaceAll(u, "\x00", "")
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

const (
	// maxChainDepth bounds recursive prefetching along dependency chains
	// (Figure 3(c) prefetches chains).
	maxChainDepth = 8
	// maxPendingPerSig bounds one user's instances waiting for an exemplar
	// of one signature.
	maxPendingPerSig = 256
	// maxEntriesPerUser is Options.MaxCacheEntriesPerUser's default.
	maxEntriesPerUser = 4096
	// maxUsers bounds tracked user states; the least recently seen user is
	// evicted when exceeded.
	maxUsers = 10000
	// sweepInterval is the cache's background expiry-sweep period; an
	// expired entry is a miss at lookup whether or not the sweep reached it.
	sweepInterval = 30 * time.Second
)

// The origin path's resilience values (DESIGN.md §16). A replayable
// request gets retryAttempts tries, the retry sent at once, each try bounded
// by attemptTimeout. breakerFailures consecutive failures open a host's
// breaker for breakerOpenTimeout. A prefetch has no client deadline, so
// prefetchTimeout bounds its whole round trip, every try included.
const (
	retryAttempts      = 2
	attemptTimeout     = 15 * time.Second
	breakerFailures    = 5
	breakerOpenTimeout = 10 * time.Second
	prefetchTimeout    = 20 * time.Second
)

// tuning carries the fixed values a test may need out of its way: New uses
// defaultTuning, the constants of the same names, and a test that would
// otherwise wait real seconds, or lose the isolation it exists for, builds
// its proxy with newProxy and a changed copy.
type tuning struct {
	retryAttempts        int
	prefetchFailureLimit int
	prefetchTimeout      time.Duration
}

func defaultTuning() tuning {
	return tuning{
		retryAttempts:        retryAttempts,
		prefetchFailureLimit: prefetchFailureLimit,
		prefetchTimeout:      prefetchTimeout,
	}
}

// Proxy is the acceleration proxy. It implements http.Handler; point mobile
// clients at it as their HTTP proxy.
type Proxy struct {
	opts Options
	// sigs holds one record per graph signature — policy, learn plan, counters,
	// backoff, sample — built once in New; stats is the exported view over it.
	sigs  *sigTable
	stats *Stats
	sched *sched.Scheduler
	// clock reads opts.Now at call time — tests rebind it after New — and is
	// the one clock handed to every subsystem and to each flight's spool.
	clock func() time.Time

	// Observability: one registry is the single exposition point
	// (/appx/v1/metrics); the span recorder attributes each request's wall
	// time to lifecycle stages and a terminal outcome.
	reg   *obs.Registry
	spans *obs.SpanRecorder

	// Origin-path resilience: per-host circuit breakers that every origin
	// attempt reports to (roundTrip). A forwarded request is always tried —
	// the client asked; a prefetch is refused by an open breaker, so a sick
	// host stops consuming workers.
	tun      tuning
	breakers *resilience.Breakers

	// mu guards the user table alone. recent orders it by last touch, most
	// recent first, so eviction and pruning work from the back.
	mu     sync.Mutex
	users  map[string]*user
	recent *list.List // of *user

	// store holds prefetched responses: per-user scopes plus the cross-user
	// shared tier.
	store    *cache.Store
	cacheCfg config.Cache

	// dataUsed accounts prefetch bytes per budget window (C4).
	dataUsed usageWindow

	// Overload-control layer: the admission gate bounds concurrent client
	// requests; ovl also sizes the scheduler queue and its enqueue deadline.
	ovl      config.Overload
	gate     *admitGate
	draining atomic.Bool

	// Crash-safe persistence (persist.go): disk cache tier + state
	// snapshots, active when Options.StateDir is set.
	persist         persistState
	restoreFailures atomic.Int64

	// Cluster mode (cluster.go): membership ring, owner forwarding, and
	// sibling peer fill. Nil when Options.Cluster is not enabled.
	cluster *clusterState

	// skips counts candidates dropped before reaching the scheduler or at
	// dispatch, by reason (policy.go).
	skips prefetchSkips
	// issued counts prefetches accepted by the scheduler, by trigger.
	issued [numTriggers]*obs.Counter
	// borrowed counts prefetches issued from a profile-built exemplar,
	// borrowedUsed their entries served at least once, and borrowRejected
	// those the origin rejected.
	borrowed, borrowedUsed, borrowRejected *obs.Counter

	// keys is the key table (keys.go): per issue key, the prefetch that
	// claims it and the origin fetch in flight for it.
	keys *keyTable

	// Streaming data plane (stream.go): pooled body chunks, resolved caps,
	// and data-plane telemetry.
	chunks      *stream.Pool
	maxBody     int64
	streamStats streamStatCounters
	ttfb        *obs.Histogram
}

// SampleRequest returns a successfully prefetched concrete request for the
// signature, or nil. The verification phase uses it to probe expiration
// times (§4.3).
func (p *Proxy) SampleRequest(sigID string) *httpmsg.Request {
	if st := p.sigs.byID[sigID]; st != nil {
		if r := st.sample.Load(); r != nil {
			return r.Clone()
		}
	}
	return nil
}

// pendingInstance is a successor instance waiting for an exemplar: the plan
// it instantiates and the values extracted for it, nothing of the response
// they came from.
type pendingInstance struct {
	sp    *planSucc
	vals  []string
	depth int
	root  uint64
	trig  trigger
}

// trigger names the transaction that ran the predecessor routine (or, for a
// refresh, the lookup) a prefetch was issued from; it labels
// appx_prefetch_issued_total.
type trigger uint8

const (
	// trigMiss: a live client request forwarded to the origin.
	trigMiss trigger = iota
	// trigHit: a live client request answered from a prefetched entry, or
	// attached to the prefetch still fetching it.
	trigHit
	// trigChain: a prefetched response nobody has asked for yet.
	trigChain

	numTriggers
)

func (t trigger) String() string {
	return [numTriggers]string{"miss", "hit", "chain"}[t]
}

// user holds per-user learning state (§2: "The proxy keeps track of user
// contexts"). The prefetched responses themselves live in the shared
// cache.Store, under this user's scope or the cross-user shared tier.
type user struct {
	key string

	mu        sync.Mutex
	exemplars map[string]*slotExemplar     // sigID → latest live example
	pending   map[string][]pendingInstance // sigID → instances awaiting exemplar
	// prof is what the user's device has shown the proxy, from which a
	// signature with no exemplar may borrow one (borrow.go). It is not
	// persisted: the first requests after a restart rebuild it.
	prof profile

	// roots counts the live transactions of this user that taught — misses and
	// hits. Everything a transaction spawns, down its whole chain, carries that
	// transaction's count as its root: the one notion of which speculation is
	// due sooner that the room check has (reserveRoom).
	roots atomic.Uint64
	// expected sums the expected sizes of this user's speculative prefetches
	// that passed the room check and have not yet committed, so workers
	// checking side by side do not all see the same free room.
	expected atomic.Int64

	// lastSeen and elem (the user's place in Proxy.recent) are guarded by
	// Proxy.mu, not mu.
	lastSeen time.Time
	elem     *list.Element
}

// New builds a proxy.
func New(opts Options) *Proxy { return newProxy(opts, defaultTuning()) }

// newProxy is New with the tuning given.
func newProxy(opts Options, tun tuning) *Proxy {
	if opts.Workers == 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.MaxCacheEntriesPerUser <= 0 {
		opts.MaxCacheEntriesPerUser = maxEntriesPerUser
	}
	if opts.Rand == nil {
		opts.Rand = rand.Float64
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Config == nil {
		opts.Config = config.Default(opts.Graph)
	}
	if opts.StreamChunkBytes == 0 {
		opts.StreamChunkBytes = stream.DefaultChunkBytes
	}
	if opts.CaptureMaxBytes == 0 {
		opts.CaptureMaxBytes = 4 << 20
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	reg := obs.NewRegistry()
	sigs := newSigTable(opts.Graph, opts.Config)
	p := &Proxy{
		opts:   opts,
		tun:    tun,
		reg:    reg,
		sigs:   sigs,
		stats:  newStats(reg, sigs),
		users:  map[string]*user{},
		recent: list.New(),
	}
	p.clock = func() time.Time { return p.opts.Now() }
	p.spans = obs.NewSpanRecorder(reg, 0, p.clock)
	p.chunks = stream.NewPool(opts.StreamChunkBytes)
	p.keys = &keyTable{keys: map[string]keyState{},
		spool: func() *stream.Spool { return stream.NewSpool(p.chunks, opts.CaptureMaxBytes, p.clock) }}
	p.maxBody = opts.MaxBodyBytes
	if p.maxBody < 0 {
		p.maxBody = 0 // explicit opt-out: unlimited request bodies
	}
	p.ttfb = reg.Histogram("appx_ttfb_seconds",
		"Time from request admission to the first response byte on the wire.", nil)
	// The breakers read p.clock, so a test that rebinds Now after New also
	// steers them.
	p.breakers = resilience.NewBreakers(resilience.BreakerOptions{
		FailureThreshold: breakerFailures,
		OpenTimeout:      breakerOpenTimeout,
		Now:              p.clock,
	})
	p.cacheCfg = opts.Config.EffectiveCache()
	// The disk tier must exist before the store so spills and read-through
	// promotion work from the first request.
	p.initPersist()
	var tier cache.Tier
	if p.persist.tier != nil {
		tier = costedTier{p.persist.tier, p.sigs}
	}
	p.store = cache.New(cache.Options{
		MaxBytes:           p.cacheCfg.MaxBytes,
		PerScopeBytes:      p.cacheCfg.PerUserBytes,
		MaxEntriesPerScope: opts.MaxCacheEntriesPerUser,
		Now:                p.clock,
		Tier:               tier,
	})
	p.store.StartSweeper(sweepInterval)
	p.ovl = opts.Config.EffectiveOverload()
	p.gate = newAdmitGate(p.ovl.MaxConcurrentRequests, time.Duration(p.ovl.AdmissionWait))
	p.sched = sched.NewWith(sched.Config{
		Workers:  opts.Workers,
		MaxQueue: p.ovl.MaxQueue,
		Now:      p.clock,
	})
	p.registerBridges(reg)
	p.registerStreamBridges(reg)
	p.registerPersistBridges(reg)
	p.registerSkipBridges(reg)
	// Restore before any request is served; the snapshot loop starts only
	// after the restored state is in place.
	p.restorePersist()
	p.startPersistLoop()
	// Cluster mode comes up last, once the instance can already serve: the
	// first health probes from peers must find a working proxy.
	if opts.Cluster.Enabled() {
		p.initCluster(reg)
	}
	return p
}

// registerBridges pulls subsystem-owned counters and gauges — admission
// gate, scheduler classes, cache tier, breakers — onto the
// registry at scrape time, so /appx/v1/metrics exposes one coherent surface
// without those subsystems importing obs or paying write-path costs.
func (p *Proxy) registerBridges(reg *obs.Registry) {
	reg.CounterFunc("appx_admission_admitted_total", "Client requests admitted past the gate.",
		func() int64 { a, _ := p.gate.counts(); return a })
	reg.CounterFunc("appx_admission_shed_total", "Client requests shed by the admission gate.",
		func() int64 { _, s := p.gate.counts(); return s })
	reg.GaugeFunc("appx_prefetch_queue_depth", "Queued prefetch tasks.",
		func() float64 { return float64(p.sched.QueueLen()) })
	reg.GaugeFunc("appx_users", "Tracked per-user learning states.",
		func() float64 { return float64(p.UserCount()) })
	reg.GaugeFunc("appx_cache_resident_bytes", "Logical bytes resident in the prefetch store: every entry counts its whole body.",
		func() float64 { return float64(p.store.ResidentBytes()) })
	reg.GaugeFunc("appx_cache_body_bytes", "Bytes of the distinct bodies the prefetch store shares across entries, each counted once.",
		func() float64 { return float64(p.store.BodyBytes()) })
	reg.GaugeFunc("appx_breakers_open", "Origin hosts whose circuit breaker is not closed.",
		func() float64 {
			n := 0
			for _, b := range p.breakers.Snapshot() {
				if b.State != resilience.Closed {
					n++
				}
			}
			return float64(n)
		})
	for _, c := range []sched.Class{sched.ClassShallow, sched.ClassDeep} {
		c := c
		reg.CounterFunc(`appx_sched_submitted_total{class="`+c.String()+`"}`,
			"Prefetch tasks accepted into the queue by class.",
			func() int64 { return p.sched.Metrics().ByClass(c).Submitted })
		reg.CounterFunc(`appx_sched_ran_total{class="`+c.String()+`"}`,
			"Prefetch tasks dispatched to a worker by class.",
			func() int64 { return p.sched.Metrics().ByClass(c).Ran })
		reg.CounterFloatFunc(`appx_prefetch_queue_wait_seconds_total{class="`+c.String()+`"}`,
			"Time dispatched prefetch tasks waited in the queue, summed by class.",
			func() float64 { return time.Duration(p.sched.Metrics().ByClass(c).WaitNanos).Seconds() })
	}
	reg.CounterFunc("appx_prefetch_promoted_total", "Queued prefetches moved up because demand reached them.",
		func() int64 { return p.sched.Metrics().Promoted })
	reg.CounterFunc("appx_prefetch_guesses_held_total", "Borrowed guesses a free worker skipped because guesses already held all workers but one.",
		func() int64 { return p.sched.Metrics().GuessesHeld })
	for t := range p.issued {
		p.issued[t] = reg.Counter(`appx_prefetch_issued_total{trigger="`+trigger(t).String()+`"}`,
			"Prefetches accepted by the scheduler, by what caused them.")
	}
	p.borrowed = reg.Counter("appx_prefetch_borrowed_total",
		"Prefetches issued from an exemplar built from the user's device profile.")
	p.borrowedUsed = reg.Counter("appx_prefetch_borrowed_used_total",
		"Borrowed prefetches whose entry was served at least once.")
	p.borrowRejected = reg.Counter("appx_prefetch_borrowed_rejected_total",
		"Borrowed prefetches the origin rejected; borrowing stops for that user and signature.")
	for r := missReason(0); r < numMissReasons; r++ {
		reg.CounterFunc(`appx_miss_total{reason="`+r.String()+`"}`,
			"Foreground misses of matched signatures, by why no prefetch answered them.",
			func() (n int64) {
				for _, st := range p.sigs.all {
					n += st.missReasons[r].Load()
				}
				return n
			})
	}
	reg.CounterFunc(`appx_cache_evictions_total{cause="expired"}`, "Cache evictions by cause.",
		func() int64 { return p.store.Evictions().Expired })
	reg.CounterFunc(`appx_cache_evictions_total{cause="budget"}`, "Cache evictions by cause.",
		func() int64 { return p.store.Evictions().Budget })
}

// Breakers exposes the per-host circuit breaker set (operational tooling
// and tests).
func (p *Proxy) Breakers() *resilience.Breakers { return p.breakers }

// Stats exposes the proxy's counters.
func (p *Proxy) Stats() *Stats { return p.stats }

// Registry exposes the proxy's metrics registry (the /appx/v1/metrics
// source; tests and embedders may register extra series).
func (p *Proxy) Registry() *obs.Registry { return p.reg }

// RecentSpans returns up to n of the most recently finished request spans,
// newest first.
func (p *Proxy) RecentSpans(n int) []obs.SpanSnapshot { return p.spans.Recent(n) }

// SpanTotal reports the lifetime count of finished request spans.
func (p *Proxy) SpanTotal() uint64 { return p.spans.Total() }

// Cache exposes the prefetch store (operational tooling and tests).
func (p *Proxy) Cache() *cache.Store { return p.store }

// DataUsedBytes reports prefetch response bytes fetched in the current
// budget window.
func (p *Proxy) DataUsedBytes() int64 { return p.dataUsed.Used(p.opts.Now()) }

// Drain waits for all queued prefetches to finish (testing/verification).
func (p *Proxy) Drain() { p.sched.Drain() }

// BeginDrain flips the proxy into lifecycle draining: new proxied requests
// are refused with 503 while in-flight ones finish; the status endpoints
// keep serving so orchestrators can watch the drain. Part of graceful
// shutdown — the server stops admitting before it waits for in-flight work.
// With persistence enabled the drain also writes a final snapshot, so a
// graceful restart resumes from the very last learned state rather than
// the last periodic tick.
func (p *Proxy) BeginDrain() {
	if p.draining.CompareAndSwap(false, true) {
		// Cluster I/O dies first: Close cancels the cluster context, which
		// aborts in-flight probes and background peer fills immediately — a
		// drain must not spend its deadline waiting out network timeouts on
		// peers that may themselves be going down.
		if p.cluster != nil {
			p.cluster.c.Close()
		}
		p.SnapshotNow()
	}
}

// Draining reports whether BeginDrain was called.
func (p *Proxy) Draining() bool { return p.draining.Load() }

// AdmissionCounts reports lifetime admitted and shed client requests.
func (p *Proxy) AdmissionCounts() (admitted, shed int64) { return p.gate.counts() }

// SchedMetrics exposes the prefetch scheduler's per-class counters.
func (p *Proxy) SchedMetrics() sched.Metrics { return p.sched.Metrics() }

// Close stops the prefetch workers, the cache sweeper, and (when
// persistence is enabled) the snapshot loop and disk-tier spill worker —
// the tier drains its write-behind backlog before Close returns. Ordering:
// producers of cache writes (the scheduler) stop before the store, and the
// store before the tier it spills into.
func (p *Proxy) Close() {
	// Cluster probing/rebalancing stops first: a rebalance firing into a
	// closing scheduler or store would race the teardown below.
	if p.cluster != nil {
		p.cluster.c.Close()
	}
	p.sched.Close()
	p.store.Close()
	p.stopPersist()
}

func (p *Proxy) user(key string) *user {
	p.mu.Lock()
	u, ok := p.users[key]
	var evicted string
	if ok {
		p.recent.MoveToFront(u.elem)
	} else {
		if len(p.users) >= maxUsers { // the least recently seen user makes room
			evicted = p.forgetLocked(p.recent.Back().Value.(*user))
		}
		u = p.addUserLocked(key)
	}
	u.lastSeen = p.opts.Now()
	p.mu.Unlock()
	if evicted != "" {
		p.store.DropScope(evicted)
	}
	return u
}

// addUserLocked starts tracking key as the most recently seen user (p.mu held).
func (p *Proxy) addUserLocked(key string) *user {
	u := &user{key: key, exemplars: map[string]*slotExemplar{}, pending: map[string][]pendingInstance{}}
	u.elem = p.recent.PushFront(u)
	p.users[key] = u
	return u
}

// forgetLocked removes u from the user table (p.mu held) and returns its key.
func (p *Proxy) forgetLocked(u *user) string {
	p.recent.Remove(u.elem)
	delete(p.users, u.key)
	return u.key
}

// dropUsers forgets the tracked users pick selects, least recently seen
// first, and returns how many; with stopAtKeep the walk ends at the first user
// pick keeps (idleness only falls with recency). Cache scopes are dropped
// after p.mu is released: with a state directory DropScope ends in a directory
// walk and removal per user, and every foreground request passes p.user().
func (p *Proxy) dropUsers(stopAtKeep bool, pick func(*user) bool) int {
	var victims []string
	p.mu.Lock()
	for e := p.recent.Back(); e != nil; {
		u, next := e.Value.(*user), e.Prev()
		if pick(u) {
			victims = append(victims, p.forgetLocked(u))
		} else if stopAtKeep {
			break
		}
		e = next
	}
	p.mu.Unlock()
	for _, k := range victims {
		p.store.DropScope(k)
	}
	return len(victims)
}

// PruneUsers drops user states idle for longer than maxIdle, with their
// cached responses, and returns how many were removed. Long-running
// deployments call this periodically.
func (p *Proxy) PruneUsers(maxIdle time.Duration) int {
	cutoff := p.opts.Now().Add(-maxIdle)
	return p.dropUsers(true, func(u *user) bool { return u.lastSeen.Before(cutoff) })
}

// UserCount reports the number of tracked user states.
func (p *Proxy) UserCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.users)
}

// serveStatus answers direct (non-proxied) requests with the versioned
// admin API (/appx/v1/*) — the operational surface of the proxy process.
func (p *Proxy) serveStatus(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/", "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Prefetchable serves from the graph's cached adjacency index — a
		// map read, not a Deps rescan, so health probes stay O(1).
		fmt.Fprintf(w, "appx proxy: %d signatures, %d prefetchable\n",
			len(p.opts.Graph.Sigs), len(p.opts.Graph.Prefetchable()))
	case adminv1.PathStats:
		writeJSON(w, p.statsV1())
	case adminv1.PathHealth:
		writeJSON(w, p.healthV1())
	case adminv1.PathSpans:
		n := 64
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		writeJSON(w, p.spansV1(n))
	case adminv1.PathMetrics:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		p.reg.WritePrometheus(w)
	case adminv1.PathClusterEntry:
		p.serveClusterEntry(w, r)
	default:
		http.Error(w, "appx proxy: unknown endpoint (this is a forward proxy; configure it as such)", http.StatusNotFound)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// statsV1 assembles the typed /appx/v1/stats body.
func (p *Proxy) statsV1() adminv1.StatsResponse {
	snap := p.stats.Snapshot()
	mt := p.opts.Graph.MatchTelemetry()
	return adminv1.StatsResponse{
		MatchIndex: adminv1.MatchIndex{
			Lookups:        mt.Lookups,
			ExactHits:      mt.ExactHits,
			TrieCandidates: mt.TrieCandidates,
			RegexEvals:     mt.RegexEvals,
			RegexMatches:   mt.RegexMatches,
		},
		Hits:                 snap.Hits,
		SharedHits:           snap.SharedHits,
		Misses:               snap.Misses,
		Prefetches:           snap.Prefetches,
		HitRatio:             snap.HitRatio(),
		SharedHitRatio:       snap.SharedHitRatio(),
		DataUsage:            snap.NormalizedDataUsage(),
		UsedPrefetchRatio:    snap.UsedPrefetchRatio(),
		SavedLatencyMs:       snap.SavedLatency.Milliseconds(),
		Users:                p.UserCount(),
		PrefetchQueue:        p.sched.QueueLen(),
		DataUsedBytes:        p.DataUsedBytes(),
		CacheResidentBytes:   p.store.ResidentBytes(),
		Retries:              snap.Retries,
		PrefetchErrors:       snap.PrefetchErrors,
		SuppressedPrefetches: snap.PrefetchSuppressed,
		Overload:             p.overloadV1(),
		Sched:                p.schedV1(),
		Requests:             p.requestsV1(),
		Cache:                p.cacheV1(),
		Persist:              p.persistV1(),
		Cluster:              p.clusterV1(),
		Policy:               p.policyV1(),
		MissReasons:          p.missReasonsV1(),
		Borrowed: adminv1.Borrowed{
			Issued:   p.borrowed.Value(),
			Used:     p.borrowedUsed.Value(),
			Rejected: p.borrowRejected.Value(),
		},
		Revalidate: p.revalidateV1(),
	}
}

// missReasonsV1 assembles the miss-reason block of /appx/v1/stats: the
// totals, and the signatures that missed at all.
func (p *Proxy) missReasonsV1() adminv1.MissReasons {
	out := adminv1.MissReasons{Signatures: map[string]adminv1.MissCounts{}}
	for _, st := range p.sigs.all {
		c := adminv1.MissCounts{
			Unpredicted: st.missReasons[missUnpredicted].Load(),
			NoExemplar:  st.missReasons[missNoExemplar].Load(),
			Queued:      st.missReasons[missQueued].Load(),
			Other:       st.missReasons[missOther].Load(),
		}
		if c == (adminv1.MissCounts{}) {
			continue
		}
		out.Signatures[st.sig.ID] = c
		out.Unpredicted += c.Unpredicted
		out.NoExemplar += c.NoExemplar
		out.Queued += c.Queued
		out.Other += c.Other
	}
	return out
}

// healthV1 assembles the typed /appx/v1/health body: the resilience layer's
// view of the origin fleet — per-host breaker states, suspended prefetch
// signatures, retry and suppression counters. "degraded" means some work is
// currently being shed.
func (p *Proxy) healthV1() adminv1.HealthResponse {
	now := p.opts.Now()
	degraded := false

	breakers := map[string]adminv1.Breaker{}
	for host, b := range p.breakers.Snapshot() {
		breakers[host] = adminv1.Breaker{
			State:               b.State.String(),
			ConsecutiveFailures: b.ConsecutiveFailures,
			OpenForMs:           b.OpenFor.Milliseconds(),
		}
		if b.State != resilience.Closed {
			degraded = true
		}
	}

	suspended := map[string]adminv1.SuspendedSignature{}
	for _, st := range p.sigs.all {
		if failures, until := st.backoff(); now.Before(until) {
			suspended[st.sig.ID] = adminv1.SuspendedSignature{
				ConsecutiveFailures: failures,
				ResumeInMs:          until.Sub(now).Milliseconds(),
			}
			degraded = true
		}
	}

	// A draining proxy is not "ok" even when every origin is.
	if p.draining.Load() {
		degraded = true
	}
	status := "ok"
	if degraded {
		status = "degraded"
	}
	snap := p.stats.Snapshot()
	return adminv1.HealthResponse{
		Status:               status,
		Breakers:             breakers,
		SuspendedSignatures:  suspended,
		Retries:              snap.Retries,
		PrefetchErrors:       snap.PrefetchErrors,
		SuppressedPrefetches: snap.PrefetchSuppressed,
		PrefetchQueue:        p.sched.QueueLen(),
		DataUsedBytes:        p.DataUsedBytes(),
		Overload:             p.overloadV1(),
		Sched:                p.schedV1(),
		Cache:                p.cacheV1(),
	}
}

// cacheV1 assembles the typed prefetch-store block of /appx/v1/stats and
// /appx/v1/health.
func (p *Proxy) cacheV1() adminv1.Cache {
	cm := p.store.Metrics()
	sigs := map[string]adminv1.CacheSignature{}
	for _, st := range p.sigs.all {
		c := &st.cache
		row := adminv1.CacheSignature{
			Stored:             c.Puts.Load(),
			Hits:               c.Hits.Load(),
			Expired:            c.Expired.Load(),
			Evicted:            c.Evicted.Load(),
			EvictedUnused:      c.EvictedUnused.Load(),
			EvictedUnusedBytes: c.EvictedUnusedBytes.Load(),
		}
		if row != (adminv1.CacheSignature{}) {
			sigs[st.sig.ID] = row
		}
	}
	return adminv1.Cache{
		ResidentBytes:  cm.ResidentBytes,
		BodyBytes:      cm.BodyBytes,
		SharedBodies:   cm.Bodies,
		Entries:        cm.Entries,
		Hits:           cm.Hits,
		Misses:         cm.Misses,
		SharedHits:     cm.SharedHits,
		SharedHitRatio: cm.SharedHitRatio(),
		SharedEntries:  cm.SharedEntries,
		SharedBytes:    cm.SharedBytes,
		Evictions: adminv1.CacheEvictions{
			Expired:     cm.Evictions.Expired,
			Budget:      cm.Evictions.Budget,
			UserBytes:   cm.Evictions.ScopeBytes,
			UserEntries: cm.Evictions.ScopeEntries,
			Replaced:    cm.Evictions.Replaced,
			UserDropped: cm.Evictions.Dropped,
		},
		Signatures: sigs,
	}
}

// spansV1 assembles the typed /appx/v1/spans body from the recorder's ring.
func (p *Proxy) spansV1(n int) adminv1.SpansResponse {
	recent := p.spans.Recent(n)
	out := adminv1.SpansResponse{Total: p.spans.Total(), Spans: make([]adminv1.Span, 0, len(recent))}
	for _, s := range recent {
		sp := adminv1.Span{
			ID:      s.ID,
			Start:   s.Start,
			WallMs:  float64(s.Wall) / float64(time.Millisecond),
			Outcome: s.Outcome.String(),
			SigID:   s.SigID,
			User:    s.User,
		}
		for st, d := range s.Stages {
			if d > 0 {
				if sp.StageMs == nil {
					sp.StageMs = map[string]float64{}
				}
				sp.StageMs[obs.Stage(st).String()] = float64(d) / float64(time.Millisecond)
			}
		}
		out.Spans = append(out.Spans, sp)
	}
	return out
}

// overloadV1 is the admission block shared by stats and health.
func (p *Proxy) overloadV1() adminv1.Overload {
	mode := "normal"
	if p.draining.Load() {
		mode = "draining"
	}
	admitted, shedded := p.gate.counts()
	lat := p.spans.WindowQuantiles(obs.OutcomeShed, 0.50, 0.95, 0.99)
	return adminv1.Overload{
		Mode:          mode,
		Admitted:      admitted,
		AdmissionShed: shedded,
		ClientP50Ms:   lat[0].Milliseconds(),
		ClientP95Ms:   lat[1].Milliseconds(),
		ClientP99Ms:   lat[2].Milliseconds(),
	}
}

// schedV1 is the per-class scheduler block shared by stats and health.
func (p *Proxy) schedV1() adminv1.Sched {
	m := p.sched.Metrics()
	classBlock := func(c sched.ClassMetrics) adminv1.SchedClass {
		return adminv1.SchedClass{
			Submitted:   c.Submitted,
			Ran:         c.Ran,
			DroppedFull: c.DroppedFull,
			// The admin surface reports sheds by cause, refused or shed later.
			DroppedClosed:  c.DroppedClosed + c.RejectedClosed,
			DroppedExpired: c.DroppedExpired + c.RejectedExpired,
			MeanWaitMs:     float64(c.MeanWait()) / float64(time.Millisecond),
		}
	}
	return adminv1.Sched{
		Queue:       p.sched.QueueLen(),
		Capacity:    p.sched.Cap(),
		Panics:      m.Panics,
		Promoted:    m.Promoted,
		GuessesHeld: m.GuessesHeld,
		Issued: adminv1.SchedIssued{
			Miss:  p.issued[trigMiss].Value(),
			Hit:   p.issued[trigHit].Value(),
			Chain: p.issued[trigChain].Value(),
		},
		Shallow: classBlock(m.Shallow),
		Deep:    classBlock(m.Deep),
	}
}

// requestsV1 is the span-derived request-lifecycle block of /appx/v1/stats.
func (p *Proxy) requestsV1() adminv1.Requests {
	toMs := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := adminv1.Requests{
		Total:      p.spans.Total(),
		Outcomes:   map[string]adminv1.OutcomeStats{},
		StageP95Ms: map[string]float64{},
	}
	for o := obs.Outcome(0); o < obs.NumOutcomes; o++ {
		n := p.spans.OutcomeCount(o)
		if n == 0 {
			continue
		}
		out.Outcomes[o.String()] = adminv1.OutcomeStats{
			Count: n,
			P50Ms: toMs(p.spans.WallQuantile(o, 0.50)),
			P90Ms: toMs(p.spans.WallQuantile(o, 0.90)),
			P95Ms: toMs(p.spans.WallQuantile(o, 0.95)),
			P99Ms: toMs(p.spans.WallQuantile(o, 0.99)),
		}
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if h := p.spans.StageHistogram(st); h != nil && h.Count() > 0 {
			out.StageP95Ms[st.String()] = toMs(h.Quantile(0.95))
		}
	}
	return out
}

// lookup probes the user's cache scope, then the cross-user shared tier,
// for a fresh entry; shared reports which tier answered. Expired entries
// are dropped by the store at lookup (invariant: no response older than its
// expiration time is ever served); the next live predecessor re-learns them.
func (p *Proxy) lookup(u *user, key string) (entry *cache.Entry, shared bool) {
	if p.opts.DisablePrefetch {
		return nil, false
	}
	if e, fresh := p.store.Get(u.key, key); fresh {
		return e, false
	}
	if !p.cacheCfg.DisableSharedTier {
		if e, fresh := p.store.Get(cache.SharedScope, key); fresh {
			return e, true
		}
	}
	return nil, false
}

// perUserShareDeny lists header-name fragments that conservatively mark a
// request as carrying per-user state (credentials, sessions, accounts).
// Matching requests never enter the shared tier — not because serving them
// would be unsafe (exact-match still holds), but because a credentialed
// response is per-user data that must not outlive its user's eviction, and
// a shared slot for it could never serve anyone else anyway.
var perUserShareDeny = []string{"cookie", "auth", "token", "session", "secret", "credential", "account"}

// sharedEligible decides whether a reconstructed request may cache once
// for all users: the signature's patterns must be free of per-user runtime
// wildcards, and the materialized request (which carries the exemplar's
// extra live headers) must not name a header of perUserShareDeny.
func (p *Proxy) sharedEligible(s *sig.Signature, req *httpmsg.Request) bool {
	if p.cacheCfg.DisableSharedTier || !s.UserAgnostic() {
		return false
	}
	for _, h := range req.Header {
		name := strings.ToLower(h.Key)
		for _, deny := range perUserShareDeny {
			if strings.Contains(name, deny) {
				return false
			}
		}
	}
	return true
}

// learn is learnFrom for a transaction that starts a chain of its own — one a
// client just made or was just answered with: it takes the user's next root.
func (p *Proxy) learn(u *user, st *sigState, req *httpmsg.Request, resp *httpmsg.Response, depth int, live bool) {
	p.learnFrom(u, st, req, resp, depth, u.roots.Add(1), live)
}

// learnFrom runs the Figure-6 flowchart for one completed transaction:
// successor targets update the exemplar and release pending instances;
// predecessor targets spawn successor instances at depth, descending from the
// live transaction root. live marks a transaction the client's own request
// fetched (a miss); a transaction that is not live but at depth 0 is one a
// client was answered from the cache with (a hit, or an attach to the
// prefetch), anything deeper a link of a speculated chain.
func (p *Proxy) learnFrom(u *user, st *sigState, req *httpmsg.Request, resp *httpmsg.Response, depth int, root uint64, live bool) {
	s := st.sig
	trig := trigChain
	if live {
		trig = trigMiss
	} else if depth == 0 {
		trig = trigHit
	}
	// Successor routine (learning target is a successor): adapt to the most
	// recent condition — only from live client traffic, never from our own
	// synthetic prefetch requests.
	if live && st.successor {
		if ex := st.learnExemplar(req); ex != nil {
			u.mu.Lock()
			u.exemplars[s.ID] = ex
			released := u.pending[s.ID]
			delete(u.pending, s.ID)
			u.mu.Unlock()
			for _, pi := range released {
				p.instantiate(u, pi.sp, pi.vals, pi.depth, pi.root, pi.trig)
			}
		}
	}

	// Predecessor routine: read the values the plan's edges name — nothing
	// else of the body — and build successor instances. A signature nothing
	// depends on has no plan, and its body is never looked at.
	lp := st.plan
	if lp == nil || resp.Status != http.StatusOK || !resp.BodyComplete() {
		return
	}
	scan, err := jsonpath.Scan(resp.Body, lp.paths)
	if err != nil {
		return
	}
	// Fan out in dependency-graph order to every successor that is switched
	// on and whose condition holds, up to the chain-depth ceiling. Whether an
	// instance may run is decided at issue time (mayIssue), because it can
	// park awaiting an exemplar for arbitrarily long between fan-out and
	// issue.
	for i := range lp.succs {
		ps := &lp.succs[i]
		if cpol := ps.st.pol; (cpol != nil && !cpol.Prefetch) || !ps.holds(scan) {
			continue
		}
		if depth > maxChainDepth {
			p.countSkip(skipDepth)
			continue
		}
		insts := depValues(scan, ps.Reads)
		if len(insts) == 0 {
			p.countSkip(skipNoDepValues)
			continue
		}
		for _, vals := range insts {
			p.instantiate(u, ps, vals, depth, root, trig)
		}
	}
}

// instantiate materializes one successor instance, parking it when run-time
// values are still missing, and schedules the prefetch when ready.
func (p *Proxy) instantiate(u *user, sp *planSucc, vals []string, depth int, root uint64, trig trigger) {
	s := sp.Sig
	u.mu.Lock()
	ex := u.exemplars[s.ID]
	// The client's HTTP stack contributes run-time headers no static pattern
	// can predict, and the exact-match guarantee (R2) requires reproducing
	// them: a live example of the signature supplies them. Before the user
	// has sent one, the user's profile may build the exemplar from what the
	// device sent on other signatures (borrow.go). That guess is issued one
	// link further out, so it never queues ahead of what the client is
	// fetching now; otherwise the instance waits for a live example.
	borrowed := false
	if ex == nil {
		ex = u.prof.exemplarFor(sp, vals)
		borrowed = ex != nil
	}
	if ex == nil {
		parked := len(u.pending[s.ID]) < maxPendingPerSig
		if parked {
			u.pending[s.ID] = append(u.pending[s.ID], pendingInstance{sp: sp, vals: vals, depth: depth, root: root, trig: trig})
		}
		u.mu.Unlock()
		if !parked {
			p.countSkip(skipPendingFull)
		}
		return
	}
	u.mu.Unlock()
	req, ok := materialize(sp, vals, ex)
	if !ok {
		// The exemplar could not resolve every run-time value (stale wilds,
		// deps on other predecessors): the candidate silently vanishing here
		// would pollute policy precision numbers, so count it.
		p.countSkip(skipNoExemplar)
		return
	}
	if borrowed {
		depth++
	}
	p.maybePrefetch(u, sp.st, req, depth, root, trig, borrowed)
}

// prefetch is one speculative fetch from issue to commit: the reconstructed
// request, the cache slot (scope, key, expiry) it fills and the issue key
// (ikey) it claims, which also names its flight. It is its own scheduler task
// and sched.Job, so issuing an instance allocates this one value; the task
// carries its chain Depth (which a Promote may lower while it waits) and
// whether the request was built from the user's profile (Guess); root is the
// live transaction the chain descends from. req is immutable once issued: the
// commit shares it with the sample table and the cache entry, whose readers
// clone.
type prefetch struct {
	p      *Proxy
	task   sched.Task
	u      *user
	st     *sigState
	req    *httpmsg.Request
	scope  string
	key    string
	ikey   string
	expiry time.Duration
	root   uint64
}

// Run implements sched.Job.
func (pf *prefetch) Run() { pf.p.runPrefetch(pf) }

// Abandon implements sched.Job for a task shed after it was accepted
// (deadline expiry at dispatch, or Close): it gives the claim back so a
// later, fresher instance can re-issue the fetch.
func (pf *prefetch) Abandon() { pf.release() }

// OnPanic implements sched.Job. A panicking prefetch counts as a prefetch
// failure: it releases its claim and feeds the signature's backoff, so a
// reconstruction that reliably panics suspends itself like one that
// reliably errors.
func (pf *prefetch) OnPanic(any) {
	pf.release()
	pf.p.failPrefetch(pf.st)
}

// release gives the prefetch's claim back: after its Put, or on giving up.
func (pf *prefetch) release() { pf.p.keys.release(pf.ikey, pf) }

// failPrefetch counts one failed prefetch of the signature — a transport
// error, a body that died mid-stream, a panic — and feeds its backoff.
func (p *Proxy) failPrefetch(st *sigState) {
	st.prefetchErrors.Add(1)
	st.fail(p.opts.Now(), p.tun.prefetchFailureLimit)
}

// overDataBudget reports whether the current window's prefetch bytes have
// used up the configured data budget (C4).
func (p *Proxy) overDataBudget() bool {
	budget := p.opts.Config.DataBudgetBytes
	return budget > 0 && p.dataUsed.Used(p.opts.Now()) >= budget
}

// mayIssue decides whether one concrete prefetch may be scheduled right
// now: the probability draw (§4.4), the data budget (C4), and the
// resilience gates — a suspended signature (consecutive failures) or a host
// whose breaker is not admitting traffic stops producing prefetch work
// here, before it occupies queue slots, workers, or data budget. Only the
// resilience gates count as suppression.
func (p *Proxy) mayIssue(userKey string, st *sigState, host string) bool {
	prob := p.opts.Config.EffectiveProbability(st.pol) * p.opts.Config.UserScale(userKey)
	if prob <= 0 || (prob < 1 && p.opts.Rand() >= prob) {
		return false
	}
	if p.overDataBudget() {
		return false
	}
	if _, until := st.backoff(); p.opts.Now().Before(until) || !p.breakers.Ready(host) {
		st.prefetchSuppressed.Add(1)
		return false
	}
	return true
}

// maybePrefetch applies the issue gates and dedup, then schedules the
// prefetch at its chain depth, under its class's queue share and enqueue
// deadline. borrowed marks a request built from the user's profile.
func (p *Proxy) maybePrefetch(u *user, st *sigState, req *httpmsg.Request, depth int, root uint64, trig trigger, borrowed bool) {
	if !p.mayIssue(u.key, st, req.Host) {
		return
	}
	// Shared-eligible requests prefetch into the cross-user tier, where the
	// claim singleflights the fetch across every user wanting this key.
	scope, key, expiry := u.key, req.CanonicalKey(), p.opts.Config.Expiration(st.pol)
	if p.sharedEligible(st.sig, req) {
		scope = cache.SharedScope
	}
	if _, fresh := p.store.Peek(scope, key); fresh {
		return
	}
	// The class is what sheds first when the queue fills: chain tails are the
	// most speculative work the proxy does.
	class := sched.ClassDeep
	if depth == 0 {
		class = sched.ClassShallow
	}
	pf := &prefetch{p: p, u: u, st: st, req: req, scope: scope, key: key, ikey: issueKey(scope, key), expiry: expiry, root: root}
	pf.task = sched.Task{SigID: st.sig.ID, Class: class, Depth: depth, Guess: borrowed, Job: pf,
		Deadline: p.opts.Now().Add(time.Duration(p.ovl.QueueDeadline))}
	if ok, waiting := p.keys.claim(pf.ikey, pf, true); !ok {
		// Already on its way. If its prefetch still waits in the queue
		// further from a client than this instance is, the demand that
		// re-derived it moves it up instead of being dropped as a duplicate.
		if waiting != nil {
			p.sched.Promote(&waiting.task, depth)
		}
		return
	}
	// A rejected Submit leaves the task, and so the claim, with the caller.
	if !p.sched.Submit(&pf.task) {
		pf.release()
		return
	}
	p.issued[trig].Inc()
	if borrowed {
		p.borrowed.Inc()
	}
}

// runPrefetch executes one prefetch: obtains the response — from a foreground
// flight already fetching the key, from a ring sibling, or from a flight this
// worker opens — commits the capture under the claim the task holds, and
// feeds the transaction back into learning so dependency chains prefetch
// end-to-end (Figure 3(c)). Every shortfall gives the claim back, so the
// signature's failure backoff — not a stale claim — governs when
// reconstruction is retried.
func (p *Proxy) runPrefetch(pf *prefetch) {
	// A foreground fetch of the key is under way: adopt it and cache its
	// capture. A client asked for the key and the fetch costs no origin
	// bytes, so neither the data budget nor the room check applies.
	if fl, rd := p.keys.dispatch(pf.ikey, pf); fl != nil {
		p.ridePrefetch(pf, fl, rd, false)
		return
	}
	// A foreground miss on this key committed its own capture under the claim
	// while the task waited (runFlight): the entry is there, and this is a
	// zero-byte prefetch like an adopted flight's.
	if _, fresh := p.store.Peek(pf.scope, pf.key); fresh {
		pf.zeroByte()
		return
	}
	// Budget re-checked at execution time: instances queued before the
	// budget ran out must not blow past it (C4).
	if p.overDataBudget() {
		pf.release()
		p.countSkip(skipDataBudget)
		return
	}
	// Room is re-checked here too, where the scope is as full as it will be
	// when the response lands, and before any origin byte moves.
	expect, ok := p.reserveRoom(pf)
	if !ok {
		pf.release()
		p.countSkip(skipNoRoom)
		return
	}
	defer pf.u.expected.Add(-expect)
	// Shared-tier prefetches try ring siblings, under the claim this task
	// holds, before the origin; a peer hit is a zero-byte prefetch. The
	// cluster context dies with BeginDrain, and background fills with it.
	if p.cluster != nil && pf.scope == cache.SharedScope {
		ctx, cancel := context.WithTimeout(p.cluster.c.Context(), p.tun.prefetchTimeout)
		e := p.clusterPeerFill(ctx, pf.key, true)
		cancel()
		if e != nil {
			pf.zeroByte()
			return
		}
	}
	// The prefetch is a flight too, which foreground misses attach to — or
	// it adopts the flight a foreground miss opened since dispatch.
	fl, rd, owner := p.keys.open(pf.ikey)
	p.ridePrefetch(pf, fl, rd, owner)
}

// reserveRoom makes room a precondition of speculation. A task still
// speculative when a worker picks it up (depth 1 or more: nothing a client has
// just asked for or been answered with names it, and it is no refresh) is
// refused when its expected bytes — the signature's mean prefetched size,
// revalidated bodies included (meanPrefetchSize) — on
// top of what the user's scope holds and what the user's other admitted tasks
// are about to add would only fit by evicting an entry no client has read from
// the same live transaction or a later one (cache.Store.RoomFor): past the
// cap, a burst buys evictions, not hits. An admitted task's expected bytes
// count against the user until the caller gives expect back, when the task
// returns. Depth-0 tasks, shared-scope tasks and signatures with no size
// sample yet pass without a lock.
func (p *Proxy) reserveRoom(pf *prefetch) (expect int64, ok bool) {
	if pf.task.Depth < 1 || pf.scope == cache.SharedScope || pf.st.prefetches.Load() == 0 {
		return 0, true
	}
	expect = pf.st.meanPrefetchSize()
	if p.store.RoomFor(pf.scope, pf.u.expected.Add(expect), pf.root) {
		return expect, true
	}
	pf.u.expected.Add(-expect)
	return 0, false
}

// ridePrefetch is the rest of a prefetch once the worker has looked up the
// key's flight: fetch through it as its owner, or adopt it through rd (nil
// when its body had slid past the start), then commit and continue the chain.
func (p *Proxy) ridePrefetch(pf *prefetch, fl *flight, rd *stream.Reader, owner bool) {
	var body []byte
	ok := false
	switch {
	case owner:
		body, ok = p.fetchFlight(pf, fl)
	case rd != nil:
		body, ok = p.adoptFlight(pf, fl, rd)
	}
	if !ok {
		pf.release()
		return
	}
	// Commit: the signature works again, the request becomes the
	// verification sample, and the claim ends once the entry is in — commit,
	// Put, release, in that order, so whoever claims the key next finds it.
	pf.st.setBackoff(0, time.Time{})
	pf.st.sample.Store(pf.req)
	resp := &httpmsg.Response{Status: fl.status, Header: fl.header, Body: body}
	p.store.Put(pf.scope, pf.key, pf.st.stamp(&cache.Entry{
		Resp:     resp,
		Expires:  p.opts.Now().Add(pf.expiry),
		Root:     pf.root,
		Borrowed: pf.task.Guess,
	}))
	pf.release()
	// Chain continuation — only from a fetch this worker made itself; an
	// adopted capture is learned from live by the foreground owner. The next
	// link is one further from a client than this one was, unless a client
	// attached to the flight: then this response has been asked for, and its
	// children are what that client asks for next. learnFrom drops, and
	// counts, every candidate beyond maxChainDepth.
	if owner && !p.opts.DisableChaining {
		depth := pf.task.Depth + 1
		if fl.demanded.Load() {
			depth = 0
		}
		p.learnFrom(pf.u, pf.st, pf.req, resp, depth, pf.root, false)
	}
}

// fetchFlight is the prefetch worker's own origin fetch through the flight
// it opened. It returns the complete 200 capture, or ok=false after
// accounting for what went wrong. With a twin held by another user the fetch
// is a revalidation (revalidate.go): a 304 answers it with the twin's body,
// which costs no origin bytes, no data budget and no response-time sample.
func (p *Proxy) fetchFlight(pf *prefetch, fl *flight) (body []byte, ok bool) {
	st := pf.st
	sent := pf.req
	if cpol := st.pol; cpol != nil && len(cpol.AddHeader) > 0 {
		sent = sent.Clone()
		for _, h := range cpol.AddHeader {
			sent.Header = append(sent.Header, httpmsg.Field{Key: h.Key, Value: h.Value})
		}
	}
	etag, twin := p.twin(pf.scope, pf.key, sent)
	if twin != nil {
		sent = conditional(sent, etag)
	}
	// prefetchTimeout bounds the whole round trip — every attempt and the
	// body included — so a stalled origin (netem-style) cannot pin this
	// worker past the deadline.
	start := p.opts.Now()
	resp, err := p.roundTrip(context.Background(), sent, true)
	if err != nil {
		p.failFlight(pf.ikey, fl, err)
		if err == errBreakerOpen {
			// The breaker tripped between queueing and execution; this is
			// suppression, not a fresh origin failure.
			st.prefetchSuppressed.Add(1)
		} else {
			p.failPrefetch(st)
		}
		return nil, false
	}
	notModified := false
	if twin != nil {
		resp, notModified = st.revalidated(twin, resp, true)
	}
	fl.publish(resp)
	// The worker streams the body through the spool inline: attachers read
	// as bytes arrive, and an over-cap body with nobody attached is
	// abandoned mid-stream (consume-or-cancel) instead of read to EOF. A
	// prefetch always captures, so a declared body takes a sized segment.
	p.pump(fl, resp, sent.Method, true)
	p.keys.settle(pf.ikey, fl)
	if notModified {
		// The entry takes the twin's own slice, not a copy of the spool.
		if ok = fl.sp.Complete(); ok {
			body = twin.Body
		}
		fl.sp.Discard()
		st.countPrefetch(0)
		return body, ok
	}
	body, ok = fl.sp.Bytes()
	fl.sp.Discard()
	sz := fl.sp.Size()
	st.observeRespTime(p.opts.Now().Sub(start))
	st.countPrefetch(sz)
	p.dataUsed.Add(p.opts.Now(), sz)
	switch {
	case resp.Status != http.StatusOK && pf.task.Guess:
		// A guess from the user's profile was wrong: that user stops
		// guessing for this signature. The signature itself may work for
		// everyone, so neither its backoff nor the verification phase's
		// reject count hears of it.
		p.refuseBorrow(pf.u, st)
		return nil, false
	case resp.Status != http.StatusOK:
		// The origin rejected our reconstruction; do not cache errors
		// (R3: never alter app behaviour with synthetic failures).
		st.prefetchRejects.Add(1)
		st.fail(p.opts.Now(), p.tun.prefetchFailureLimit)
		return nil, false
	case !ok && fl.sp.Overflowed():
		// Over the capture cap: no complete entity to cache. Not a signature
		// failure — the origin answered fine; the response is just bigger
		// than the proxy caches.
		p.streamStats.bodyOverflows.Add(1)
	case !ok:
		// The body died mid-stream: an origin failure like a failed round
		// trip, just later.
		p.failPrefetch(st)
	}
	return body, ok
}

// adoptFlight is the prefetch worker's path when a foreground fetch already
// owns the key's flight: instead of a second origin round trip, the worker
// holds a reader (pinning the capture against release), drains alongside the
// clients, and returns the finished capture. ok is false on any shortfall —
// error, non-200, over-cap body.
func (p *Proxy) adoptFlight(pf *prefetch, fl *flight, rd *stream.Reader) (body []byte, ok bool) {
	defer rd.Close()
	timeout := time.NewTimer(p.tun.prefetchTimeout)
	defer timeout.Stop()
	select {
	case <-fl.ready:
	case <-timeout.C:
		// The owner never published headers (wedged origin); give up the
		// claim rather than pin a worker on someone else's fetch.
		return nil, false
	}
	// Drain our reader as the body streams: it keeps the pump unblocked (a
	// parked reader at offset 0 would wedge over-cap backpressure) and
	// returns exactly when the writer closes.
	io.Copy(io.Discard, rd)
	body, ok = fl.sp.Bytes()
	if fl.err != nil || fl.status != http.StatusOK || !ok {
		return nil, false
	}
	pf.st.countPrefetch(0) // the foreground fetch paid for it
	return body, true
}

// zeroByte ends a prefetch whose entry another fetch put in the store — a
// foreground miss under its claim, a peer fill: it counts a zero-byte
// prefetch, keeps its request (the entry's key: a request a client sent) as
// the signature's verification sample, and gives the claim back.
func (pf *prefetch) zeroByte() {
	pf.st.countPrefetch(0)
	pf.st.sample.Store(pf.req)
	pf.release()
}
