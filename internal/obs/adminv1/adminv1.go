// Package adminv1 defines the typed response schema of the proxy's
// versioned admin API (/appx/v1/*). The proxy encodes these structs; tools
// (appx-bench's admin mode) and tests decode into them — no side of the
// contract builds map[string]any by hand, so a field rename is a compile
// error instead of a silently-missing JSON key.
//
// Schema evolution rule: fields may be added to a v1 struct (decoders
// ignore unknown keys) but never removed or retyped; incompatible changes
// get a new version prefix.
package adminv1

import "time"

// The versioned endpoint paths, shared by server and clients.
const (
	PathHealth  = "/appx/v1/health"
	PathStats   = "/appx/v1/stats"
	PathSpans   = "/appx/v1/spans"
	PathMetrics = "/appx/v1/metrics" // Prometheus text, not JSON

	// PathClusterEntry is the peer-fill peek endpoint: a ring sibling asks
	// whether this instance's shared cache tier holds a canonical key
	// (?key=...). 200 returns a ClusterEntry, 404 is a miss. Peeks are
	// side-effect-free on the serving instance (no LRU touch, no counters).
	PathClusterEntry = "/appx/v1/cluster/entry"
)

// MatchIndex mirrors the signature match-index telemetry. RegexEvals and
// RegexMatches count pattern evaluations and their matches; the names stay
// because the schema only grows.
type MatchIndex struct {
	Lookups        int64 `json:"lookups"`
	ExactHits      int64 `json:"exactHits"`
	TrieCandidates int64 `json:"trieCandidates"`
	RegexEvals     int64 `json:"regexEvals"`
	RegexMatches   int64 `json:"regexMatches"`
}

// Overload is the admission-gate block shared by stats and health. Mode is
// "normal", or "draining" during graceful shutdown.
type Overload struct {
	Mode          string `json:"mode"`
	Admitted      int64  `json:"admitted"`
	AdmissionShed int64  `json:"admissionShed"`
	ClientP50Ms   int64  `json:"clientP50Ms"`
	ClientP95Ms   int64  `json:"clientP95Ms"`
	ClientP99Ms   int64  `json:"clientP99Ms"`
}

// SchedClass is one admission class's scheduler counters. MeanWaitMs is the
// mean time a task that ran had waited in the queue.
type SchedClass struct {
	Submitted      int64   `json:"submitted"`
	Ran            int64   `json:"ran"`
	DroppedFull    int64   `json:"droppedFull"`
	DroppedClosed  int64   `json:"droppedClosed"`
	DroppedExpired int64   `json:"droppedExpired"`
	MeanWaitMs     float64 `json:"meanWaitMs"`
}

// SchedIssued counts prefetches the scheduler accepted by what caused them:
// a live miss, a live hit (or attach) re-deriving a predecessor's children,
// or a prefetched response continuing its chain.
type SchedIssued struct {
	Miss  int64 `json:"miss"`
	Hit   int64 `json:"hit"`
	Chain int64 `json:"chain"`
	// Refresh is inert, always 0: it counted refresh-on-expire prefetches,
	// a mechanism the proxy no longer has. It stays because v1 only grows.
	Refresh int64 `json:"refresh"`
}

// Sched is the prefetch scheduler block shared by stats and health. Promoted
// counts queued prefetches that moved up because demand reached them;
// GuessesHeld counts borrowed guesses a free worker skipped because the
// guess cap (every worker but one) was full. Foreground is inert, always
// zero: the scheduler has no foreground class. It stays because v1 only
// grows.
type Sched struct {
	Queue       int         `json:"queue"`
	Capacity    int         `json:"capacity"`
	Panics      int64       `json:"panics"`
	Promoted    int64       `json:"promoted"`
	GuessesHeld int64       `json:"guessesHeld"`
	Issued      SchedIssued `json:"issued"`
	Foreground  SchedClass  `json:"foreground"`
	Shallow     SchedClass  `json:"shallow"`
	Deep        SchedClass  `json:"deep"`
}

// CacheEvictions breaks evicted entries down by cause.
type CacheEvictions struct {
	Expired     int64 `json:"expired"`
	Budget      int64 `json:"budget"`
	UserBytes   int64 `json:"userBytes"`
	UserEntries int64 `json:"userEntries"`
	Replaced    int64 `json:"replaced"`
	UserDropped int64 `json:"userDropped"`
}

// CacheSignature is one signature's slice of the prefetch store: entries
// stored, lookups they answered, and how they left. Evicted counts capacity
// evictions (user caps and the global budget); EvictedUnused those no client
// had been served and EvictedUnusedBytes their resident size — prefetch bytes
// the cap threw away before they paid off.
type CacheSignature struct {
	Stored             int64 `json:"stored"`
	Hits               int64 `json:"hits"`
	Expired            int64 `json:"expired"`
	Evicted            int64 `json:"evicted"`
	EvictedUnused      int64 `json:"evictedUnused"`
	EvictedUnusedBytes int64 `json:"evictedUnusedBytes"`
}

// Cache is the prefetch-store block of the stats and health responses.
// ResidentBytes is logical: every entry counts its whole body. BodyBytes and
// SharedBodies are the store's body table: the distinct bodies of 2 KiB or
// more that its entries share, each held once.
type Cache struct {
	ResidentBytes  int64                     `json:"residentBytes"`
	BodyBytes      int64                     `json:"bodyBytes"`
	SharedBodies   int                       `json:"sharedBodies"`
	Entries        int                       `json:"entries"`
	Hits           int64                     `json:"hits"`
	Misses         int64                     `json:"misses"`
	SharedHits     int64                     `json:"sharedHits"`
	SharedHitRatio float64                   `json:"sharedHitRatio"`
	SharedEntries  int                       `json:"sharedEntries"`
	SharedBytes    int64                     `json:"sharedBytes"`
	Evictions      CacheEvictions            `json:"evictions"`
	Signatures     map[string]CacheSignature `json:"signatures,omitempty"`
}

// Breaker is one origin host's circuit-breaker state.
type Breaker struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	OpenForMs           int64  `json:"openForMs"`
}

// SuspendedSignature is one signature inside its prefetch-failure backoff
// window.
type SuspendedSignature struct {
	ConsecutiveFailures int   `json:"consecutiveFailures"`
	ResumeInMs          int64 `json:"resumeInMs"`
}

// OutcomeStats summarizes one terminal outcome's request population.
type OutcomeStats struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P90Ms float64 `json:"p90Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
}

// Requests is the span-derived request-lifecycle block of the stats
// response: per-outcome counts and wall-time quantiles, plus per-stage p95.
type Requests struct {
	Total      uint64                  `json:"total"`
	Outcomes   map[string]OutcomeStats `json:"outcomes"`
	StageP95Ms map[string]float64      `json:"stageP95Ms"`
}

// Persist is the crash-safe-persistence block of the stats response:
// snapshot freshness, the boot-time restore outcome, and disk-tier
// traffic. SnapshotAgeMs is -1 while no snapshot has been written.
type Persist struct {
	Enabled          bool   `json:"enabled"`
	RestoreOutcome   string `json:"restoreOutcome"`
	RestoreSource    string `json:"restoreSource,omitempty"`
	RestoreDetail    string `json:"restoreDetail,omitempty"`
	RestoreFailures  int64  `json:"restoreFailures"`
	Snapshots        int64  `json:"snapshots"`
	SnapshotFailures int64  `json:"snapshotFailures"`
	SnapshotAgeMs    int64  `json:"snapshotAgeMs"`
	DiskEntries      int    `json:"diskEntries"`
	DiskBytes        int64  `json:"diskBytes"`
	DiskHits         int64  `json:"diskHits"`
	DiskLoads        int64  `json:"diskLoads"`
	DiskLoadErrors   int64  `json:"diskLoadErrors"`
	DiskSpilled      int64  `json:"diskSpilled"`
	DiskSpillDropped int64  `json:"diskSpillDropped"`
	DiskSpillErrors  int64  `json:"diskSpillErrors"`
	DiskEvictions    int64  `json:"diskEvictions"`
}

// ClusterPeer is one configured peer's membership view.
type ClusterPeer struct {
	Alive               bool   `json:"alive"`
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
}

// ClusterPeerFill summarizes the sibling-before-origin fill protocol.
type ClusterPeerFill struct {
	Attempts int64 `json:"attempts"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Errors   int64 `json:"errors"`
}

// Cluster is the scale-out block of the stats response. Forwarded counts
// requests this instance relayed to their owner; ReceivedForwards counts
// requests that arrived with the hop header (served locally, never
// re-forwarded). Rebalances and ScopesDropped track incremental topology
// moves: only user scopes whose hash arc changed owner are dropped.
type Cluster struct {
	Enabled          bool                   `json:"enabled"`
	Self             string                 `json:"self"`
	Members          []string               `json:"members"`
	Peers            map[string]ClusterPeer `json:"peers,omitempty"`
	Forwarded        int64                  `json:"forwarded"`
	ForwardFallbacks int64                  `json:"forwardFallbacks"`
	ReceivedForwards int64                  `json:"receivedForwards"`
	PeerFill         ClusterPeerFill        `json:"peerFill"`
	Rebalances       int64                  `json:"rebalances"`
	ScopesDropped    int64                  `json:"scopesDropped"`
	ProbeFailures    int64                  `json:"probeFailures"`
	RingRebuilds     int64                  `json:"ringRebuilds"`
	// ForwardLoops counts relayed responses that arrived already carrying
	// the forwarded marker — evidence the one-hop rule was violated. The
	// chaos oracle asserts this stays zero.
	ForwardLoops int64 `json:"forwardLoops"`
	Hedge        Hedge `json:"hedge"`
}

// Hedge is the hedged-peer-read block inside Cluster.
type Hedge struct {
	Enabled bool `json:"enabled"`
	// Launched counts hedge attempts actually sent.
	Launched int64 `json:"launched"`
	// Wins counts hedges whose response won the race.
	Wins int64 `json:"wins"`
	// Losses counts hedges the primary attempt beat.
	Losses int64 `json:"losses"`
	// Suppressed counts hedges withheld by the rate cap.
	Suppressed int64 `json:"suppressed"`
}

// PolicyEntry is the prefetch-policy block of /appx/v1/stats. Its counters
// mirror appx_prefetch_skipped_total by reason: candidates dropped before
// reaching the scheduler, and (the last two) tasks dropped at dispatch — no
// room in the user's cache scope for more speculation, data budget used up.
type PolicyEntry struct {
	NoExemplarSkips  int64 `json:"noExemplarSkips"`
	NoDepValueSkips  int64 `json:"noDepValueSkips"`
	PendingFullSkips int64 `json:"pendingFullSkips"`
	DepthSkips       int64 `json:"depthSkips"`
	NoRoomSkips      int64 `json:"noRoomSkips"`
	DataBudgetSkips  int64 `json:"dataBudgetSkips"`
}

// MissCounts splits foreground misses of matched signatures by why no
// prefetch answered them (appx_miss_total{reason}): no dependency feeds the
// signature (Unpredicted); the user had no live instance of it and the
// proxy's profile of the user's device could not build one (NoExemplar);
// its prefetch still waited in the queue (Queued); anything else — derived
// and since evicted, expired or refused, or never derived for this value
// (Other).
type MissCounts struct {
	Unpredicted int64 `json:"unpredicted"`
	NoExemplar  int64 `json:"noExemplar"`
	Queued      int64 `json:"queued"`
	Other       int64 `json:"other"`
}

// MissReasons is the miss-reason block of /appx/v1/stats: the totals, and
// per signature those that missed at all.
type MissReasons struct {
	MissCounts
	Signatures map[string]MissCounts `json:"signatures,omitempty"`
}

// RevalidateCounts is one signature's cross-user revalidations, or their
// totals: fetches sent with the ETag of another user's entry that the origin
// answered 304 (NotModified) or 200 (Modified), and Bytes, the body bytes
// the 304s let the proxy take from that entry instead of the origin.
type RevalidateCounts struct {
	NotModified int64 `json:"notModified"`
	Modified    int64 `json:"modified"`
	Bytes       int64 `json:"bytes"`
}

// Revalidate is the revalidation block of /appx/v1/stats: the totals, and
// per signature those that revalidated at all.
type Revalidate struct {
	RevalidateCounts
	Signatures map[string]RevalidateCounts `json:"signatures,omitempty"`
}

// Borrowed is the first-visit block of /appx/v1/stats: prefetches issued
// from an exemplar built from what the user's device sent on other
// signatures, how many of their entries a client was served, and how many
// the origin rejected.
type Borrowed struct {
	Issued   int64 `json:"issued"`
	Used     int64 `json:"used"`
	Rejected int64 `json:"rejected"`
}

// HeaderField is one stored response header in a ClusterEntry.
type HeaderField struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// ClusterEntry is the body of a 200 from PathClusterEntry: a shared-tier
// cache entry serialized for a sibling. ExpiresInMs is a relative TTL so
// peers need no clock agreement; Body is base64 via encoding/json's []byte
// rule.
type ClusterEntry struct {
	SigID       string        `json:"sigId"`
	Status      int           `json:"status"`
	Header      []HeaderField `json:"header,omitempty"`
	Body        []byte        `json:"body,omitempty"`
	ExpiresInMs int64         `json:"expiresInMs"`
	// Refreshed is inert, always false, and ignored on receipt: it marked
	// entries a refresh-on-expire prefetch produced, a mechanism the proxy no
	// longer has. It stays because v1 only grows.
	Refreshed bool `json:"refreshed"`
}

// StatsResponse is the body of GET /appx/v1/stats.
type StatsResponse struct {
	MatchIndex           MatchIndex  `json:"matchIndex"`
	Hits                 int         `json:"hits"`
	SharedHits           int         `json:"sharedHits"`
	Misses               int         `json:"misses"`
	Prefetches           int         `json:"prefetches"`
	HitRatio             float64     `json:"hitRatio"`
	SharedHitRatio       float64     `json:"sharedHitRatio"`
	DataUsage            float64     `json:"dataUsage"`
	UsedPrefetchRatio    float64     `json:"usedPrefetchRatio"`
	SavedLatencyMs       int64       `json:"savedLatencyMs"`
	Users                int         `json:"users"`
	PrefetchQueue        int         `json:"prefetchQueue"`
	DataUsedBytes        int64       `json:"dataUsedBytes"`
	CacheResidentBytes   int64       `json:"cacheResidentBytes"`
	Retries              int         `json:"retries"`
	PrefetchErrors       int         `json:"prefetchErrors"`
	SuppressedPrefetches int         `json:"suppressedPrefetches"`
	Overload             Overload    `json:"overload"`
	Sched                Sched       `json:"sched"`
	Requests             Requests    `json:"requests"`
	Cache                Cache       `json:"cache"`
	Persist              Persist     `json:"persist"`
	Cluster              Cluster     `json:"cluster"`
	Policy               PolicyEntry `json:"policy"`
	MissReasons          MissReasons `json:"missReasons"`
	Borrowed             Borrowed    `json:"borrowed"`
	Revalidate           Revalidate  `json:"revalidate"`
}

// HealthResponse is the body of GET /appx/v1/health.
type HealthResponse struct {
	Status               string                        `json:"status"`
	Breakers             map[string]Breaker            `json:"breakers"`
	SuspendedSignatures  map[string]SuspendedSignature `json:"suspendedSignatures"`
	Retries              int                           `json:"retries"`
	PrefetchErrors       int                           `json:"prefetchErrors"`
	SuppressedPrefetches int                           `json:"suppressedPrefetches"`
	PrefetchQueue        int                           `json:"prefetchQueue"`
	DataUsedBytes        int64                         `json:"dataUsedBytes"`
	Overload             Overload                      `json:"overload"`
	Sched                Sched                         `json:"sched"`
	Cache                Cache                         `json:"cache"`
}

// Span is one finished request-lifecycle span.
type Span struct {
	ID      uint64             `json:"id"`
	Start   time.Time          `json:"start"`
	WallMs  float64            `json:"wallMs"`
	Outcome string             `json:"outcome"`
	SigID   string             `json:"sigId,omitempty"`
	User    string             `json:"user,omitempty"`
	StageMs map[string]float64 `json:"stageMs,omitempty"`
}

// SpansResponse is the body of GET /appx/v1/spans: the lifetime span count
// and up to `n` (query parameter, default 64) most recent spans, newest
// first.
type SpansResponse struct {
	Total uint64 `json:"total"`
	Spans []Span `json:"spans"`
}
