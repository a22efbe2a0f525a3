package obs

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Stage enumerates the request-lifecycle segments a span attributes time
// to. Stages are disjoint slices of one request's timeline, so their sum is
// bounded by the span's wall time.
type Stage uint8

const (
	// StageAdmission is time spent waiting for (or being refused) an
	// admission slot.
	StageAdmission Stage = iota
	// StageParse is request decode, user resolution, and canonical keying.
	StageParse
	// StageCache is the prefetch-store lookup (both tiers).
	StageCache
	// StageOrigin is the upstream round trip, retries included.
	StageOrigin
	// StageWrite is writing the response to the client.
	StageWrite
	// StageLearn is signature matching plus dynamic learning after the
	// response was delivered.
	StageLearn
	// StageStream is body streaming time after the response headers and
	// first write: the window where origin, spool, and client overlap.
	// StageWrite now covers only status/header delivery (the user-perceived
	// first-byte point); the body transfer itself is attributed here.
	StageStream

	// NumStages bounds the Stage enum.
	NumStages
)

// String names the stage for telemetry.
func (s Stage) String() string {
	switch s {
	case StageAdmission:
		return "admission"
	case StageParse:
		return "parse"
	case StageCache:
		return "cache"
	case StageOrigin:
		return "origin"
	case StageWrite:
		return "write"
	case StageLearn:
		return "learn"
	case StageStream:
		return "stream"
	}
	return "unknown"
}

// Outcome is a request's terminal disposition.
type Outcome uint8

const (
	// OutcomeUnknown marks a span finished without a disposition (a bug in
	// the instrumentation, kept visible rather than folded elsewhere).
	OutcomeUnknown Outcome = iota
	// OutcomePrefetchHit: served from the prefetch store.
	OutcomePrefetchHit
	// OutcomeRefreshHit is recorded by nothing: it named hits on entries a
	// refresh-on-expire prefetch produced, a mechanism the proxy no longer
	// has. It remains because the benchmark module counts it as a hit.
	OutcomeRefreshHit
	// OutcomeShed: refused by admission control or lifecycle draining.
	OutcomeShed
	// OutcomeOrigin: forwarded to the origin and answered.
	OutcomeOrigin
	// OutcomeForwarded: relayed to the cluster instance owning the user's
	// state and answered from there.
	OutcomeForwarded
	// OutcomePeerHit: served locally from a shared-tier entry pulled from a
	// ring sibling by the cluster peer-fill protocol (no origin round trip).
	OutcomePeerHit
	// OutcomeError: the request failed (malformed, or the origin path
	// errored after retries).
	OutcomeError
	// OutcomeAttachHit: served by attaching to another request's in-flight
	// origin fetch for the same canonical key — no second origin round trip.
	OutcomeAttachHit

	// NumOutcomes bounds the Outcome enum.
	NumOutcomes
)

// String names the outcome for telemetry.
func (o Outcome) String() string {
	switch o {
	case OutcomePrefetchHit:
		return "prefetch-hit"
	case OutcomeRefreshHit:
		return "refresh-hit"
	case OutcomeShed:
		return "shed"
	case OutcomeOrigin:
		return "origin"
	case OutcomeForwarded:
		return "forwarded"
	case OutcomePeerHit:
		return "peer-hit"
	case OutcomeError:
		return "error"
	case OutcomeAttachHit:
		return "attach-hit"
	}
	return "unknown"
}

// Span is one request's lifecycle record. Spans are pooled: obtain one from
// SpanRecorder.Start, mark stage boundaries as the request progresses, and
// call Finish exactly once — after which the span must not be touched.
// All methods are nil-receiver-safe so a disabled recorder costs callers
// nothing but the calls.
type Span struct {
	rec     *SpanRecorder
	id      uint64
	start   time.Time
	mark    time.Time
	stages  [NumStages]time.Duration
	outcome Outcome
	sigID   string
	user    string
}

// EndStage closes the stage that began at the previous boundary (Start or
// the last EndStage), attributing the elapsed time to st. A stage may be
// closed more than once; durations accumulate.
func (s *Span) EndStage(st Stage) {
	if s == nil {
		return
	}
	now := s.rec.now()
	s.stages[st] += now.Sub(s.mark)
	s.mark = now
}

// SetOutcome records the request's terminal disposition.
func (s *Span) SetOutcome(o Outcome) {
	if s != nil {
		s.outcome = o
	}
}

// SetSig attributes the span to a signature.
func (s *Span) SetSig(id string) {
	if s != nil {
		s.sigID = id
	}
}

// SetUser tags the span with the proxy's user key.
func (s *Span) SetUser(u string) {
	if s != nil {
		s.user = u
	}
}

// Finish seals the span: wall time is measured, the outcome counter and the
// wall/stage histograms absorb it, and a snapshot lands in the recorder's
// ring buffer. The span returns to the pool; the caller must drop every
// reference.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	r := s.rec
	wall := r.now().Sub(s.start)
	r.outcomes[s.outcome].Inc()
	r.wall[s.outcome].Observe(wall)
	for i := range s.stages {
		if s.stages[i] > 0 {
			r.stages[i].Observe(s.stages[i])
		}
	}
	r.mu.Lock()
	slot := &r.ring[r.next]
	slot.ID = s.id
	slot.Start = s.start
	slot.Wall = wall
	slot.Outcome = s.outcome
	slot.SigID = s.sigID
	slot.User = s.user
	slot.Stages = s.stages
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	if r.filled < len(r.ring) {
		r.filled++
	}
	r.mu.Unlock()
	r.total.Add(1)
	*s = Span{rec: r}
	r.pool.Put(s)
}

// SpanSnapshot is one finished span as kept in the ring buffer.
type SpanSnapshot struct {
	ID      uint64
	Start   time.Time
	Wall    time.Duration
	Outcome Outcome
	SigID   string
	User    string
	Stages  [NumStages]time.Duration
}

// StageSum is the total attributed stage time (≤ Wall by construction).
func (s SpanSnapshot) StageSum() time.Duration {
	var sum time.Duration
	for _, d := range s.Stages {
		sum += d
	}
	return sum
}

// SpanRecorder hands out pooled spans, aggregates them into per-outcome
// counters and wall/stage histograms on a Registry, and keeps a bounded
// ring of recent spans for inspection through the admin API.
type SpanRecorder struct {
	now  func() time.Time
	pool sync.Pool

	outcomes [NumOutcomes]*Counter
	wall     [NumOutcomes]*Histogram
	stages   [NumStages]*Histogram

	total atomic.Uint64
	id    atomic.Uint64

	mu     sync.Mutex
	ring   []SpanSnapshot
	next   int
	filled int
}

// NewSpanRecorder builds a recorder keeping the last capacity spans
// (minimum 16, default 1024 when capacity is 0) and registering its
// instruments on reg. now defaults to time.Now.
func NewSpanRecorder(reg *Registry, capacity int, now func() time.Time) *SpanRecorder {
	if capacity == 0 {
		capacity = 1024
	}
	if capacity < 16 {
		capacity = 16
	}
	if now == nil {
		now = time.Now
	}
	r := &SpanRecorder{now: now, ring: make([]SpanSnapshot, capacity)}
	r.pool.New = func() any { return &Span{rec: r} }
	for o := Outcome(0); o < NumOutcomes; o++ {
		lbl := `{outcome="` + o.String() + `"}`
		r.outcomes[o] = reg.Counter("appx_requests_total"+lbl,
			"Proxied client requests by terminal outcome.")
		r.wall[o] = reg.Histogram("appx_request_duration_seconds"+lbl,
			"User-perceived request wall time by terminal outcome.", nil)
	}
	for st := Stage(0); st < NumStages; st++ {
		r.stages[st] = reg.Histogram(
			`appx_request_stage_seconds{stage="`+st.String()+`"}`,
			"Per-request time attributed to each lifecycle stage.", nil)
	}
	return r
}

// Start begins a span at now. Nil-safe: a nil recorder returns a nil span
// whose methods are all no-ops.
func (r *SpanRecorder) Start() *Span {
	if r == nil {
		return nil
	}
	s := r.pool.Get().(*Span)
	s.id = r.id.Add(1)
	s.start = r.now()
	s.mark = s.start
	return s
}

// Total reports the lifetime count of finished spans.
func (r *SpanRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total.Load()
}

// OutcomeCount reports the lifetime count of one outcome.
func (r *SpanRecorder) OutcomeCount(o Outcome) int64 {
	if r == nil || o >= NumOutcomes {
		return 0
	}
	return r.outcomes[o].Value()
}

// WallQuantile reports the q-quantile of one outcome's wall-time histogram.
func (r *SpanRecorder) WallQuantile(o Outcome, q float64) time.Duration {
	if r == nil || o >= NumOutcomes {
		return 0
	}
	return r.wall[o].Quantile(q)
}

// StageHistogram exposes one stage's histogram (admin snapshots).
func (r *SpanRecorder) StageHistogram(st Stage) *Histogram {
	if r == nil || st >= NumStages {
		return nil
	}
	return r.stages[st]
}

// WindowQuantiles reports, for each q in qs, the q-quantile of wall time
// over the retained spans whose outcome is not exclude (zeros when none
// qualify). It copies and sorts the window, so it is for periodic readers —
// an overload controller closing an interval, an admin snapshot — never for
// the per-request path.
func (r *SpanRecorder) WindowQuantiles(exclude Outcome, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if r == nil {
		return out
	}
	r.mu.Lock()
	walls := make([]time.Duration, 0, r.filled)
	for i := range r.ring[:r.filled] {
		if r.ring[i].Outcome != exclude {
			walls = append(walls, r.ring[i].Wall)
		}
	}
	r.mu.Unlock()
	if len(walls) == 0 {
		return out
	}
	slices.Sort(walls)
	for i, q := range qs {
		idx := int(q * float64(len(walls)-1))
		out[i] = walls[min(max(idx, 0), len(walls)-1)]
	}
	return out
}

// Recent returns up to n of the most recently finished spans, newest first.
func (r *SpanRecorder) Recent(n int) []SpanSnapshot {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.filled {
		n = r.filled
	}
	out := make([]SpanSnapshot, n)
	idx := r.next
	for i := 0; i < n; i++ {
		idx--
		if idx < 0 {
			idx = len(r.ring) - 1
		}
		out[i] = r.ring[idx]
	}
	return out
}
