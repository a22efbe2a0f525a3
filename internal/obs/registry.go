// Package obs is the proxy's observability layer: a lock-cheap metrics
// registry (atomic counters, scrape-time gauge/counter callbacks, and
// fixed-bucket latency histograms with streaming quantiles) plus a
// per-request lifecycle span recorder (span.go).
//
// The paper's evaluation (Figures 15–16) attributes user-perceived latency
// to pipeline stages; this package is the substrate every such attribution
// reads from. Design constraints, in order:
//
//  1. Hot-path writes (Counter.Inc, Histogram.Observe, span recording) are
//     wait-free atomics — no sort, no map lookup, no allocation.
//  2. Reads (quantiles, Prometheus exposition, admin snapshots) may take
//     locks and allocate; they run on the admin surface, never per request.
//  3. One registry instance is the single exposition point: subsystems that
//     keep their own counters (scheduler, cache, breakers) are pulled in at
//     scrape time through CounterFunc/GaugeFunc callbacks.
//
// Metric names follow Prometheus conventions and may carry a literal label
// set: Counter(`appx_requests_total{outcome="shed"}`, ...) exposes a
// labeled series; families sharing a name before the brace share one
// HELP/TYPE block in the exposition.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// metricKind discriminates exposition formats.
type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindCounterFloatFunc
	kindGaugeFunc
	kindHistogram
)

// metric is one registered series.
type metric struct {
	name   string // full series name, possibly with {labels}
	family string // name up to the label brace
	labels string // label content without braces, "" when unlabeled
	help   string
	kind   metricKind

	counter   *Counter
	counterFn func() int64
	gaugeFn   func() float64 // also the value of a kindCounterFloatFunc
	hist      *Histogram
}

// Registry holds the registered series. Registration is done once at
// construction time; after that the registry is read-mostly (scrapes) while
// the instruments themselves absorb hot-path writes.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// splitName separates `family{labels}` into its parts.
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.names[m.name] = true
	m.family, m.labels = splitName(m.name)
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the bridge for subsystems that keep their own monotone
// counters (scheduler class tallies, cache eviction causes).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, kind: kindCounterFunc, counterFn: fn})
}

// CounterFloatFunc registers a counter series with a fractional value read
// from fn at scrape time, for monotone sums in base units such as seconds.
func (r *Registry) CounterFloatFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindCounterFloatFunc, gaugeFn: fn})
}

// GaugeFunc registers a gauge series read from fn at scrape time (queue
// depths, resident bytes, open breakers).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGaugeFunc, gaugeFn: fn})
}

// Histogram registers and returns a fixed-bucket latency histogram. A nil
// bounds slice takes DefaultLatencyBuckets. Bounds must be ascending.
func (r *Registry) Histogram(name, help string, bounds []time.Duration) *Histogram {
	h := NewHistogram(bounds)
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// DefaultLatencyBuckets spans 500µs..30s exponentially — wide enough for a
// WAN-emulated origin fetch, fine enough near the bottom to resolve cache
// hits.
func DefaultLatencyBuckets() []time.Duration {
	return []time.Duration{
		500 * time.Microsecond,
		time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2500 * time.Millisecond, 5 * time.Second,
		10 * time.Second, 30 * time.Second,
	}
}

// Histogram is a fixed-bucket histogram of durations. Observe is wait-free:
// one bounded scan over ~15 bounds plus three atomic adds, zero allocations.
// Quantiles are streamed from the bucket counts — no sample retention, no
// sort — with linear interpolation inside the resolving bucket.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds
	counts []atomic.Int64  // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram; nil bounds take DefaultLatencyBuckets.
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe folds one duration into the histogram.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for ; i < len(h.bounds); i++ {
		if d <= h.bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count reports total observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the accumulated duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (0..1) from the bucket counts: the
// nearest-rank bucket is found by cumulative count, then the value is
// interpolated linearly inside it. 0 when empty. The overflow bucket
// reports its lower bound (the largest finite bound) — an estimate can
// never exceed what the buckets resolve.
func (h *Histogram) Quantile(q float64) time.Duration {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		if cum+c < rank {
			cum += c
			continue
		}
		var lo time.Duration
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if i == len(h.bounds) {
			return lo // overflow bucket: clamp to the largest finite bound
		}
		hi := h.bounds[i]
		frac := float64(rank-cum) / float64(c)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return h.bounds[len(h.bounds)-1]
}

// BucketCount is one bucket of a histogram snapshot.
type BucketCount struct {
	UpperBound time.Duration // the overflow bucket reports 0 (unbounded)
	Count      int64         // non-cumulative
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets []BucketCount
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]BucketCount, len(h.counts))}
	for i := range h.counts {
		b := BucketCount{Count: h.counts[i].Load()}
		if i < len(h.bounds) {
			b.UpperBound = h.bounds[i]
		}
		s.Buckets[i] = b
		s.Count += b.Count
	}
	s.Sum = time.Duration(h.sum.Load())
	return s
}

// fmtFloat renders a float the way Prometheus expects.
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), sorted by family then label set, with
// one HELP/TYPE block per family.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return ms[i].labels < ms[j].labels
	})
	lastFamily := ""
	for _, m := range ms {
		if m.family != lastFamily {
			lastFamily = m.family
			typ := "counter"
			switch m.kind {
			case kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			fmt.Fprintf(w, "# HELP %s %s\n", m.family, m.help)
			fmt.Fprintf(w, "# TYPE %s %s\n", m.family, typ)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case kindCounterFunc:
			fmt.Fprintf(w, "%s %d\n", m.name, m.counterFn())
		case kindGaugeFunc, kindCounterFloatFunc:
			fmt.Fprintf(w, "%s %s\n", m.name, fmtFloat(m.gaugeFn()))
		case kindHistogram:
			writeHistogram(w, m)
		}
	}
}

// writeHistogram renders one histogram family member: cumulative _bucket
// series with the le label merged into any existing labels, then _sum
// (seconds) and _count.
func writeHistogram(w io.Writer, m *metric) {
	snap := m.hist.Snapshot()
	series := func(suffix, extra string) string {
		labels := m.labels
		if extra != "" {
			if labels != "" {
				labels += ","
			}
			labels += extra
		}
		if labels == "" {
			return m.family + suffix
		}
		return m.family + suffix + "{" + labels + "}"
	}
	var cum int64
	for _, b := range snap.Buckets {
		cum += b.Count
		le := "+Inf"
		if b.UpperBound > 0 {
			le = fmtFloat(b.UpperBound.Seconds())
		}
		fmt.Fprintf(w, "%s %d\n", series("_bucket", `le="`+le+`"`), cum)
	}
	fmt.Fprintf(w, "%s %s\n", series("_sum", ""), fmtFloat(snap.Sum.Seconds()))
	fmt.Fprintf(w, "%s %d\n", series("_count", ""), snap.Count)
}
