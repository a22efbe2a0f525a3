package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndFuncs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("appx_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var backing int64 = 7
	r.CounterFunc("appx_cf_total", "func counter", func() int64 { return backing })
	r.GaugeFunc("appx_gauge", "func gauge", func() float64 { return 2.5 })
	r.CounterFloatFunc("appx_cff_seconds_total", "float func counter", func() float64 { return 0.125 })

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP appx_test_total test counter",
		"# TYPE appx_test_total counter",
		"appx_test_total 5",
		"appx_cf_total 7",
		"# TYPE appx_gauge gauge",
		"appx_gauge 2.5",
		"# TYPE appx_cff_seconds_total counter",
		"appx_cff_seconds_total 0.125",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("appx_dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("appx_dup_total", "")
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]time.Duration{
		10 * time.Millisecond, 100 * time.Millisecond, time.Second,
	})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	// 90 observations in (0,10ms], 10 in (10ms,100ms].
	for i := 0; i < 90; i++ {
		h.Observe(5 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	// p50 resolves inside the first bucket: rank 50 of 90 → 10ms·50/90.
	if got, want := h.Quantile(0.5), 10*time.Millisecond*50/90; got < want-time.Millisecond || got > want+time.Millisecond {
		t.Fatalf("p50 = %v, want ≈%v", got, want)
	}
	// p95 resolves inside the second bucket: rank 95, 5 of 10 into it.
	p95 := h.Quantile(0.95)
	if p95 < 10*time.Millisecond || p95 > 100*time.Millisecond {
		t.Fatalf("p95 = %v outside its bucket", p95)
	}
	// Quantiles are monotone in q and bounded by the largest finite bound.
	prev := time.Duration(0)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
	if h.Quantile(1) > time.Second {
		t.Fatalf("p100 = %v exceeds the largest bound", h.Quantile(1))
	}
}

func TestHistogramOverflowBucketClamps(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond})
	h.Observe(time.Hour) // lands in the overflow bucket
	if got := h.Quantile(0.99); got != time.Millisecond {
		t.Fatalf("overflow quantile = %v, want clamp to 1ms", got)
	}
	if h.Sum() != time.Hour {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`appx_lat_seconds{outcome="origin"}`, "latency",
		[]time.Duration{10 * time.Millisecond, time.Second})
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(100 * time.Millisecond)
	h.Observe(time.Minute)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE appx_lat_seconds histogram",
		`appx_lat_seconds_bucket{outcome="origin",le="0.01"} 2`,
		`appx_lat_seconds_bucket{outcome="origin",le="1"} 3`,
		`appx_lat_seconds_bucket{outcome="origin",le="+Inf"} 4`,
		`appx_lat_seconds_count{outcome="origin"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// Shared-family labeled counters get exactly one HELP/TYPE block.
func TestLabeledFamilySingleHeader(t *testing.T) {
	r := NewRegistry()
	r.Counter(`appx_reqs_total{outcome="a"}`, "reqs")
	r.Counter(`appx_reqs_total{outcome="b"}`, "reqs")
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if got := strings.Count(out, "# TYPE appx_reqs_total counter"); got != 1 {
		t.Fatalf("TYPE blocks = %d, want 1:\n%s", got, out)
	}
	if !strings.Contains(out, `appx_reqs_total{outcome="a"} 0`) ||
		!strings.Contains(out, `appx_reqs_total{outcome="b"} 0`) {
		t.Fatalf("labeled series missing:\n%s", out)
	}
}

// Race-gated: concurrent hot-path writers against a scraping reader. Run
// under -race (scripts/check.sh gates on it) this verifies the registry's
// concurrency contract.
func TestRegistryConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("appx_conc_total", "")
	h := r.Histogram("appx_conc_seconds", "", nil)
	var wg sync.WaitGroup
	const perWorker = 2000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(time.Duration(seed+i%100) * time.Millisecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			r.WritePrometheus(&b)
			_ = h.Quantile(0.95)
			_ = h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 4*perWorker || h.Count() != 4*perWorker {
		t.Fatalf("writes lost: counter=%d hist=%d, want %d", c.Value(), h.Count(), 4*perWorker)
	}
}
