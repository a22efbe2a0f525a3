package main

import (
	"bytes"
	"strconv"
	"strings"

	"appx/internal/cache"
	"appx/internal/obs"
	"appx/internal/proxy"
	"appx/internal/proxy/sched"
	"appx/internal/sig"
)

// counters is one reading of every public counter the benchmark uses, taken
// from outside the proxy: Stats().Snapshot(), Cache().Metrics(),
// SchedMetrics(), Graph.MatchTelemetry(), and the metrics registry (span
// outcomes, policy and stream gauges), which is read through its Prometheus
// rendering because that is its only public read path.
type counters struct {
	stats proxy.Snapshot
	cache cache.Metrics
	sched sched.Metrics
	match sig.MatchTelemetry
	prom  map[string]float64
}

func readCounters(px *proxy.Proxy, g *sig.Graph) counters {
	return counters{
		stats: px.Stats().Snapshot(),
		cache: px.Cache().Metrics(),
		sched: px.SchedMetrics(),
		match: g.MatchTelemetry(),
		prom:  promValues(px.Registry()),
	}
}

// promValues parses the registry's text rendering into series → value.
func promValues(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// outcome reads one span-outcome counter.
func (c counters) outcome(name string) float64 {
	return c.prom[`appx_requests_total{outcome="`+name+`"}`]
}

// outcomeNames are the span outcomes the per-layer metrics report shares of.
var outcomeNames = []string{"prefetch-hit", "origin", "attach-hit", "shed", "error"}

// allOutcomes adds the outcomes no workload should produce.
var allOutcomes = append([]string{"refresh-hit", "forwarded", "peer-hit", "unknown"}, outcomeNames...)

func (c counters) requests() float64 {
	var n float64
	for _, o := range allOutcomes {
		n += c.outcome(o)
	}
	return n
}

type schedClass = sched.ClassMetrics

// schedTotals sums a scheduler reading over its classes.
func schedTotals(m sched.Metrics) (submitted, ran, dropped int64) {
	for _, c := range []sched.ClassMetrics{m.Foreground, m.Shallow, m.Deep} {
		submitted += c.Submitted
		ran += c.Ran
		dropped += c.Dropped()
	}
	return
}

func cacheEvictions(m cache.Metrics) int64 {
	e := m.Evictions
	return e.Expired + e.Budget + e.ScopeBytes + e.ScopeEntries + e.Dropped
}
