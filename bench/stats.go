package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// fullWindow is the length of one reporting window. Every timing is computed
// per window and a phase reports the median over its windows of the
// per-window statistic: a neighbour's busy second moves one window, not the
// phase. (What a noisy hour does to that median is in README.md.) The smoke
// test shortens the window along with everything else.
const (
	fullWindow  = time.Second
	shortWindow = 25 * time.Millisecond
)

// recorder holds one client's per-request samples for one phase, in
// completion order, with the index at which each window starts.
type recorder struct {
	lat    []int32 // request latency, ns
	ttfb   []int32 // time to first body byte, ns; noTTFB where there was no origin exchange to wait for
	bytes  []int64 // verified body bytes per window, the open one last
	bounds []int   // bounds[w] = number of samples completed before window w+1
	window time.Duration
	next   time.Duration
}

func newRecorder(expect int, window time.Duration) *recorder {
	return &recorder{lat: make([]int32, 0, expect), ttfb: make([]int32, 0, expect), bytes: []int64{0}, window: window, next: window}
}

// noTTFB marks a sample left out of the first-byte statistic.
const noTTFB = -1

func clampNs(d time.Duration) int32 {
	if d > math.MaxInt32 {
		return math.MaxInt32
	}
	if d < 0 {
		return 0
	}
	return int32(d)
}

// add records one request that completed at offset at from the phase start
// and delivered n verified body bytes; ttfb < 0 leaves it out of the
// first-byte statistic.
func (r *recorder) add(at, lat, ttfb time.Duration, n int) {
	r.closeThrough(at)
	r.lat = append(r.lat, clampNs(lat))
	if ttfb < 0 {
		r.ttfb = append(r.ttfb, noTTFB)
	} else {
		r.ttfb = append(r.ttfb, clampNs(ttfb))
	}
	r.bytes[len(r.bytes)-1] += int64(n)
}

// closeThrough marks every window ending at or before d complete: the last
// full window of a phase otherwise stays open until a later sample arrives.
func (r *recorder) closeThrough(d time.Duration) {
	for r.next <= d {
		r.bounds = append(r.bounds, len(r.lat))
		r.bytes = append(r.bytes, 0)
		r.next += r.window
	}
}

// heapBytes is what the recorder holds on the heap, subtracted from live_heap_mb
// so the generator's own bookkeeping is not charged to the proxy.
func (r *recorder) heapBytes() int64 {
	return int64(cap(r.lat)+cap(r.ttfb))*4 + int64(cap(r.bounds)+cap(r.bytes))*8
}

// windowSlice returns the samples of window w from one series.
func (r *recorder) windowSlice(series []int32, w int) []int32 {
	lo := 0
	if w > 0 {
		lo = r.bounds[w-1]
	}
	return series[lo:r.bounds[w]]
}

// phaseStats are the statistics of one timed phase over its complete windows:
// each is the median over the windows of the per-window statistic.
type phaseStats struct {
	windows int     // complete windows
	samples int     // requests in complete windows
	rps     float64 // requests per second
	mbps    float64 // verified body bytes, MB/s
	p50     float64 // latency median, µs
	p99     float64 // latency p99, µs
	ttfb50  float64 // first-byte median, µs
}

// minWindowSamples is the fewest samples a window needs for its quantiles to
// count: a p99 then has ten samples beyond it. Where no window of a phase has
// that many (stream_large, the smoke test), the quantiles are taken over the
// whole phase instead.
const minWindowSamples = 1000

// gather appends window w of one series, over every client, to buf and sorts
// it; noTTFB marks are left out.
func gather(buf []int32, recs []*recorder, w int, series func(*recorder) []int32) []int32 {
	buf = buf[:0]
	for _, r := range recs {
		for _, v := range r.windowSlice(series(r), w) {
			if v != noTTFB {
				buf = append(buf, v)
			}
		}
	}
	sortInt32(buf)
	return buf
}

func latOf(r *recorder) []int32  { return r.lat }
func ttfbOf(r *recorder) []int32 { return r.ttfb }

func summarize(recs []*recorder) phaseStats {
	complete := math.MaxInt
	for _, r := range recs {
		complete = min(complete, len(r.bounds))
	}
	if complete == 0 || complete == math.MaxInt {
		return phaseStats{}
	}
	st := phaseStats{windows: complete}
	perSecond := 1 / recs[0].window.Seconds()
	var buf, allLat, allTTFB []int32
	var rps, mbps, p50, p99, ttfb50 []float64
	for w := 0; w < complete; w++ {
		var bytes int64
		for _, r := range recs {
			bytes += r.bytes[w]
		}
		mbps = append(mbps, float64(bytes)*perSecond/1e6)

		buf = gather(buf, recs, w, latOf)
		st.samples += len(buf)
		rps = append(rps, float64(len(buf))*perSecond)
		allLat = append(allLat, buf...)
		if len(buf) >= minWindowSamples {
			p50 = append(p50, quantileNs(buf, 0.50))
			p99 = append(p99, quantileNs(buf, 0.99))
		}
		buf = gather(buf, recs, w, ttfbOf)
		allTTFB = append(allTTFB, buf...)
		if len(buf) >= minWindowSamples {
			ttfb50 = append(ttfb50, quantileNs(buf, 0.50))
		}
	}
	st.rps, st.mbps = median(rps), median(mbps)
	st.p50, st.p99, st.ttfb50 = median(p50), median(p99), median(ttfb50)
	if len(p50) == 0 && len(allLat) > 0 {
		sortInt32(allLat)
		st.p50, st.p99 = quantileNs(allLat, 0.50), quantileNs(allLat, 0.99)
	}
	if len(ttfb50) == 0 && len(allTTFB) > 0 {
		sortInt32(allTTFB)
		st.ttfb50 = quantileNs(allTTFB, 0.50)
	}
	return st
}

func sortInt32(v []int32) { slices.Sort(v) }

// quantileNs reads quantile q of sorted nanosecond samples, in µs.
func quantileNs(sorted []int32, q float64) float64 {
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
