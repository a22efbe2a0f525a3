package metrics

import (
	"math"
	"sort"
	"time"
)

// Digest is a sorted summary of a latency sample. Building one sorts a copy
// of the input exactly once; every quantile, CDF, or mean read after that is
// O(1) or O(n) without re-sorting.
//
// The quantile definition is pinned: Quantile(p) is the nearest-rank value
// at index ceil(p·n)-1 of the ascending sample, with p <= 0 mapping to the
// minimum and p >= 1 to the maximum.
type Digest struct {
	sorted []time.Duration
	sum    time.Duration
}

// NewDigest copies and sorts the sample. The input slice is not retained.
func NewDigest(ds []time.Duration) *Digest {
	d := &Digest{sorted: append([]time.Duration(nil), ds...)}
	sort.Slice(d.sorted, func(i, j int) bool { return d.sorted[i] < d.sorted[j] })
	for _, v := range d.sorted {
		d.sum += v
	}
	return d
}

// Count reports the sample size.
func (d *Digest) Count() int { return len(d.sorted) }

// Min returns the smallest sample, 0 when empty.
func (d *Digest) Min() time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[0]
}

// Max returns the largest sample, 0 when empty.
func (d *Digest) Max() time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[len(d.sorted)-1]
}

// Mean returns the arithmetic mean, 0 when empty.
func (d *Digest) Mean() time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sum / time.Duration(len(d.sorted))
}

// rankIndex maps a probability to the pinned nearest-rank index ceil(p·n)-1.
func (d *Digest) rankIndex(p float64) int {
	n := len(d.sorted)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Quantile returns the p-quantile by the pinned nearest-rank definition;
// 0 when the digest is empty.
func (d *Digest) Quantile(p float64) time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return d.sorted[0]
	}
	if p >= 1 {
		return d.sorted[len(d.sorted)-1]
	}
	return d.sorted[d.rankIndex(p)]
}

// Median is Quantile(0.5).
func (d *Digest) Median() time.Duration { return d.Quantile(0.5) }

// CDF summarizes the distribution at n evenly spaced probabilities ending at
// 1.0, sorted by latency. Nil when the digest is empty or n <= 0.
func (d *Digest) CDF(n int) []CDFPoint {
	if len(d.sorted) == 0 || n <= 0 {
		return nil
	}
	out := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		p := float64(i) / float64(n)
		out = append(out, CDFPoint{Latency: d.Quantile(p), Prob: p})
	}
	return out
}
