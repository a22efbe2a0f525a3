// Package metrics provides the latency statistics the evaluation reports:
// means, medians, percentiles (Figure 15 uses the 90th), and CDFs
// (Figure 16).
//
// The Digest type (digest.go) sorts the sample once and serves every
// quantile and CDF read from that one sort.
package metrics

import "time"

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Latency time.Duration
	Prob    float64
}

// Reduction returns the fractional latency reduction from orig to accel
// (0.47 = 47 % lower); 0 when orig is 0.
func Reduction(orig, accel time.Duration) float64 {
	if orig <= 0 {
		return 0
	}
	r := 1 - float64(accel)/float64(orig)
	if r < 0 {
		return r // regressions are reported as negative reductions
	}
	return r
}
