package metrics

import (
	"testing"
	"time"
)

// The pinned nearest-rank definition at small n, where rounding conventions
// disagree.
func TestDigestQuantileSmallN(t *testing.T) {
	cases := []struct {
		name   string
		sample []time.Duration
		p      float64
		want   time.Duration
	}{
		// n=1: every quantile is the single sample.
		{"n1 p0", []time.Duration{ms(7)}, 0, ms(7)},
		{"n1 p50", []time.Duration{ms(7)}, 0.5, ms(7)},
		{"n1 p90", []time.Duration{ms(7)}, 0.9, ms(7)},
		{"n1 p100", []time.Duration{ms(7)}, 1, ms(7)},

		// n=2: ceil(p·2)-1 → p<=0.5 picks the lower, p>0.5 the upper.
		{"n2 p25", []time.Duration{ms(10), ms(20)}, 0.25, ms(10)},
		{"n2 p50", []time.Duration{ms(10), ms(20)}, 0.5, ms(10)},
		{"n2 p51", []time.Duration{ms(10), ms(20)}, 0.51, ms(20)},
		{"n2 p90", []time.Duration{ms(10), ms(20)}, 0.9, ms(20)},
		{"n2 p100", []time.Duration{ms(10), ms(20)}, 1, ms(20)},

		// n=3: thirds are the rank boundaries.
		{"n3 p33", []time.Duration{ms(1), ms(2), ms(100)}, 1.0 / 3, ms(1)},
		{"n3 p34", []time.Duration{ms(1), ms(2), ms(100)}, 0.34, ms(2)},
		{"n3 p50", []time.Duration{ms(1), ms(2), ms(100)}, 0.5, ms(2)},
		{"n3 p66", []time.Duration{ms(1), ms(2), ms(100)}, 2.0 / 3, ms(2)},
		{"n3 p67", []time.Duration{ms(1), ms(2), ms(100)}, 0.67, ms(100)},
		{"n3 p90", []time.Duration{ms(1), ms(2), ms(100)}, 0.9, ms(100)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDigest(tc.sample)
			if got := d.Quantile(tc.p); got != tc.want {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

func TestDigestEmpty(t *testing.T) {
	d := NewDigest(nil)
	if d.Count() != 0 || d.Mean() != 0 || d.Median() != 0 ||
		d.Quantile(0.9) != 0 || d.Min() != 0 || d.Max() != 0 || d.CDF(4) != nil {
		t.Fatal("empty digest not all-zero")
	}
}

func TestDigestStats(t *testing.T) {
	// Unsorted input; the digest sorts once.
	d := NewDigest([]time.Duration{ms(30), ms(10), ms(20), ms(40)})
	if d.Count() != 4 {
		t.Fatalf("count = %d", d.Count())
	}
	if d.Min() != ms(10) || d.Max() != ms(40) {
		t.Fatalf("min/max = %v/%v", d.Min(), d.Max())
	}
	if d.Mean() != ms(25) {
		t.Fatalf("mean = %v", d.Mean())
	}
	if d.Median() != ms(20) { // lower median at even n
		t.Fatalf("median = %v", d.Median())
	}
}

func TestDigestQuantileMonotone(t *testing.T) {
	d := NewDigest([]time.Duration{ms(5), ms(1), ms(9), ms(3), ms(7), ms(2)})
	prev := time.Duration(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		v := d.Quantile(p)
		if v < prev {
			t.Fatalf("quantile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestDigestCDF(t *testing.T) {
	d := NewDigest([]time.Duration{ms(10), ms(20), ms(30), ms(40)})
	pts := d.CDF(4)
	if len(pts) != 4 {
		t.Fatalf("cdf len = %d", len(pts))
	}
	if pts[3].Latency != ms(40) || pts[3].Prob != 1.0 {
		t.Fatalf("cdf end = %+v", pts[3])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Latency < pts[i-1].Latency || pts[i].Prob <= pts[i-1].Prob {
			t.Fatalf("cdf not monotone at %d: %+v", i, pts)
		}
	}
}

// NewDigest must not retain or mutate the caller's slice.
func TestDigestDoesNotMutateInput(t *testing.T) {
	in := []time.Duration{ms(3), ms(1), ms(2)}
	_ = NewDigest(in)
	if in[0] != ms(3) || in[1] != ms(1) || in[2] != ms(2) {
		t.Fatalf("input mutated: %v", in)
	}
}
