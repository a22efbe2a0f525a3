package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestPercentile(t *testing.T) {
	d := NewDigest([]time.Duration{ms(10), ms(20), ms(30), ms(40), ms(50), ms(60), ms(70), ms(80), ms(90), ms(100)})
	if got := d.Quantile(0.9); got != ms(90) {
		t.Fatalf("p90 = %v", got)
	}
	if got := d.Quantile(0.5); got != ms(50) {
		t.Fatalf("p50 = %v", got)
	}
	if got := d.Quantile(1); got != ms(100) {
		t.Fatalf("p100 = %v", got)
	}
	if got := d.Quantile(0); got != ms(10) {
		t.Fatalf("p0 = %v", got)
	}
	// Input order must not matter.
	shuffled := NewDigest([]time.Duration{ms(70), ms(10), ms(100), ms(40), ms(20), ms(90), ms(30), ms(60), ms(80), ms(50)})
	if shuffled.Quantile(0.9) != ms(90) {
		t.Fatal("percentile depends on input order")
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(ms(100), ms(47)); got < 0.52 || got > 0.54 {
		t.Fatalf("Reduction = %v", got)
	}
	if got := Reduction(ms(100), ms(150)); got >= 0 {
		t.Fatalf("regression not negative: %v", got)
	}
	if Reduction(0, ms(10)) != 0 {
		t.Fatal("zero orig")
	}
}

// Property: Quantile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]time.Duration, len(raw))
		for i, r := range raw {
			ds[i] = time.Duration(r) * time.Microsecond
		}
		pa, pb := float64(a%101)/100, float64(b%101)/100
		if pa > pb {
			pa, pb = pb, pa
		}
		d := NewDigest(ds)
		va, vb := d.Quantile(pa), d.Quantile(pb)
		return va <= vb && d.Min() <= va && vb <= d.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
