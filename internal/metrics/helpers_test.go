package metrics

import (
	"time"
)

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
