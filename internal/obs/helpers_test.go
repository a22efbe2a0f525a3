package obs

import (
	"time"
)

// Sum reports the accumulated duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// SkipStage moves the stage boundary to now without attributing the elapsed
// time anywhere (time the span explicitly does not account for).
func (s *Span) SkipStage() {
	if s == nil {
		return
	}
	s.mark = s.rec.now()
}
