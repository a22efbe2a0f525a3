package proxy

import (
	"sync"
	"time"
)

// usageWindow accounts prefetch bytes over rolling budget periods: usage
// resets when a window elapses, so a data budget (C4, the paper's cellular
// cost control) throttles *per period* instead of permanently disabling
// prefetching once the lifetime total is hit. Epochs roll lazily on access
// against the injected clock, keeping the accounting deterministic in
// tests.
type usageWindow struct {
	mu     sync.Mutex
	window time.Duration
	epoch  time.Time
	used   int64
}

func newUsageWindow(window time.Duration) *usageWindow {
	return &usageWindow{window: window}
}

// roll starts a new accounting period when the current one has elapsed
// (w.mu held).
func (w *usageWindow) roll(now time.Time) {
	if w.epoch.IsZero() {
		w.epoch = now
		return
	}
	if w.window > 0 && now.Sub(w.epoch) >= w.window {
		w.epoch = now
		w.used = 0
	}
}

// Add charges n bytes against the current window.
func (w *usageWindow) Add(now time.Time, n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.roll(now)
	w.used += n
}

// Used reports bytes charged in the current window.
func (w *usageWindow) Used(now time.Time) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.roll(now)
	return w.used
}
