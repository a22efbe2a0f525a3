package proxy

import (
	"sync"
	"time"
)

// budgetWindow is the data budget's accounting period: config's
// data_budget_bytes is a per-hour allowance.
const budgetWindow = time.Hour

// usageWindow accounts prefetch bytes over rolling budget periods: usage
// resets when a window elapses, so a data budget (C4, the paper's cellular
// cost control) throttles *per period* instead of permanently disabling
// prefetching once the lifetime total is hit. Epochs roll lazily on access
// against the injected clock, keeping the accounting deterministic in
// tests. The zero value is ready to use.
type usageWindow struct {
	mu    sync.Mutex
	epoch time.Time
	used  int64
}

// roll starts a new accounting period when the current one has elapsed
// (w.mu held).
func (w *usageWindow) roll(now time.Time) {
	if w.epoch.IsZero() {
		w.epoch = now
		return
	}
	if now.Sub(w.epoch) >= budgetWindow {
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
