package proxy

import (
	"time"
)

// RestoreFailures reports counted failed restores (the acceptance
// criterion's restore_failed metric).
func (p *Proxy) RestoreFailures() int64 { return p.restoreFailures.Load() }

// SpanTotal reports the lifetime count of finished request spans.
func (p *Proxy) SpanTotal() uint64 { return p.spans.Total() }

// AdmissionCounts reports lifetime admitted and shed client requests.
func (p *Proxy) AdmissionCounts() (admitted, shed int64) { return p.gate.counts() }

// Retries reports the proxy-wide origin retry count.
func (s *Stats) Retries() int { return int(s.retries.Value()) }

// TTFBQuantile reports the q-quantile of observed time-to-first-byte.
func (p *Proxy) TTFBQuantile(q float64) time.Duration { return p.ttfb.Quantile(q) }
