package main

// Admin mode: instead of running experiments, fetch the typed /appx/v1
// views from a running appx-proxy and render an operator summary. This is
// the reference consumer of the adminv1 schema outside the proxy's own
// tests.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"appx/internal/obs/adminv1"
)

// adminView is one scrape of a proxy's versioned admin endpoints.
type adminView struct {
	Stats  adminv1.StatsResponse
	Health adminv1.HealthResponse
	Spans  adminv1.SpansResponse
}

// fetchAdmin pulls stats, health, and the spanN most recent spans from the
// proxy at base (e.g. http://127.0.0.1:8080).
func fetchAdmin(c *http.Client, base string, spanN int) (*adminView, error) {
	base = strings.TrimRight(base, "/")
	v := &adminView{}
	for _, ep := range []struct {
		path string
		into any
	}{
		{adminv1.PathStats, &v.Stats},
		{adminv1.PathHealth, &v.Health},
		{fmt.Sprintf("%s?n=%d", adminv1.PathSpans, spanN), &v.Spans},
	} {
		if err := getJSON(c, base+ep.path, ep.into); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func getJSON(c *http.Client, url string, into any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return nil
}

// renderAdmin writes the operator summary: health and overload posture,
// request outcomes with wall-time quantiles, per-stage p95s, cache
// efficiency, and the most recent spans.
func renderAdmin(w io.Writer, v *adminView) {
	s, h := &v.Stats, &v.Health
	fmt.Fprintf(w, "health: %s  overload: %s  admitted %d  shed %d\n",
		h.Status, h.Overload.Mode, h.Overload.Admitted, h.Overload.AdmissionShed)
	if len(h.Breakers) > 0 {
		for _, host := range sortedKeys(h.Breakers) {
			b := h.Breakers[host]
			fmt.Fprintf(w, "  breaker %s: %s (%d consecutive failures)\n", host, b.State, b.ConsecutiveFailures)
		}
	}
	if len(h.SuspendedSignatures) > 0 {
		for _, id := range sortedKeys(h.SuspendedSignatures) {
			ss := h.SuspendedSignatures[id]
			fmt.Fprintf(w, "  suspended %s: resume in %dms\n", id, ss.ResumeInMs)
		}
	}

	fmt.Fprintf(w, "\nrequests: %d total\n", s.Requests.Total)
	for _, name := range sortedKeys(s.Requests.Outcomes) {
		o := s.Requests.Outcomes[name]
		fmt.Fprintf(w, "  %-12s %6d   p50 %7.2fms  p95 %7.2fms  p99 %7.2fms\n",
			name, o.Count, o.P50Ms, o.P95Ms, o.P99Ms)
	}
	if len(s.Requests.StageP95Ms) > 0 {
		fmt.Fprintf(w, "stage p95:")
		for _, st := range sortedKeys(s.Requests.StageP95Ms) {
			fmt.Fprintf(w, "  %s %.2fms", st, s.Requests.StageP95Ms[st])
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\ncache: hit ratio %.3f (%d hits / %d misses, %d shared)  resident %dB (%d shared bodies in %dB)  prefetches %d (%d errors, %d suppressed)\n",
		s.HitRatio, s.Hits, s.Misses, s.SharedHits, s.CacheResidentBytes, s.Cache.SharedBodies, s.Cache.BodyBytes,
		s.Prefetches, s.PrefetchErrors, s.SuppressedPrefetches)
	for _, id := range sortedKeys(s.Cache.Signatures) {
		if cs := s.Cache.Signatures[id]; cs.Evicted > 0 {
			fmt.Fprintf(w, "  %s: stored %d, hits %d, evicted %d (%d never served), %dB unread\n",
				id, cs.Stored, cs.Hits, cs.Evicted, cs.EvictedUnused, cs.EvictedUnusedBytes)
		}
	}
	is := s.Sched.Issued
	fmt.Fprintf(w, "prefetches issued by: miss %d  hit %d  chain %d  refresh %d   promoted in queue: %d\n",
		is.Miss, is.Hit, is.Chain, is.Refresh, s.Sched.Promoted)
	fmt.Fprintf(w, "prefetches dropped at dispatch: no room %d  data budget %d\n",
		s.Policy.NoRoomSkips, s.Policy.DataBudgetSkips)
	fmt.Fprintf(w, "prefetch queue wait (mean): foreground %.2fms  shallow %.2fms  deep %.2fms   guesses held by cap: %d\n",
		s.Sched.Foreground.MeanWaitMs, s.Sched.Shallow.MeanWaitMs, s.Sched.Deep.MeanWaitMs, s.Sched.GuessesHeld)
	mr, b := s.MissReasons, s.Borrowed
	fmt.Fprintf(w, "misses by reason: unpredicted %d  no exemplar %d  queued %d  other %d   borrowed first visits: issued %d  used %d  rejected %d\n",
		mr.Unpredicted, mr.NoExemplar, mr.Queued, mr.Other, b.Issued, b.Used, b.Rejected)
	fmt.Fprintf(w, "saved latency: %s  data used: %dB\n",
		time.Duration(s.SavedLatencyMs)*time.Millisecond, s.DataUsedBytes)

	fmt.Fprintf(w, "\nspans: %d recorded, %d most recent (newest first)\n", v.Spans.Total, len(v.Spans.Spans))
	for _, sp := range v.Spans.Spans {
		line := fmt.Sprintf("  #%-6d %-12s %8.2fms", sp.ID, sp.Outcome, sp.WallMs)
		if sp.SigID != "" {
			line += "  sig=" + sp.SigID
		}
		for _, st := range sortedKeys(sp.StageMs) {
			line += fmt.Sprintf("  %s=%.2fms", st, sp.StageMs[st])
		}
		fmt.Fprintln(w, line)
	}
}

// runAdmin is the -admin entry point.
func runAdmin(base string, spanN int, w io.Writer) error {
	v, err := fetchAdmin(&http.Client{Timeout: 10 * time.Second}, base, spanN)
	if err != nil {
		return err
	}
	renderAdmin(w, v)
	return nil
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
