package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"appx/internal/obs/adminv1"
)

// TestAdminModeDecodesTypedViews serves the three v1 endpoints from canned
// adminv1 values and checks the admin mode decodes and renders them.
func TestAdminModeDecodesTypedViews(t *testing.T) {
	stats := adminv1.StatsResponse{
		Hits: 7, Misses: 3, HitRatio: 0.7, Prefetches: 12,
		CacheResidentBytes: 4096, SavedLatencyMs: 1500,
		Overload: adminv1.Overload{Mode: "normal", Admitted: 10},
		Sched: adminv1.Sched{Promoted: 4, GuessesHeld: 11, Issued: adminv1.SchedIssued{Miss: 30, Hit: 9, Chain: 60},
			Shallow: adminv1.SchedClass{MeanWaitMs: 1.5}, Deep: adminv1.SchedClass{MeanWaitMs: 42.25}},
		Policy: adminv1.PolicyEntry{NoRoomSkips: 17, DataBudgetSkips: 2},
		MissReasons: adminv1.MissReasons{
			MissCounts: adminv1.MissCounts{Unpredicted: 145, NoExemplar: 68, Queued: 55, Other: 9},
			Signatures: map[string]adminv1.MissCounts{"t:item#0": {NoExemplar: 68, Queued: 55, Other: 9}},
		},
		Borrowed: adminv1.Borrowed{Issued: 300, Used: 120, Rejected: 2},
		Cache: adminv1.Cache{Signatures: map[string]adminv1.CacheSignature{
			"t:img#0":  {Stored: 180, Hits: 12, Evicted: 150, EvictedUnused: 140, EvictedUnusedBytes: 44100000},
			"t:item#0": {Stored: 40, Hits: 31},
		}},
		Requests: adminv1.Requests{
			Total: 10,
			Outcomes: map[string]adminv1.OutcomeStats{
				"prefetch-hit": {Count: 7, P50Ms: 1.2, P95Ms: 3.4, P99Ms: 5.6},
				"origin":       {Count: 3, P50Ms: 80, P95Ms: 120, P99Ms: 150},
			},
			StageP95Ms: map[string]float64{"cache": 0.4, "origin": 110},
		},
	}
	health := adminv1.HealthResponse{
		Status:   "degraded",
		Breakers: map[string]adminv1.Breaker{"sick.example": {State: "open", ConsecutiveFailures: 5}},
		Overload: adminv1.Overload{Mode: "normal", Admitted: 10},
	}
	spans := adminv1.SpansResponse{
		Total: 10,
		Spans: []adminv1.Span{{
			ID: 10, Start: time.Now(), WallMs: 2.5, Outcome: "prefetch-hit",
			SigID: "t:item#0", StageMs: map[string]float64{"cache": 0.3, "write": 0.1},
		}},
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body any
		switch r.URL.Path {
		case adminv1.PathStats:
			body = stats
		case adminv1.PathHealth:
			body = health
		case adminv1.PathSpans:
			if r.URL.Query().Get("n") != "5" {
				t.Errorf("spans n = %q, want 5", r.URL.Query().Get("n"))
			}
			body = spans
		default:
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(body)
	}))
	defer srv.Close()

	v, err := fetchAdmin(srv.Client(), srv.URL, 5)
	if err != nil {
		t.Fatalf("fetchAdmin: %v", err)
	}
	if v.Stats.Requests.Outcomes["prefetch-hit"].Count != 7 {
		t.Fatalf("typed decode lost outcome counts: %+v", v.Stats.Requests)
	}
	if v.Health.Breakers["sick.example"].State != "open" {
		t.Fatalf("typed decode lost breaker state: %+v", v.Health.Breakers)
	}
	if len(v.Spans.Spans) != 1 || v.Spans.Spans[0].Outcome != "prefetch-hit" {
		t.Fatalf("typed decode lost spans: %+v", v.Spans)
	}

	var out strings.Builder
	renderAdmin(&out, v)
	for _, want := range []string{
		"health: degraded",
		"breaker sick.example: open",
		"requests: 10 total",
		"prefetch-hit",
		"stage p95:",
		"hit ratio 0.700",
		"t:img#0: stored 180, hits 12, evicted 150 (140 never served), 44100000B unread",
		"issued by: miss 30  hit 9  chain 60  refresh 0   promoted in queue: 4",
		"dropped at dispatch: no room 17  data budget 2",
		"prefetch queue wait (mean): foreground 0.00ms  shallow 1.50ms  deep 42.25ms   guesses held by cap: 11",
		"misses by reason: unpredicted 145  no exemplar 68  queued 55  other 9   borrowed first visits: issued 300  used 120  rejected 2",
		"#10",
		"sig=t:item#0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("render missing %q in:\n%s", want, out.String())
		}
	}
}
