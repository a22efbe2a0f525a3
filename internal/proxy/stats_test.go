package proxy

import (
	"testing"
	"time"

	"appx/internal/obs"
	"appx/internal/sig"
)

// newTestStats returns statistics over a table of bare records, one per ID,
// and the table's lookup.
func newTestStats(ids ...string) (*Stats, func(string) *sigState) {
	t := &sigTable{byID: map[string]*sigState{}}
	for _, id := range ids {
		st := &sigState{sig: &sig.Signature{ID: id}}
		t.byID[id] = st
		t.all = append(t.all, st)
	}
	return newStats(obs.NewRegistry(), t), func(id string) *sigState { return t.byID[id] }
}

func TestObserveRespTimeEWMA(t *testing.T) {
	s, _ := newTestStats("a")
	s.ObserveRespTime("a", 100*time.Millisecond)
	if got := s.RespTime("a"); got != 100*time.Millisecond {
		t.Fatalf("first sample = %v", got)
	}
	// EWMA with α=1/4: (3*100 + 200)/4 = 125.
	s.ObserveRespTime("a", 200*time.Millisecond)
	if got := s.RespTime("a"); got != 125*time.Millisecond {
		t.Fatalf("ewma = %v, want 125ms", got)
	}
}

func TestPriorityOrdering(t *testing.T) {
	s, rec := newTestStats("slow-good", "fast-bad")
	// Slow signature with good hit rate beats fast one with poor hit rate
	// (§5: linear combination of response time and hit rate).
	s.ObserveRespTime("slow-good", 900*time.Millisecond)
	rec("slow-good").countPrefetch(10)
	s.countHit(rec("slow-good"), 10, true, false)

	s.ObserveRespTime("fast-bad", 50*time.Millisecond)
	for i := 0; i < 10; i++ {
		rec("fast-bad").countPrefetch(10)
	}

	if s.Priority("slow-good") <= s.Priority("fast-bad") {
		t.Fatalf("priority(slow-good)=%v <= priority(fast-bad)=%v",
			s.Priority("slow-good"), s.Priority("fast-bad"))
	}
	// Unknown signatures get the neutral exploration prior.
	if got := s.Priority("never-seen"); got != 0.5 {
		t.Fatalf("fresh priority = %v, want 0.5", got)
	}
}

func TestSnapshotAggregation(t *testing.T) {
	s, rec := newTestStats("a", "b")
	s.ObserveRespTime("a", 10*time.Millisecond) // what each hit below saves
	rec("a").countPrefetch(100)
	rec("a").countPrefetch(100)
	s.countHit(rec("a"), 100, true, false)
	s.countHit(rec("a"), 100, false, true) // repeat serve, from the shared tier
	rec("a").misses.Add(1)
	s.forwardedBytes.Add(300)
	rec("b").prefetchErrors.Add(1)
	rec("b").prefetchRejects.Add(1)

	snap := s.Snapshot()
	if snap.Prefetches != 2 || snap.Hits != 2 || snap.Misses != 1 {
		t.Fatalf("counts: %+v", snap)
	}
	if snap.UsedEntries != 1 {
		t.Fatalf("used entries = %d, want 1 (distinct)", snap.UsedEntries)
	}
	if snap.SharedHits != 1 || snap.PerSig["a"].SharedHits != 1 {
		t.Fatalf("shared hits = %d (per-sig %d), want 1", snap.SharedHits, snap.PerSig["a"].SharedHits)
	}
	if got := snap.SharedHitRatio(); got != 0.5 {
		t.Fatalf("shared hit ratio = %v, want 0.5", got)
	}
	if snap.PrefetchedBytes != 200 || snap.ServedBytes != 200 || snap.ForwardedBytes != 300 {
		t.Fatalf("bytes: %+v", snap)
	}
	if snap.SavedLatency != 20*time.Millisecond {
		t.Fatalf("saved = %v", snap.SavedLatency)
	}
	if b := snap.PerSig["b"]; b.PrefetchErrors != 1 || b.PrefetchRejects != 1 {
		t.Fatalf("b = %+v", b)
	}
}

func TestSnapshotDerivedMetrics(t *testing.T) {
	s, rec := newTestStats("a")
	rec("a").misses.Add(1)
	s.forwardedBytes.Add(1000)             // forwarded
	rec("a").countPrefetch(500)            // prefetched, unused
	rec("a").countPrefetch(500)            // prefetched...
	s.countHit(rec("a"), 500, true, false) // ...and consumed
	snap := s.Snapshot()
	// baseline = forwarded + served = 1500; total = forwarded + prefetched = 2000.
	if got := snap.NormalizedDataUsage(); got < 1.33 || got > 1.34 {
		t.Fatalf("data usage = %v", got)
	}
	if got := snap.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %v", got)
	}
	if got := snap.UsedPrefetchRatio(); got != 0.5 {
		t.Fatalf("used ratio = %v", got)
	}
	es, _ := newTestStats()
	empty := es.Snapshot()
	if empty.NormalizedDataUsage() != 1 || empty.HitRatio() != 0 || empty.UsedPrefetchRatio() != 0 {
		t.Fatal("empty snapshot derived metrics wrong")
	}
}
