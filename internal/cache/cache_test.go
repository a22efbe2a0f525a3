package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"appx/internal/httpmsg"
)

func testStore(opts Options, now *time.Time) *Store {
	opts.Now = func() time.Time { return *now }
	return New(opts)
}

func ent(sigID string, bodyLen int, expires time.Time) *Entry {
	return &Entry{
		Resp:    &httpmsg.Response{Status: 200, Body: make([]byte, bodyLen)},
		SigID:   sigID,
		Expires: expires,
	}
}

// The R3 invariant: a response is never served past its expiration time, no
// matter how recently it was stored — asserted by advancing the injected
// clock past the deadline.
func TestNeverServeStale(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{}, &now)
	s.Put("u1", "k", ent("sig", 100, now.Add(time.Minute)))

	if e, fresh := s.Get("u1", "k"); !fresh || e == nil {
		t.Fatalf("fresh entry not served: entry=%v fresh=%v", e, fresh)
	}
	now = now.Add(time.Minute) // exactly at the deadline: already stale
	e, fresh := s.Get("u1", "k")
	if fresh {
		t.Fatal("expired entry served as fresh")
	}
	if e == nil {
		t.Fatal("expired entry's payload not returned for refresh")
	}
	if e2, _ := s.Get("u1", "k"); e2 != nil {
		t.Fatal("expired entry not removed at lookup")
	}
	m := s.Metrics()
	if m.Evictions.Expired != 1 {
		t.Fatalf("expired evictions = %d, want 1", m.Evictions.Expired)
	}
	if m.ResidentBytes != 0 {
		t.Fatalf("resident bytes = %d after sole entry expired, want 0", m.ResidentBytes)
	}
}

func TestSweepExpiredUsesHeapOrder(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{Shards: 1}, &now)
	for i := 0; i < 10; i++ {
		// Staggered deadlines, inserted out of order.
		exp := now.Add(time.Duration(10-i) * time.Minute)
		s.Put("u1", fmt.Sprintf("k%d", i), ent("sig", 10, exp))
	}
	now = now.Add(5*time.Minute + time.Second) // k6..k9 (deadlines 1..4m) and k5 (5m) are past
	if removed := s.SweepExpired(); removed != 5 {
		t.Fatalf("sweep removed %d, want 5", removed)
	}
	for i := 0; i < 10; i++ {
		_, fresh := s.Get("u1", fmt.Sprintf("k%d", i))
		wantFresh := i < 5
		if fresh != wantFresh {
			t.Fatalf("k%d fresh=%v, want %v", i, fresh, wantFresh)
		}
	}
}

func TestGlobalByteBudgetEvictsLRU(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	const entrySz = 1000 + 2 + entryOverhead // body + key "kN" + overhead
	s := testStore(Options{Shards: 1, MaxBytes: 4 * entrySz, PerScopeBytes: -1, MaxEntriesPerScope: -1}, &now)
	exp := now.Add(time.Hour)
	for i := 0; i < 4; i++ {
		s.Put("u1", fmt.Sprintf("k%d", i), ent("sig", 1000, exp))
	}
	// Touch k0 so k1 becomes the least recently used.
	if _, fresh := s.Get("u1", "k0"); !fresh {
		t.Fatal("warm-up get missed")
	}
	s.Put("u1", "k4", ent("sig", 1000, exp))

	if _, fresh := s.Get("u1", "k1"); fresh {
		t.Fatal("LRU victim k1 survived the budget eviction")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, fresh := s.Get("u1", k); !fresh {
			t.Fatalf("%s evicted, want only the LRU entry gone", k)
		}
	}
	if got := s.ResidentBytes(); got > 4*entrySz {
		t.Fatalf("resident %d exceeds budget %d", got, 4*entrySz)
	}
	if m := s.Metrics(); m.Evictions.Budget != 1 {
		t.Fatalf("budget evictions = %d, want 1", m.Evictions.Budget)
	}
}

func TestPerScopeEntryCapIsolatesScopes(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{Shards: 1, MaxEntriesPerScope: 3}, &now)
	exp := now.Add(time.Hour)
	s.Put("victim", "other", ent("sig", 10, exp))
	for i := 0; i < 5; i++ {
		s.Put("hog", fmt.Sprintf("k%d", i), ent("sig", 10, exp))
	}
	if n, _ := s.ScopeStats("hog"); n != 3 {
		t.Fatalf("hog holds %d entries, want cap 3", n)
	}
	// The cap evicts the scope's own oldest entries, never a neighbour's.
	if _, fresh := s.Get("victim", "other"); !fresh {
		t.Fatal("neighbour scope's entry evicted by another scope's cap")
	}
	for i := 0; i < 2; i++ {
		if _, fresh := s.Get("hog", fmt.Sprintf("k%d", i)); fresh {
			t.Fatalf("hog k%d survived, want oldest evicted", i)
		}
	}
	if m := s.Metrics(); m.Evictions.ScopeEntries != 2 {
		t.Fatalf("scope-entry evictions = %d, want 2", m.Evictions.ScopeEntries)
	}
}

func TestPerScopeByteCap(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	const entrySz = 1000 + 2 + entryOverhead
	s := testStore(Options{Shards: 1, PerScopeBytes: 2 * entrySz, MaxEntriesPerScope: -1}, &now)
	exp := now.Add(time.Hour)
	for i := 0; i < 4; i++ {
		s.Put("u1", fmt.Sprintf("k%d", i), ent("sig", 1000, exp))
	}
	if _, bytes := s.ScopeStats("u1"); bytes > 2*entrySz {
		t.Fatalf("scope bytes %d exceed cap %d", bytes, 2*entrySz)
	}
	if m := s.Metrics(); m.Evictions.ScopeBytes != 2 {
		t.Fatalf("scope-byte evictions = %d, want 2", m.Evictions.ScopeBytes)
	}
}

func TestSharedScopeExemptFromScopeCaps(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{Shards: 1, MaxEntriesPerScope: 2}, &now)
	exp := now.Add(time.Hour)
	for i := 0; i < 10; i++ {
		s.Put(SharedScope, fmt.Sprintf("k%d", i), ent("sig", 10, exp))
	}
	if n, _ := s.ScopeStats(SharedScope); n != 10 {
		t.Fatalf("shared tier holds %d entries, want all 10 (caps are per-user)", n)
	}
}

func TestDropScope(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{}, &now)
	exp := now.Add(time.Hour)
	for i := 0; i < 5; i++ {
		s.Put("u1", fmt.Sprintf("k%d", i), ent("sig", 100, exp))
		s.Put(SharedScope, fmt.Sprintf("s%d", i), ent("sig", 100, exp))
	}

	n, bytes := s.DropScope("u1")
	if n != 5 || bytes == 0 {
		t.Fatalf("DropScope(u1) = (%d, %d), want 5 entries and nonzero bytes", n, bytes)
	}
	// Shared entries hash across all shards; dropping the shared scope must
	// reach every one.
	if n, _ := s.DropScope(SharedScope); n != 5 {
		t.Fatalf("DropScope(shared) = %d entries, want 5", n)
	}
	if got := s.ResidentBytes(); got != 0 {
		t.Fatalf("resident %d after dropping everything, want 0", got)
	}
	if m := s.Metrics(); m.Evictions.Dropped != 10 {
		t.Fatalf("dropped evictions = %d, want 10", m.Evictions.Dropped)
	}
}

func TestMetricsAndSharedHitRatio(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{}, &now)
	exp := now.Add(time.Hour)
	s.Put("u1", "a", ent("sigA", 10, exp))
	s.Put(SharedScope, "b", ent("sigB", 10, exp))

	s.Get("u1", "a")        // hit
	s.Get(SharedScope, "b") // shared hit
	s.Get(SharedScope, "b") // shared hit
	s.Get("u1", "nope")     // miss

	m := s.Metrics()
	if m.Hits != 3 || m.Misses != 1 || m.SharedHits != 2 || m.Puts != 2 {
		t.Fatalf("metrics = hits %d misses %d shared %d puts %d", m.Hits, m.Misses, m.SharedHits, m.Puts)
	}
	if got := m.SharedHitRatio(); got < 0.66 || got > 0.67 {
		t.Fatalf("shared hit ratio = %v, want 2/3", got)
	}
	if m.SharedEntries != 1 || m.SharedBytes == 0 {
		t.Fatalf("shared occupancy = (%d, %d)", m.SharedEntries, m.SharedBytes)
	}
	if st := m.PerSig["sigB"]; st.Hits != 2 || st.Puts != 1 {
		t.Fatalf("sigB stats = %+v", st)
	}
}

func TestReplacePutAccounting(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{}, &now)
	s.Put("u1", "k", ent("sig", 1000, now.Add(time.Hour)))
	s.Put("u1", "k", ent("sig", 50, now.Add(time.Hour)))
	want := size("k", ent("sig", 50, now))
	if got := s.ResidentBytes(); got != want {
		t.Fatalf("resident %d after replacement, want %d", got, want)
	}
	if m := s.Metrics(); m.Evictions.Replaced != 1 || m.Entries != 1 {
		t.Fatalf("replaced = %d entries = %d", m.Evictions.Replaced, m.Entries)
	}
}

func TestFirstUse(t *testing.T) {
	e := ent("sig", 1, time.Unix(1_700_000_000, 0))
	if !e.FirstUse() {
		t.Fatal("first FirstUse() = false")
	}
	if e.FirstUse() {
		t.Fatal("second FirstUse() = true")
	}
}

func TestSweeperLifecycle(t *testing.T) {
	// The sweeper goroutine reads the clock concurrently; guard it.
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	s := New(Options{Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}})
	s.StartSweeper(time.Millisecond)
	s.StartSweeper(time.Millisecond) // second start is a no-op, not a leak
	s.Put("u1", "k", ent("sig", 10, now.Add(time.Minute)))
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, _ := s.ScopeStats("u1"); n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background sweeper never removed the expired entry")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	s.Close() // idempotent
}

// Peek must be side-effect-free: no counters, no priority refresh, no removal
// of expired entries — sibling peeks must not distort local telemetry.
func TestPeekNoSideEffects(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{}, &now)
	s.Put(SharedScope, "k", ent("sig", 64, now.Add(time.Minute)))

	if e, ok := s.Peek(SharedScope, "k"); !ok || e == nil {
		t.Fatal("fresh entry not peekable")
	}
	if _, ok := s.Peek(SharedScope, "absent"); ok {
		t.Fatal("peek fabricated an entry")
	}
	m := s.Metrics()
	if m.Hits != 0 || m.Misses != 0 {
		t.Fatalf("peek moved counters: hits=%d misses=%d", m.Hits, m.Misses)
	}

	now = now.Add(2 * time.Minute)
	if _, ok := s.Peek(SharedScope, "k"); ok {
		t.Fatal("expired entry peeked as fresh")
	}
	if n, _ := s.ScopeStats(SharedScope); n != 1 {
		t.Fatalf("peek removed the expired entry (remaining=%d), Get owns expiry", n)
	}
}
