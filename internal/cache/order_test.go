package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// lruRef is the eviction order this package had before GreedyDual-Size: one
// recency list for the whole shard, a scope cap evicting the scope's least
// recently used entry by walking that list from the cold end past other
// scopes' entries. It is the reference of the differential test and the
// baseline of BenchmarkPutAtScopeCap.
type lruRef struct {
	maxEntries int
	maxBytes   int64
	lru        *list.List // front = most recently used
	byKey      map[string]*list.Element
	entries    map[string]int
	bytes      map[string]int64
}

type lruItem struct {
	scope, key string
	size       int64
}

func newLRURef(maxEntries int, maxBytes int64) *lruRef {
	return &lruRef{maxEntries: maxEntries, maxBytes: maxBytes, lru: list.New(),
		byKey: map[string]*list.Element{}, entries: map[string]int{}, bytes: map[string]int64{}}
}

func (r *lruRef) remove(el *list.Element) {
	it := r.lru.Remove(el).(lruItem)
	delete(r.byKey, it.scope+"\x00"+it.key)
	r.entries[it.scope]--
	r.bytes[it.scope] -= it.size
}

func (r *lruRef) get(scope, key string) {
	if el := r.byKey[scope+"\x00"+key]; el != nil {
		r.lru.MoveToFront(el)
	}
}

func (r *lruRef) put(scope, key string, sz int64) {
	if el := r.byKey[scope+"\x00"+key]; el != nil {
		r.remove(el)
	}
	keep := r.lru.PushFront(lruItem{scope, key, sz})
	r.byKey[scope+"\x00"+key] = keep
	r.entries[scope]++
	r.bytes[scope] += sz
	over := func() bool {
		return (r.maxEntries > 0 && r.entries[scope] > r.maxEntries) || (r.maxBytes > 0 && r.bytes[scope] > r.maxBytes)
	}
	for over() {
		el := r.lru.Back()
		for el != nil && (el == keep || el.Value.(lruItem).scope != scope) {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		r.remove(el)
	}
}

func (r *lruRef) resident() []string {
	var out []string
	for k := range r.byKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// resident lists the store's entries as scope NUL key, sorted, and checks
// every index and byte count against the entries themselves on the way.
func resident(t *testing.T, s *Store) []string {
	t.Helper()
	var out []string
	var total int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		inHeap := 0
		for name, sc := range sh.byScope {
			var sum int64
			for key, en := range sc.entries {
				out = append(out, name+"\x00"+key)
				sum += en.size
				if en.size != size(key, en.payload) || en.sc != sc || en.key != key {
					t.Fatalf("%s/%s: entry does not describe itself", name, key)
				}
				if sc.order[en.ordIdx] != en || sh.heap[en.heapIdx] != en {
					t.Fatalf("%s/%s: stale heap index", name, key)
				}
			}
			if len(sc.entries) == 0 || len(sc.order) != len(sc.entries) {
				t.Fatalf("%s: %d entries, %d in eviction order", name, len(sc.entries), len(sc.order))
			}
			if sum != sc.bytes {
				t.Fatalf("%s: entries sum to %d bytes, scope accounts %d", name, sum, sc.bytes)
			}
			inHeap += len(sc.entries)
			total += sum
		}
		if inHeap != len(sh.heap) {
			t.Fatalf("shard holds %d entries, expiry heap %d", inHeap, len(sh.heap))
		}
		sh.mu.Unlock()
	}
	if total != s.ResidentBytes() {
		t.Fatalf("entries sum to %d bytes, store accounts %d", total, s.ResidentBytes())
	}
	sort.Strings(out)
	return out
}

// With one cost and one size for every entry GreedyDual-Size must be the
// LRU it replaced: after every operation of a seeded random Put/Get stream
// the store holds exactly what the reference holds, so the victims were the
// same ones in the same order — under the entry cap and under the byte cap,
// for a known cost and for an unknown one.
func TestUniformCostEvictsLikeLRU(t *testing.T) {
	const bodyLen = 500
	entrySz := int64(bodyLen + len("k000") + entryOverhead)
	for _, tc := range []struct {
		name       string
		maxEntries int
		maxBytes   int64
		cost       time.Duration
	}{
		{"entry-cap", 16, -1, 20 * time.Millisecond},
		{"byte-cap", -1, 16*entrySz + entrySz/2, 20 * time.Millisecond},
		{"entry-cap/unknown-cost", 16, -1, 0},
		{"byte-cap/unknown-cost", -1, 16*entrySz + entrySz/2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1_700_000_000, 0)
			s := testStore(Options{Shards: 1, MaxBytes: -1, PerScopeBytes: tc.maxBytes, MaxEntriesPerScope: tc.maxEntries}, &now)
			ref := newLRURef(tc.maxEntries, tc.maxBytes)
			rng := rand.New(rand.NewSource(42))
			evictions := 0
			for op := 0; op < 5000; op++ {
				scope := fmt.Sprintf("user-%d", rng.Intn(3))
				key := fmt.Sprintf("k%03d", rng.Intn(60))
				if rng.Intn(10) < 6 {
					before := len(ref.byKey)
					e := ent("sig", bodyLen, now.Add(time.Hour))
					e.Cost = tc.cost
					s.Put(scope, key, e)
					ref.put(scope, key, entrySz)
					if len(ref.byKey) <= before {
						evictions++
					}
				} else {
					s.Get(scope, key)
					ref.get(scope, key)
				}
				got, want := resident(t, s), ref.resident()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("op %d: store and LRU reference diverge\nstore %q\nlru   %q", op, got, want)
				}
			}
			if evictions < 500 {
				t.Fatalf("only %d evictions in the stream: the caps were not exercised", evictions)
			}
		})
	}
}

// The sharded store against a plain map on one seeded random stream of
// every mutating operation, with mixed sizes, costs and lifetimes: a fresh
// Get only ever returns the last entry stored under that key and never an
// expired one, byte accounting is exact, no cap is exceeded after a Put, a
// scope cap never evicts the entry just stored nor any other scope's entry,
// and the global budget holds.
func TestStoreAgainstMapModel(t *testing.T) {
	costs := []time.Duration{0, 300 * time.Microsecond, 4 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"scope-caps", Options{Shards: 4, MaxBytes: -1, PerScopeBytes: 20_000, MaxEntriesPerScope: 12}},
		{"global-budget", Options{Shards: 4, MaxBytes: 50_000, PerScopeBytes: 20_000, MaxEntriesPerScope: 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1_700_000_000, 0)
			s := testStore(tc.opts, &now)
			model := map[string]*Entry{} // scope NUL key → last entry stored
			rng := rand.New(rand.NewSource(7))
			others := func(keys []string, scope string) []string {
				var out []string
				for _, k := range keys {
					if !strings.HasPrefix(k, scope+"\x00") {
						out = append(out, k)
					}
				}
				return out
			}
			for op := 0; op < 20000; op++ {
				scope := fmt.Sprintf("user-%d", rng.Intn(5))
				key := fmt.Sprintf("k%d", rng.Intn(40))
				mk := scope + "\x00" + key
				switch r := rng.Intn(100); {
				case r < 50:
					e := ent(fmt.Sprintf("sig-%d", rng.Intn(4)), 10+rng.Intn(5000), now.Add(time.Duration(1+rng.Intn(100))*time.Second))
					e.Cost = costs[rng.Intn(len(costs))]
					before := resident(t, s)
					s.Put(scope, key, e)
					model[mk] = e
					after := resident(t, s)
					n, bytes := s.ScopeStats(scope)
					if n > tc.opts.MaxEntriesPerScope || (bytes > tc.opts.PerScopeBytes && n > 1) {
						t.Fatalf("op %d: %s holds %d entries, %d bytes after Put: over its caps", op, scope, n, bytes)
					}
					if tc.opts.MaxBytes > 0 {
						if s.ResidentBytes() > tc.opts.MaxBytes {
							t.Fatalf("op %d: resident %d exceeds the budget %d", op, s.ResidentBytes(), tc.opts.MaxBytes)
						}
						break
					}
					if got, _ := s.Peek(scope, key); got != e {
						t.Fatalf("op %d: the entry just stored was evicted by its own Put", op)
					}
					if b, a := others(before, scope), others(after, scope); fmt.Sprint(b) != fmt.Sprint(a) {
						t.Fatalf("op %d: Put into %s changed other scopes\nbefore %q\nafter  %q", op, scope, b, a)
					}
				case r < 85:
					got, fresh := s.Get(scope, key)
					want := model[mk]
					if fresh && (got != want || !now.Before(got.Expires)) {
						t.Fatalf("op %d: Get served %p (expires %v) at %v, model holds %p", op, got, got.Expires, now, want)
					}
					if !fresh && got != nil && got != want {
						t.Fatalf("op %d: Get handed back a stale payload the model never held last", op)
					}
				case r < 88:
					s.SweepExpired()
				case r < 90:
					s.DropScope(scope)
					for k := range model {
						if strings.HasPrefix(k, scope+"\x00") {
							delete(model, k)
						}
					}
				default:
					now = now.Add(time.Duration(rng.Intn(5000)) * time.Millisecond)
				}
				for _, k := range resident(t, s) {
					if model[k] == nil {
						t.Fatalf("op %d: store holds %q, which the model dropped or never stored", op, k)
					}
				}
			}
			ev := s.Metrics().Evictions
			if tc.opts.MaxBytes > 0 {
				ev.ScopeBytes, ev.ScopeEntries = 1, 1 // the budget gets there first
			} else {
				ev.Budget = 1
			}
			if ev.ScopeBytes == 0 || ev.ScopeEntries == 0 || ev.Expired == 0 || ev.Budget == 0 {
				t.Fatalf("stream left a cause unexercised: %+v", ev)
			}
		})
	}
}

// The point of the order: under a byte cap a large body that is cheap to
// refetch leaves before a small one that is slow to refetch, however recent
// the large one is.
func TestLargeCheapEvictedBeforeSmallCostly(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{Shards: 1, PerScopeBytes: 400_000, MaxEntriesPerScope: -1}, &now)
	exp := now.Add(time.Hour)
	for i := 0; i < 20; i++ {
		e := ent("api", 10_000, exp)
		e.Cost = 20 * time.Millisecond
		s.Put("u", fmt.Sprintf("api%d", i), e)
	}
	for i := 0; i < 20; i++ {
		e := ent("img", 150_000, exp)
		e.Cost = 4 * time.Millisecond
		s.Put("u", fmt.Sprintf("img%d", i), e)
	}
	for i := 0; i < 20; i++ {
		if _, ok := s.Peek("u", fmt.Sprintf("api%d", i)); !ok {
			t.Fatalf("api%d evicted to make room for a cheap 150 KB body", i)
		}
	}
	m := s.Metrics()
	if got := m.PerSig["img"]; got.Evicted != m.Evictions.ScopeBytes || got.EvictedUnused != got.Evicted || got.Evicted < 18 {
		t.Fatalf("img evictions = %+v, scope-byte evictions %d: want every one of them an unused img", got, m.Evictions.ScopeBytes)
	}
	if got := m.PerSig["api"]; got.Evicted != 0 {
		t.Fatalf("api evictions = %+v, want none", got)
	}
}

// Cost buys time, not tenure: every eviction advances the scope's clock, so
// an expensive entry nobody reads is overtaken by newer cheap ones once the
// clock has risen by its credit, while one that is read keeps being renewed.
func TestUnreadCostlyEntryAgesOut(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{Shards: 1, MaxEntriesPerScope: 4}, &now)
	exp := now.Add(time.Hour)
	put := func(key string, cost time.Duration) {
		e := ent("sig", 1000, exp)
		e.Cost = cost
		s.Put("u", key, e)
	}
	put("idle", 64*time.Millisecond)
	put("read", 64*time.Millisecond)
	for i := 0; i < 400; i++ {
		put(fmt.Sprintf("cheap%d", i), 2*time.Millisecond)
		if _, fresh := s.Get("u", "read"); !fresh {
			t.Fatalf("the entry read after every Put was evicted at Put %d", i)
		}
		if _, ok := s.Peek("u", "idle"); !ok {
			if i < 30 {
				t.Fatalf("idle entry of 32x the credit left after %d cheap Puts: cost ignored", i)
			}
			return
		}
	}
	t.Fatal("an unread costly entry outlived 400 evictions: cost pins entries")
}

// An entry of unknown cost leaves before any costed entry of its age.
func TestUnknownCostLeavesFirst(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{Shards: 1, MaxEntriesPerScope: 3}, &now)
	exp := now.Add(time.Hour)
	costed := ent("sig", 100, exp)
	costed.Cost = 5 * time.Millisecond
	s.Put("u", "costed", costed)
	s.Put("u", "unknown-old", ent("sig", 100, exp))
	s.Put("u", "unknown-new", ent("sig", 100, exp))
	s.Put("u", "next", ent("sig", 100, exp))
	if _, ok := s.Peek("u", "unknown-old"); ok {
		t.Fatal("oldest unknown-cost entry survived")
	}
	for _, k := range []string{"costed", "unknown-new", "next"} {
		if _, ok := s.Peek("u", k); !ok {
			t.Fatalf("%s evicted, want the oldest unknown-cost entry", k)
		}
	}
}

func TestEvictedUnusedCounts(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{Shards: 1, MaxEntriesPerScope: 2}, &now)
	exp := now.Add(time.Hour)
	s.Put("u", "a", ent("sig", 10, exp))
	s.Put("u", "b", ent("sig", 10, exp))
	if e, _ := s.Get("u", "a"); !e.FirstUse() {
		t.Fatal("first use not reported")
	}
	s.Put("u", "c", ent("sig", 10, exp)) // evicts b, never served
	s.Put("u", "d", ent("sig", 10, exp)) // evicts a, served once
	s.Put("u", "d", ent("sig", 10, exp)) // a replacement is not an eviction
	s.DropScope("u")                     // nor is a dropped scope
	if got := s.Metrics().PerSig["sig"]; got.Evicted != 2 || got.EvictedUnused != 1 {
		t.Fatalf("evicted = %d, unused = %d; want 2, 1", got.Evicted, got.EvictedUnused)
	}
}
