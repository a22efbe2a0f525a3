package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"appx/internal/httpmsg"
)

// mutexStore reproduces the pre-sharding layout this subsystem replaced:
// one registry lock in front of per-user entry maps, every operation
// serialized through it. It exists only as the benchmark baseline.
type mutexStore struct {
	mu    sync.Mutex
	users map[string]map[string]*Entry
	now   func() time.Time
}

func newMutexStore(now func() time.Time) *mutexStore {
	return &mutexStore{users: map[string]map[string]*Entry{}, now: now}
}

func (m *mutexStore) Get(scope, key string) (*Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.users[scope][key]
	if e == nil {
		return nil, false
	}
	if !m.now().Before(e.Expires) {
		delete(m.users[scope], key)
		return e, false
	}
	return e, true
}

func (m *mutexStore) Put(scope, key string, e *Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	u := m.users[scope]
	if u == nil {
		u = map[string]*Entry{}
		m.users[scope] = u
	}
	u[key] = e
}

type kv interface {
	Get(scope, key string) (*Entry, bool)
	Put(scope, key string, e *Entry)
}

// benchLoop drives a read-heavy mixed workload (15/16 gets, 1/16 puts)
// over 64 user scopes × 64 keys — the shape of many users hitting their
// prefetch caches while prefetch workers insert.
func benchLoop(b *testing.B, s kv, expires time.Time) {
	const scopes, keys = 64, 64
	scopeNames := make([]string, scopes)
	keyNames := make([]string, keys)
	for i := range scopeNames {
		scopeNames[i] = fmt.Sprintf("user-%d", i)
	}
	for i := range keyNames {
		keyNames[i] = fmt.Sprintf("GET|cdn.example|/asset|id=%d", i)
	}
	body := make([]byte, 2048)
	for i := 0; i < scopes; i++ {
		for j := 0; j < keys; j++ {
			s.Put(scopeNames[i], keyNames[j], &Entry{
				Resp:    &httpmsg.Response{Status: 200, Body: body},
				SigID:   "bench",
				Expires: expires,
			})
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			scope := scopeNames[i%scopes]
			key := keyNames[(i/scopes)%keys]
			if i%16 == 15 {
				s.Put(scope, key, &Entry{
					Resp:    &httpmsg.Response{Status: 200, Body: body},
					SigID:   "bench",
					Expires: expires,
				})
			} else {
				s.Get(scope, key)
			}
			i++
		}
	})
}

// BenchmarkCacheParallel contrasts the sharded store with the single-mutex
// baseline under concurrency. Run with -cpu 8 (or more) on a multi-core
// host to see the shard win: the baseline serializes every operation
// through one lock, the shards run ~32-way concurrent. On a single-core
// host both serialize and the baseline's lighter bookkeeping wins — the
// interesting number there is BenchmarkCacheEvictionAtCap below.
func BenchmarkCacheParallel(b *testing.B) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	expires := now.Add(time.Hour)
	b.Run("sharded", func(b *testing.B) {
		benchLoop(b, New(Options{Now: clock, MaxBytes: -1, PerScopeBytes: -1, MaxEntriesPerScope: -1}), expires)
	})
	b.Run("single-mutex", func(b *testing.B) {
		benchLoop(b, newMutexStore(clock), expires)
	})
}

// putCapped reproduces the seed proxy's capacity behaviour: at the entry
// cap, scan the whole user map for the entry closest to expiry and evict it
// — the O(n) evictOneLocked the expiry and eviction heaps replaced.
func (m *mutexStore) putCapped(scope, key string, e *Entry, cap int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	u := m.users[scope]
	if u == nil {
		u = map[string]*Entry{}
		m.users[scope] = u
	}
	if len(u) >= cap {
		now := m.now()
		var victim string
		var soonest time.Time
		for k, en := range u {
			if now.After(en.Expires) {
				victim = k
				break
			}
			if victim == "" || en.Expires.Before(soonest) {
				victim, soonest = k, en.Expires
			}
		}
		if victim != "" {
			delete(u, victim)
		}
	}
	u[key] = e
}

// BenchmarkCacheEvictionAtCap measures one Put into a full per-user cache
// (4096 entries, the seed's default cap) — the steady state of a busy user.
// The sharded store pays O(log n) maintenance of the expiry heap and of the
// scope's eviction heap; the seed's layout pays a full O(n) expiry scan per
// insert. This win is core-count independent.
func BenchmarkCacheEvictionAtCap(b *testing.B) {
	const capEntries = 4096
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	mkEnt := func(i int) *Entry {
		return &Entry{
			Resp:    &httpmsg.Response{Status: 200, Body: make([]byte, 128)},
			SigID:   "bench",
			Expires: now.Add(time.Hour + time.Duration(i)*time.Second),
		}
	}
	b.Run("heap-sharded", func(b *testing.B) {
		s := New(Options{Now: clock, MaxEntriesPerScope: capEntries, MaxBytes: -1, PerScopeBytes: -1})
		for i := 0; i < capEntries; i++ {
			s.Put("u", fmt.Sprintf("k%d", i), mkEnt(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Put("u", fmt.Sprintf("n%d", i), mkEnt(capEntries+i))
		}
	})
	b.Run("scan-single-mutex", func(b *testing.B) {
		m := newMutexStore(clock)
		for i := 0; i < capEntries; i++ {
			m.putCapped("u", fmt.Sprintf("k%d", i), mkEnt(i), capEntries)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.putCapped("u", fmt.Sprintf("n%d", i), mkEnt(capEntries+i), capEntries)
		}
	})
}

// BenchmarkPutAtScopeCap measures one Put by a busy user whose shard also
// holds 31 idle users, all 32 at their entry cap. The per-scope eviction
// heap finds the victim in O(log cap) whoever else shares the shard; the
// shard-wide LRU list it replaced (lruRef) walked every idle user's entries
// from the cold end to reach the busy user's oldest.
func BenchmarkPutAtScopeCap(b *testing.B) {
	const scopes, capEntries = 32, 128
	now := time.Unix(1_700_000_000, 0)
	body := make([]byte, 128)
	mkEnt := func() *Entry {
		return &Entry{Resp: &httpmsg.Response{Status: 200, Body: body}, SigID: "bench",
			Expires: now.Add(time.Hour), Cost: 20 * time.Millisecond}
	}
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("n%d", i)
	}
	// Idle users first, so their entries are the coldest in the shard.
	fill := func(put func(scope, key string)) {
		for sc := scopes - 1; sc >= 0; sc-- {
			for i := 0; i < capEntries; i++ {
				put(fmt.Sprintf("user-%d", sc), fmt.Sprintf("k%d", i))
			}
		}
	}
	b.Run("scope-heap", func(b *testing.B) {
		s := New(Options{Shards: 1, Now: func() time.Time { return now },
			MaxEntriesPerScope: capEntries, MaxBytes: -1, PerScopeBytes: -1})
		fill(func(scope, key string) { s.Put(scope, key, mkEnt()) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Put("user-0", keys[i%len(keys)], mkEnt())
		}
	})
	b.Run("lru-walk", func(b *testing.B) {
		r := newLRURef(capEntries, -1)
		fill(func(scope, key string) { r.put(scope, key, 400) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.put("user-0", keys[i%len(keys)], 400)
		}
	})
}

// BenchmarkRoomFor measures the room check a speculative prefetch makes at
// dispatch, against a user at the entry cap in a shard 31 other users share:
// one shard lock, one look at the head of the scope's eviction order,
// whatever the scope holds.
func BenchmarkRoomFor(b *testing.B) {
	const scopes, capEntries = 32, 128
	now := time.Unix(1_700_000_000, 0)
	s := New(Options{Shards: 1, Now: func() time.Time { return now },
		MaxEntriesPerScope: capEntries, MaxBytes: -1, PerScopeBytes: -1})
	body := make([]byte, 128)
	for sc := 0; sc < scopes; sc++ {
		for i := 0; i < capEntries; i++ {
			s.Put(fmt.Sprintf("user-%d", sc), fmt.Sprintf("k%d", i), &Entry{
				Resp: &httpmsg.Response{Status: 200, Body: body}, SigID: "bench",
				Expires: now.Add(time.Hour), Cost: 20 * time.Millisecond, Root: 1})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	admitted := 0
	for i := 0; i < b.N; i++ {
		if s.RoomFor("user-0", 128, uint64(i&1)+1) {
			admitted++
		}
	}
	if b.N > 1 && admitted != b.N/2 {
		b.Fatalf("admitted %d of %d: want every root-2 query and no root-1 query", admitted, b.N)
	}
}
