package cache

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"appx/internal/httpmsg"
)

// checkBodies holds the body table to the store: one reference per resident
// entry per shared body, a shared slice for every complete body at or over the
// floor and none under it, and nothing held that no entry references — so the
// table is empty whenever the store is.
func checkBodies(t testing.TB, s *Store) {
	t.Helper()
	refs := map[*body]int{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, sc := range sh.byScope {
			for key, en := range sc.entries {
				r := en.payload.Resp
				shared := r != nil && len(r.Body) >= shareFloor && r.BodyComplete()
				switch {
				case shared != (en.body != nil):
					t.Fatalf("%s/%s: %d-byte body, complete %v, holds reference %v",
						sc.name, key, len(r.Body), r.BodyComplete(), en.body != nil)
				case shared && &en.body.b[0] != &r.Body[0]:
					t.Fatalf("%s/%s: body is a copy, not the table's slice", sc.name, key)
				}
				if en.body != nil {
					refs[en.body]++
				}
			}
		}
		sh.mu.Unlock()
	}
	tb := s.bodies
	tb.mu.Lock()
	defer tb.mu.Unlock()
	held, heldBytes := 0, int64(0)
	for h, x := range tb.byHash {
		for ; x != nil; x = x.next {
			if x.hash != h {
				t.Fatalf("body filed under hash %x has hash %x", h, x.hash)
			}
			if x.refs != refs[x] {
				t.Fatalf("body of %d bytes holds %d references, %d entries use it", len(x.b), x.refs, refs[x])
			}
			delete(refs, x)
			held++
			heldBytes += int64(len(x.b))
		}
	}
	if len(refs) != 0 {
		t.Fatalf("%d bodies referenced by entries are not in the table", len(refs))
	}
	if held != tb.count || heldBytes != tb.bytes {
		t.Fatalf("table counts %d bodies, %d bytes; holds %d, %d", tb.count, tb.bytes, held, heldBytes)
	}
}

// fill returns a fresh n-byte body of pattern p: equal arguments give equal
// bytes in distinct slices, as two users' fetches of one URL do.
func fill(n int, p byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = p + byte(i%251)
	}
	return b
}

func TestEqualBodiesShareOneSlice(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{}, &now)
	exp := now.Add(time.Hour)
	for u := 0; u < 6; u++ {
		s.Put(fmt.Sprintf("u%d", u), "GET|img|id=1", &Entry{Resp: &httpmsg.Response{Status: 200, Body: fill(40_000, 'a')}, Expires: exp})
		s.Put(fmt.Sprintf("u%d", u), "GET|feed", &Entry{Resp: &httpmsg.Response{Status: 200, Body: fill(shareFloor-1, 'f')}, Expires: exp})
	}
	checkBodies(t, s)
	m := s.Metrics()
	if m.Bodies != 1 || m.BodyBytes != 40_000 {
		t.Fatalf("table holds %d bodies in %d bytes, want 1 in 40000", m.Bodies, m.BodyBytes)
	}
	if want := 6 * (size("GET|img|id=1", ent("", 40_000, exp)) + size("GET|feed", ent("", shareFloor-1, exp))); m.ResidentBytes != want {
		t.Fatalf("resident %d bytes, want the logical %d", m.ResidentBytes, want)
	}
	a, _ := s.Get("u0", "GET|img|id=1")
	b, _ := s.Get("u5", "GET|img|id=1")
	if &a.Resp.Body[0] != &b.Resp.Body[0] || !bytes.Equal(a.Resp.Body, fill(40_000, 'a')) {
		t.Fatal("two users' equal bodies are not one slice of the original bytes")
	}
	for u := 0; u < 6; u++ {
		s.DropScope(fmt.Sprintf("u%d", u))
	}
	if m := s.Metrics(); m.Bodies != 0 || m.BodyBytes != 0 || m.ResidentBytes != 0 {
		t.Fatalf("after every scope dropped: %d bodies, %d body bytes, %d resident", m.Bodies, m.BodyBytes, m.ResidentBytes)
	}
}

// TestCollidingBodiesStayApart: bodies on one hash are told apart by their
// bytes, and each leaves the chain alone when its last entry goes.
func TestCollidingBodiesStayApart(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{Shards: 1}, &now)
	s.bodies.hash = func(maphash.Seed, []byte) uint64 { return 7 }
	exp := now.Add(time.Hour)
	for i, p := range []byte{'a', 'b', 'c', 'a'} {
		s.Put("u", fmt.Sprintf("k%d", i), &Entry{Resp: &httpmsg.Response{Status: 200, Body: fill(4096, p)}, Expires: exp})
	}
	checkBodies(t, s)
	if m := s.Metrics(); m.Bodies != 3 {
		t.Fatalf("%d bodies held, want 3", m.Bodies)
	}
	for i, p := range []byte{'a', 'b', 'c', 'a'} {
		if e, _ := s.Get("u", fmt.Sprintf("k%d", i)); !bytes.Equal(e.Resp.Body, fill(4096, p)) {
			t.Fatalf("k%d reads another body's bytes", i)
		}
	}
	s.Put("u", "k1", &Entry{Resp: &httpmsg.Response{Status: 200, Body: fill(4096, 'c')}, Expires: exp})
	checkBodies(t, s)
	if m := s.Metrics(); m.Bodies != 2 || m.Evictions.Replaced != 1 {
		t.Fatalf("after replacing the only 'b': %d bodies, %d replaced", m.Bodies, m.Evictions.Replaced)
	}
}

// TestIncompleteBodiesAreNotShared: a streaming or truncated capture is not
// the whole entity, so it never enters the table.
func TestIncompleteBodiesAreNotShared(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{}, &now)
	streaming := &httpmsg.Response{Status: 200, Body: fill(4096, 'a')}
	streaming.SetStream(io.NopCloser(strings.NewReader("rest")))
	truncated := &httpmsg.Response{Status: 200}
	truncated.SetStream(io.NopCloser(bytes.NewReader(fill(8192, 'a'))))
	if err := truncated.Buffer(4096); err == nil {
		t.Fatal("Buffer under its cap")
	}
	truncated.Body = fill(4096, 'a')
	s.Put("u", "stream", &Entry{Resp: streaming, Expires: now.Add(time.Hour)})
	s.Put("u", "trunc", &Entry{Resp: truncated, Expires: now.Add(time.Hour)})
	checkBodies(t, s)
	if m := s.Metrics(); m.Bodies != 0 {
		t.Fatalf("%d incomplete bodies shared", m.Bodies)
	}
}

// TestBodyTableRace: sixteen goroutines store, replace, read, expire and drop
// the same few bodies over overlapping scopes; the table ends as empty as the
// store. Run under -race (scripts/check.sh does).
func TestBodyTableRace(t *testing.T) {
	var clock sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	s := New(Options{Shards: 4, PerScopeBytes: 40_000, MaxEntriesPerScope: 6, Now: func() time.Time {
		clock.Lock()
		defer clock.Unlock()
		return now
	}})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				scope := fmt.Sprintf("u%d", (g+i)%5)
				if (g+i)%5 == 4 {
					scope = SharedScope
				}
				key := fmt.Sprintf("k%d", i%7)
				switch i % 11 {
				case 3:
					s.DropScope(scope)
				case 5, 9:
					if e, _ := s.Get(scope, key); e != nil && len(e.Resp.Body) >= shareFloor {
						_ = e.Resp.Body[len(e.Resp.Body)-1]
					}
				case 7:
					s.SweepExpired()
				default:
					n := []int{100, 4096, 12_000}[(g*i)%3]
					s.Put(scope, key, &Entry{Resp: &httpmsg.Response{Status: 200, Body: fill(n, byte(i%2))},
						Expires: s.opts.Now().Add(time.Duration(1+i%3) * time.Second)})
				}
				if i%50 == 0 {
					clock.Lock()
					now = now.Add(time.Second)
					clock.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	checkBodies(t, s)
	for u := 0; u < 4; u++ {
		s.DropScope(fmt.Sprintf("u%d", u))
	}
	s.DropScope(SharedScope)
	if m := s.Metrics(); m.Entries != 0 || m.ResidentBytes != 0 || m.Bodies != 0 || m.BodyBytes != 0 {
		t.Fatalf("emptied store: %d entries, %d resident; table %d bodies, %d bytes",
			m.Entries, m.ResidentBytes, m.Bodies, m.BodyBytes)
	}
}

// TestPutDuplicateBodyAllocs pins what storing a body the table already holds
// costs: the entry's index record and nothing for the body.
func TestPutDuplicateBodyAllocs(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{}, &now)
	copies := [2][]byte{fill(300_000, 'a'), fill(300_000, 'a')}
	e := [2]*Entry{}
	for i := range e {
		e[i] = &Entry{Resp: &httpmsg.Response{Status: 200, Body: copies[i]}, Expires: now.Add(time.Hour)}
	}
	s.Put("holder", "img", &Entry{Resp: &httpmsg.Response{Status: 200, Body: fill(300_000, 'a')}, Expires: now.Add(time.Hour)})
	// A second entry keeps the scope, and its index, alive across the replace.
	s.Put("u", "feed", ent("feed", 100, now.Add(time.Hour)))
	i := 0
	got := testing.AllocsPerRun(200, func() {
		i++
		e[i%2].Resp.Body = copies[i%2]
		s.Put("u", "img", e[i%2])
	})
	if got != 1 {
		t.Fatalf("a duplicate Put costs %v allocs, want 1", got)
	}
	checkBodies(t, s)
}

// BenchmarkPutDuplicateBody stores a 300 KB body equal to one already held,
// replacing the scope's previous copy: a hash and a comparison of 300 KB.
func BenchmarkPutDuplicateBody(b *testing.B) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{}, &now)
	copies := [2][]byte{fill(300_000, 'a'), fill(300_000, 'a')}
	s.Put("holder", "img", &Entry{Resp: &httpmsg.Response{Status: 200, Body: fill(300_000, 'a')}, Expires: now.Add(time.Hour)})
	s.Put("u", "feed", ent("feed", 100, now.Add(time.Hour)))
	e := [2]*Entry{}
	for i := range e {
		e[i] = &Entry{Resp: &httpmsg.Response{Status: 200}, Expires: now.Add(time.Hour)}
	}
	b.SetBytes(300_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e[i%2].Resp.Body = copies[i%2]
		s.Put("u", "img", e[i%2])
	}
}
