package cache

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"appx/internal/httpmsg"
)

// checkTwins holds the twin index to the store: it lists exactly the
// resident entries twinTag accepts, each under its own key and tag, in
// well-linked lists.
func checkTwins(t testing.TB, s *Store) {
	t.Helper()
	want := map[*entry]bool{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, sc := range sh.byScope {
			for _, en := range sc.entries {
				if tag := twinTag(sc.name, en.payload); tag != en.etag {
					t.Fatalf("%s/%s indexed under tag %q, its response's is %q", sc.name, en.key, en.etag, tag)
				} else if tag != "" {
					want[en] = true
				}
			}
		}
		sh.mu.Unlock()
	}
	s.twins.mu.Lock()
	defer s.twins.mu.Unlock()
	for key, tail := range s.twins.byKey {
		if tail.twinNext != nil {
			t.Fatalf("the newest twin of %s has a successor", key)
		}
		for en := tail; en != nil; en = en.twinPrev {
			switch {
			case en.key != key:
				t.Fatalf("entry of %s listed under %s", en.key, key)
			case !want[en]:
				t.Fatalf("%s/%s is listed but not a resident twin", en.sc.name, key)
			case en.twinPrev != nil && en.twinPrev.twinNext != en:
				t.Fatalf("twins of %s are not linked both ways", key)
			}
			delete(want, en)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d resident twins are not indexed", len(want))
	}
}

// twinEntry is a complete 200 of n bytes of pattern p with the given ETag
// ("" for none).
func twinEntry(n int, p byte, etag string, exp time.Time) *Entry {
	r := &httpmsg.Response{Status: 200, Body: fill(n, p)}
	if etag != "" {
		r.Header = []httpmsg.Field{{Key: "Etag", Value: etag}}
	}
	return &Entry{Resp: r, SigID: "s", Expires: exp}
}

func TestTwinLookup(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	exp := now.Add(time.Minute)
	const key = "GET|img|id=1"
	for _, tc := range []struct {
		name  string
		scope string
		e     *Entry
		want  bool
	}{
		{"strong tag", "a", twinEntry(5000, 'a', `"t1"`, exp), true},
		{"small body", "a", twinEntry(10, 'a', `"t1"`, exp), true},
		{"weak tag", "a", twinEntry(5000, 'a', `W/"t1"`, exp), false},
		{"unquoted tag", "a", twinEntry(5000, 'a', `t1`, exp), false},
		{"no tag", "a", twinEntry(5000, 'a', "", exp), false},
		{"not a 200", "a", func() *Entry { e := twinEntry(5000, 'a', `"t1"`, exp); e.Resp.Status = 203; return e }(), false},
		{"truncated", "a", func() *Entry {
			e := twinEntry(0, 'a', `"t1"`, exp)
			e.Resp.SetStream(io.NopCloser(strings.NewReader("longer than the cap")))
			e.Resp.Buffer(1)
			return e
		}(), false},
		{"shared scope", SharedScope, twinEntry(5000, 'a', `"t1"`, exp), false},
		{"the asker's own", "b", twinEntry(5000, 'a', `"t1"`, exp), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := now
			s := testStore(Options{}, &clock)
			s.Put(tc.scope, key, tc.e)
			checkTwins(t, s)
			tag, resp := s.Twin("b", key)
			if (resp != nil) != tc.want {
				t.Fatalf("Twin found %v, want %v", resp != nil, tc.want)
			}
			if !tc.want {
				return
			}
			if tag != `"t1"` || resp != tc.e.Resp {
				t.Fatalf("Twin = %q, %p; want the stored response %p under \"t1\"", tag, resp, tc.e.Resp)
			}
			if _, other := s.Twin("b", "GET|img|id=2"); other != nil {
				t.Fatal("a twin found under another key")
			}
			clock = exp
			if _, stale := s.Twin("b", key); stale != nil {
				t.Fatal("an expired entry offered as a twin")
			}
		})
	}
}

// TestTwinLeavesWithItsEntry: every way an entry leaves the store takes it
// out of the index — replacement, expiry at Get and by the sweeper, a scope
// cap, the global budget and a dropped scope — and the index never offers it
// again.
func TestTwinLeavesWithItsEntry(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{MaxBytes: 40_000, PerScopeBytes: 20_000}, &now)
	exp := now.Add(time.Minute)
	const key = "GET|img|id=1"
	s.Put("a", key, twinEntry(5000, 'a', `"t1"`, exp))
	s.Put("a", key, twinEntry(5000, 'a', "", exp)) // replaced by an untagged copy
	checkTwins(t, s)
	if _, r := s.Twin("b", key); r != nil {
		t.Fatal("a replaced entry is still a twin")
	}
	s.Put("a", key, twinEntry(5000, 'a', `"t2"`, now.Add(time.Second)))
	s.Put("c", key, twinEntry(5000, 'a', `"t2"`, now.Add(time.Second)))
	now = now.Add(time.Second)
	s.Get("a", key)
	s.SweepExpired()
	checkTwins(t, s)
	if _, r := s.Twin("b", key); r != nil || len(s.twins.byKey) != 0 {
		t.Fatal("expired entries are still indexed")
	}
	for i := 0; i < 5; i++ { // the scope cap evicts a's oldest twins
		s.Put("a", fmt.Sprintf("k%d", i), twinEntry(5000, 'a', `"t"`, exp))
	}
	checkTwins(t, s)
	for i := 0; i < 8; i++ { // the budget evicts across scopes
		s.Put(fmt.Sprintf("u%d", i), "k9", twinEntry(5000, 'a', `"t"`, exp))
	}
	checkTwins(t, s)
	if m := s.Metrics(); m.Evictions.ScopeBytes == 0 || m.Evictions.Budget == 0 {
		t.Fatalf("evictions %+v: the caps took nothing", m.Evictions)
	}
	s.DropScope("a")
	for i := 0; i < 8; i++ {
		s.DropScope(fmt.Sprintf("u%d", i))
	}
	checkTwins(t, s)
	if m := s.Metrics(); m.Entries != 0 || len(s.twins.byKey) != 0 {
		t.Fatalf("%d entries and %d indexed keys left after every scope went", m.Entries, len(s.twins.byKey))
	}
	checkBodies(t, s)
}

// TestTwinBodyTakesTheTwinsSlice: an entry stored over the slice a twin
// handed out references the twin's body and counts as a Twin reference; an
// equal body in a slice of its own is found and counts as Hashed; and once
// the twin has left, its slice is a new body like origin bytes and is still a
// correct one.
func TestTwinBodyTakesTheTwinsSlice(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{}, &now)
	exp := now.Add(time.Minute)
	const key = "GET|img|id=1"
	s.Put("a", key, twinEntry(40_000, 'a', `"t1"`, exp))
	_, twin := s.Twin("b", key)
	s.Put("b", key, &Entry{Resp: &httpmsg.Response{Status: 200, Header: twin.Header, Body: twin.Body}, Expires: exp})
	s.Put("c", key, twinEntry(40_000, 'a', `"t1"`, exp))
	checkBodies(t, s)
	checkTwins(t, s)
	if m := s.Metrics(); m.Bodies != 1 || m.BodyRefs != (BodyRefs{Twin: 1, Hashed: 1, New: 1, TwinBytes: 40_000, HashedBytes: 40_000, NewBytes: 40_000}) {
		t.Fatalf("%d bodies, references %+v; want one body found once through the twin and once by hash", m.Bodies, m.BodyRefs)
	}

	_, twin = s.Twin("d", key)
	for _, sc := range []string{"a", "b", "c"} {
		s.DropScope(sc)
	}
	s.Put("d", key, &Entry{Resp: &httpmsg.Response{Status: 200, Header: twin.Header, Body: twin.Body}, Expires: exp})
	checkBodies(t, s)
	checkTwins(t, s)
	got, _ := s.Get("d", key)
	if m := s.Metrics(); !bytes.Equal(got.Resp.Body, fill(40_000, 'a')) || m.Bodies != 1 || m.BodyRefs.New != 2 {
		t.Fatalf("after the twin left: %d bodies, references %+v, body intact %v", m.Bodies, m.BodyRefs, bytes.Equal(got.Resp.Body, fill(40_000, 'a')))
	}
}

// TestTwinConcurrent races lookups and stores over one key's twins against
// the scopes' removal; run it under -race.
func TestTwinConcurrent(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := testStore(Options{Shards: 4}, &now)
	exp := now.Add(time.Minute)
	const key = "GET|img|id=1"
	var wg sync.WaitGroup
	for u := 0; u < 8; u++ {
		wg.Add(1)
		go func(scope string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, twin := s.Twin(scope, key); twin != nil {
					s.Put(scope, key, &Entry{Resp: &httpmsg.Response{Status: 200, Header: twin.Header, Body: twin.Body}, Expires: exp})
				} else {
					s.Put(scope, key, twinEntry(5000, 'a', `"t1"`, exp))
				}
				if i%7 == 0 {
					s.DropScope(scope)
				}
			}
		}(fmt.Sprintf("u%d", u))
	}
	wg.Wait()
	checkTwins(t, s)
	checkBodies(t, s)
}
