package proxy

// Tests of the signature table (one sigState per graph signature, built at
// New) and of the recency-ordered user table.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/cache"
	"appx/internal/httpmsg"
	"appx/internal/obs/adminv1"
	"appx/internal/sig"
)

// TestSigTableConcurrentUse drives every writer of a record against every
// reader of the table at once (meaningful under -race), then checks no
// update was lost.
func TestSigTableConcurrentUse(t *testing.T) {
	up, _ := persistLabUpstream()
	p := New(Options{Graph: sharedGraph(), Upstream: up})
	defer p.Close()
	sample := &httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item"}

	const writers, rounds = 2, 2000
	var writing, reading sync.WaitGroup
	for _, st := range p.sigs.all {
		for w := 0; w < writers; w++ {
			writing.Add(1)
			go func(st *sigState) {
				defer writing.Done()
				for i := 0; i < rounds; i++ {
					st.countPrefetch(10)
					p.stats.countHit(st, 10, i%2 == 0, i%4 == 0)
					st.misses.Add(1)
					p.stats.forwardedBytes.Add(5)
					p.stats.ObserveRespTime(st.sig.ID, time.Duration(i)*time.Microsecond)
					if i%3 == 0 {
						st.setBackoff(0, time.Time{})
					} else {
						st.fail(p.opts.Now(), prefetchFailureLimit)
					}
					st.sample.Store(sample)
				}
			}(st)
		}
	}
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				p.stats.Snapshot()
				p.stats.Priority("t:item#0")
				p.healthV1()
				p.exportState()
				p.SampleRequest("t:item#0")
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()

	snap := p.Stats().Snapshot()
	n := len(p.sigs.all) * writers * rounds
	if snap.Prefetches != n || snap.Hits != n || snap.Misses != n || snap.UsedEntries != n/2 || snap.SharedHits != n/4 {
		t.Fatalf("lost updates: %+v, want %d of each (half first uses, a quarter shared)", snap, n)
	}
	if snap.PrefetchedBytes != int64(10*n) || snap.ServedBytes != int64(10*n) || snap.ForwardedBytes != int64(5*n) {
		t.Fatalf("lost bytes: %+v", snap)
	}
}

// TestRespTimeAndBackoffFormulas pins the two read-modify-write fields of a
// record against their sequential definitions: the response-time average is
// the first sample, then (3·old + d)/4; the suspension window opens at the
// failure limit and doubles from prefetchBackoffBase up to prefetchBackoffMax:
// 1 s after 3 failures, the 5 min cap after 12 more.
func TestRespTimeAndBackoffFormulas(t *testing.T) {
	s, rec := newTestStats("a")
	var want time.Duration
	for i, d := range []time.Duration{0, 80 * time.Millisecond, 7 * time.Millisecond, time.Second, 3} {
		s.ObserveRespTime("a", d)
		if want = (3*want + d) / 4; i == 0 {
			want = d
		}
		if got := s.RespTime("a"); got != want {
			t.Fatalf("after sample %d (%v): average %v, want %v", i, d, got, want)
		}
	}

	now := time.Unix(1_700_000_000, 0)
	st := rec("a")
	window, capped := time.Second, 0
	for n := 1; n <= prefetchFailureLimit+12; n++ {
		now = now.Add(time.Minute)
		st.fail(now, prefetchFailureLimit)
		failures, until := st.backoff()
		if failures != n {
			t.Fatalf("streak = %d after %d failures", failures, n)
		}
		if n < prefetchFailureLimit {
			if !until.IsZero() {
				t.Fatalf("suspended after %d failures, under the limit", n)
			}
			continue
		}
		if !until.Equal(now.Add(window)) {
			t.Fatalf("failure %d: suspended until now+%v, want now+%v", n, until.Sub(now), window)
		}
		if window == 5*time.Minute {
			capped++
		}
		if window *= 2; window > 5*time.Minute {
			window = 5 * time.Minute
		}
	}
	if capped != 4 {
		t.Fatalf("%d failures at the 5 min cap, want the last 4", capped)
	}
}

// TestStrayEntryServedUncounted: an entry filed under a signature this
// graph does not carry — a disk-tier promotion or a peer fill written by
// another build — is served byte-identical, counted under no signature, and
// costs what a never-observed signature costs.
func TestStrayEntryServedUncounted(t *testing.T) {
	dir := t.TempDir()
	g := sharedGraph()
	up := UpstreamFunc(func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		t.Errorf("origin reached for %s", r.Path)
		return &httpmsg.Response{Status: 200}, nil
	})
	body := []byte(`{"item":"written by another build"}`)
	req := &httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "9"}}}

	p1 := New(Options{Graph: g, Upstream: up, StateDir: dir})
	p1.Cache().Put(cache.SharedScope, req.CanonicalKey(), &cache.Entry{
		Resp: &httpmsg.Response{Status: 200, Body: body}, SigID: "old:item#7", Expires: time.Now().Add(time.Hour)})
	p1.DiskTier().Flush()
	p1.Close()

	p2 := New(Options{Graph: g, Upstream: up, StateDir: dir})
	defer p2.Close()
	tr := &proxyTransport{p: p2, user: "1.1.1.1"}
	for _, from := range []string{"the disk tier", "memory"} {
		resp, err := tr.RoundTrip(req)
		if err != nil || resp.Status != 200 || !bytes.Equal(resp.Body, body) {
			t.Fatalf("stray entry from %s: %v %+v", from, err, resp)
		}
	}
	if hits := p2.DiskTier().Metrics().Hits; hits != 1 {
		t.Fatalf("disk tier hits = %d, want the first request promoted from it", hits)
	}
	if e := p2.entryFromPeer(&adminv1.ClusterEntry{SigID: "old:item#7", Status: 200, Body: body, ExpiresInMs: 1000}); e == nil || e.Cost != 0 {
		t.Fatalf("peer entry of a stray signature = %+v, want cost 0", e)
	}
	if snap := p2.Stats().Snapshot(); len(snap.PerSig) != 0 || snap.Hits != 0 {
		t.Fatalf("stray hits counted under a signature: %+v", snap)
	}
	if hits := p2.Cache().Metrics().Hits; hits != 2 {
		t.Fatalf("store hits = %d, want 2", hits)
	}
}

// TestUnknownSigReadsZeroAndGrowsNothing: reading an ID the graph does not
// carry answers from the zero record, and neither reads nor writes file
// anything under it.
func TestUnknownSigReadsZeroAndGrowsNothing(t *testing.T) {
	up, _ := persistLabUpstream()
	p := New(Options{Graph: sharedGraph(), Upstream: up})
	defer p.Close()
	trainAndWarm(t, p)
	before := len(p.Stats().Snapshot().PerSig)
	if before == 0 {
		t.Fatal("training counted nothing")
	}
	if got := p.Stats().Priority("no-such-sig"); got != 0.5 {
		t.Fatalf("priority of an unknown signature = %v, want the neutral 0.5", got)
	}
	p.Stats().ObserveRespTime("no-such-sig", time.Second)
	if got := p.Stats().RespTime("no-such-sig"); got != 0 {
		t.Fatalf("response time of an unknown signature = %v, want 0", got)
	}
	if p.SampleRequest("no-such-sig") != nil {
		t.Fatal("an unknown signature has a sample request")
	}
	if after := len(p.Stats().Snapshot().PerSig); after != before || len(p.sigs.byID) != len(p.opts.Graph.Sigs) {
		t.Fatalf("PerSig %d → %d, table %d records for %d signatures", before, after, len(p.sigs.byID), len(p.opts.Graph.Sigs))
	}
}

// TestSnapshotRestoresSamplesAndBackoff: what a record holds beyond
// counters — the verification sample and the failure backoff — survives a
// snapshot → restore round trip through the wire format exactly.
func TestSnapshotRestoresSamplesAndBackoff(t *testing.T) {
	dir := t.TempDir()
	g := sharedGraph()
	up, _ := persistLabUpstream()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }

	p1 := New(Options{Graph: g, Upstream: up, StateDir: dir, Now: clock})
	sample := &httpmsg.Request{Method: "GET", Scheme: "http", Host: "h.example", Path: "/item",
		Query:  []httpmsg.Field{{Key: "id", Value: "3"}},
		Header: []httpmsg.Field{{Key: "User-Agent", Value: "okhttp/3"}}}
	item, list := p1.sigs.byID["t:item#0"], p1.sigs.byID["t:list#0"]
	item.sample.Store(sample)
	for i := 0; i < prefetchFailureLimit+1; i++ {
		item.fail(now, prefetchFailureLimit)
	}
	list.fail(now, prefetchFailureLimit) // a streak under the limit: counted, not suspended
	if err := p1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	p1.Close()

	p2 := New(Options{Graph: g, Upstream: up, StateDir: dir, Now: clock})
	defer p2.Close()
	if p2.RestoreOutcome() != RestoreWarm {
		t.Fatalf("restore outcome %q (%s)", p2.RestoreOutcome(), p2.RestoreDetail())
	}
	if got := p2.SampleRequest("t:item#0"); got == nil || got.CanonicalKey() != sample.CanonicalKey() || !reflect.DeepEqual(got.Header, sample.Header) {
		t.Fatalf("restored sample = %+v, want %+v", got, sample)
	}
	if p2.SampleRequest("t:list#0") != nil {
		t.Fatal("a sample appeared for a signature that had none")
	}
	for _, id := range []string{"t:item#0", "t:list#0"} {
		wantN, wantUntil := p1.sigs.byID[id].backoff()
		if n, until := p2.sigs.byID[id].backoff(); n != wantN || !until.Equal(wantUntil) {
			t.Fatalf("%s: restored backoff (%d, %v), want (%d, %v)", id, n, until, wantN, wantUntil)
		}
	}
	if h := p2.healthV1(); len(h.SuspendedSignatures) != 1 || h.SuspendedSignatures["t:item#0"].ConsecutiveFailures != prefetchFailureLimit+1 {
		t.Fatalf("health after restore: %+v", h.SuspendedSignatures)
	}
}

// lockProbeTier is a cache.Tier that records every dropped scope and
// whether the proxy's user lock was held while it was called.
type lockProbeTier struct {
	p       *Proxy
	dropped []string
	locked  bool
}

func (l *lockProbeTier) Spill(string, string, *cache.Entry)       {}
func (l *lockProbeTier) Load(string, string) (*cache.Entry, bool) { return nil, false }
func (l *lockProbeTier) Drop(scope string) {
	l.dropped = append(l.dropped, scope)
	if l.p.mu.TryLock() {
		l.p.mu.Unlock()
	} else {
		l.locked = true
	}
}

// TestUserEvictionFollowsRecency: at the cap, each new user evicts exactly
// the least recently seen one — a thousand arrivals retire a thousand users
// in the order they were last touched — the cache scope is dropped after the
// user lock is released, and PruneUsers takes the idle tail and nothing else.
func TestUserEvictionFollowsRecency(t *testing.T) {
	const cap = 1000
	// Every reading of the proxy's clock is one second after the last.
	var ticks atomic.Int64
	clock := func() time.Time { return time.Unix(1_700_000_000+ticks.Add(1), 0) }
	up := UpstreamFunc(func(context.Context, *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200}, nil
	})
	p := New(Options{Graph: sig.NewGraph("t"), Upstream: up, MaxUsers: cap, Now: clock})
	defer p.Close()
	tier := &lockProbeTier{p: p}
	p.store.Close()
	p.store = cache.New(cache.Options{Tier: tier})

	name := func(i int) string { return fmt.Sprintf("u%04d", i) }
	for i := 0; i < cap; i++ {
		p.user(name(i))
	}
	// Touching everyone in a scrambled order makes that the recency order.
	order := rand.New(rand.NewSource(1)).Perm(cap)
	for _, i := range order {
		p.user(name(i))
	}
	for i := 0; i < cap; i++ {
		p.user(fmt.Sprintf("new%04d", i))
	}
	if len(tier.dropped) != cap || p.UserCount() != cap {
		t.Fatalf("%d scopes dropped, %d users tracked, want %d and %d", len(tier.dropped), p.UserCount(), cap, cap)
	}
	for n, i := range order {
		if tier.dropped[n] != name(i) {
			t.Fatalf("eviction %d took %s, want %s (least recently seen)", n, tier.dropped[n], name(i))
		}
	}

	// new0000..new0499 are now idle for over 500 s; the rest were seen since.
	tier.dropped = nil
	if got := p.PruneUsers(500 * time.Second); got != cap/2 || len(tier.dropped) != cap/2 {
		t.Fatalf("PruneUsers dropped %d users and %d scopes, want %d", got, len(tier.dropped), cap/2)
	}
	for n, scope := range tier.dropped {
		if scope != fmt.Sprintf("new%04d", n) {
			t.Fatalf("prune %d took %s, want new%04d", n, scope, n)
		}
	}
	if tier.locked {
		t.Fatal("DropScope ran with the user lock held")
	}
}
