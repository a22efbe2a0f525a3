package proxy

// Proxy-level persistence tests: the acceptance criteria of the crash-safe
// persistence issue. A kill-and-restart on the same state directory must
// recover the cache hit ratio to at least 80% of the pre-kill steady state,
// and every corruption mode must degrade to a counted, logged cold start —
// never a panic.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/httpmsg"
	"appx/internal/persist"
	"appx/internal/sig"
)

// persistLabUpstream returns an upstream serving the sharedGraph workload and
// a counter of item fetches that reached the origin.
func persistLabUpstream() (UpstreamFunc, *atomic.Int64) {
	var itemCalls atomic.Int64
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/list" {
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   []byte(`{"ids":["1","2","3","4"]}`)}, nil
		}
		itemCalls.Add(1)
		return &httpmsg.Response{Status: 200, Body: []byte(`{"item":"payload"}`)}, nil
	})
	return up, &itemCalls
}

// trainAndWarm teaches the item exemplar, fans a list view out into shared
// prefetches, and waits until the entries are cached.
func trainAndWarm(t *testing.T, p *Proxy) {
	t.Helper()
	alice := &proxyTransport{p: p, user: "1.1.1.1"}
	if _, err := alice.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "0"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/list"}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
}

// replayItems requests ids 1..4 and reports how many were served without
// touching the origin.
func replayItems(t *testing.T, p *Proxy, user string, itemCalls *atomic.Int64) (hits, total int) {
	t.Helper()
	tr := &proxyTransport{p: p, user: user}
	for i := 1; i <= 4; i++ {
		before := itemCalls.Load()
		resp, err := tr.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
			Query: []httpmsg.Field{{Key: "id", Value: fmt.Sprint(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || string(resp.Body) != `{"item":"payload"}` {
			t.Fatalf("item %d served wrong response: %d %q", i, resp.Status, resp.Body)
		}
		total++
		if itemCalls.Load() == before {
			hits++
		}
	}
	return hits, total
}

// TestKillRestartRecoversHitRatio is the headline acceptance test: train a
// proxy, snapshot, kill it (no graceful close of the first instance's learned
// state — the snapshot and flushed spill queue are all the successor gets),
// boot a second proxy on the same state directory, and require the warm
// restart to recover at least 80% of the pre-kill steady-state hit ratio.
func TestKillRestartRecoversHitRatio(t *testing.T) {
	dir := t.TempDir()
	g := sharedGraph()
	up, itemCalls := persistLabUpstream()

	p1 := New(Options{Graph: g, Upstream: up, StateDir: dir})
	trainAndWarm(t, p1)

	// Pre-kill steady state.
	preHits, preTotal := replayItems(t, p1, "2.2.2.2", itemCalls)
	if preHits == 0 {
		t.Fatalf("no steady-state hits before kill (%d/%d)", preHits, preTotal)
	}

	// SIGKILL semantics: persist what a crash-safe deployment would have on
	// disk — the periodic snapshot and the write-behind spill backlog — then
	// abandon the instance. Close only reclaims goroutines for the test.
	if err := p1.SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	p1.DiskTier().Flush()
	p1.Close()

	p2 := New(Options{Graph: g, Upstream: up, StateDir: dir})
	defer p2.Close()
	if got := p2.RestoreOutcome(); got != RestoreWarm {
		t.Fatalf("restore outcome = %q (%s), want %q", got, p2.RestoreDetail(), RestoreWarm)
	}

	postHits, postTotal := replayItems(t, p2, "3.3.3.3", itemCalls)
	preRatio := float64(preHits) / float64(preTotal)
	postRatio := float64(postHits) / float64(postTotal)
	if postRatio < 0.8*preRatio {
		t.Fatalf("warm restart hit ratio %.2f < 80%% of pre-kill %.2f", postRatio, preRatio)
	}
	if hits := p2.DiskTier().Metrics().Hits; hits == 0 {
		t.Fatal("warm hits never touched the disk tier")
	}

	// The stats API reports the warm restore.
	ps := p2.statsV1().Persist
	if !ps.Enabled || ps.RestoreOutcome != RestoreWarm || ps.RestoreSource == "" {
		t.Fatalf("stats persist block = %+v, want enabled warm restore with a source", ps)
	}
}

// TestRestoredExemplarsPrefetchWithoutRetraining: the snapshot carries the
// learned exemplars, so a restarted proxy fans out prefetches for a user it
// has never re-observed — warmth beyond the disk tier.
func TestRestoredExemplarsPrefetchWithoutRetraining(t *testing.T) {
	dir := t.TempDir()
	g := sharedGraph()
	up, itemCalls := persistLabUpstream()

	p1 := New(Options{Graph: g, Upstream: up, StateDir: dir})
	trainAndWarm(t, p1)
	if err := p1.SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	p1.Close()

	// Drop the disk tier so only the snapshot's exemplars can produce hits.
	if err := os.RemoveAll(filepath.Join(dir, "cache")); err != nil {
		t.Fatal(err)
	}

	p2 := New(Options{Graph: g, Upstream: up, StateDir: dir})
	defer p2.Close()
	if got := p2.RestoreOutcome(); got != RestoreWarm {
		t.Fatalf("restore outcome = %q (%s), want %q", got, p2.RestoreDetail(), RestoreWarm)
	}

	// Alice's list view on the restarted proxy must fan out prefetches using
	// her restored exemplar — no fresh /item teaching request happened here.
	alice := &proxyTransport{p: p2, user: "1.1.1.1"}
	if _, err := alice.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/list"}); err != nil {
		t.Fatal(err)
	}
	p2.Drain()

	hits, total := replayItems(t, p2, "4.4.4.4", itemCalls)
	if hits != total {
		t.Fatalf("restored exemplar produced %d/%d hits, want all", hits, total)
	}
}

// TestParentSnapshotRestores: a snapshot written before the history model
// was deleted carries a "policy" section of per-user transition tables this
// version no longer reads. Decoding skips it, and everything else the
// snapshot holds — users, exemplars, samples, signature backoff — restores
// warm.
func TestParentSnapshotRestores(t *testing.T) {
	dir := t.TempDir()
	g := sharedGraph()
	up, _ := persistLabUpstream()
	now := time.Unix(1_700_000_000, 0)
	opts := Options{Graph: g, Upstream: up, StateDir: dir, Now: func() time.Time { return now }}

	p1 := New(opts)
	trainAndWarm(t, p1)
	p1.sigs.byID["t:item#0"].setBackoff(2, now.Add(time.Minute))
	want := p1.exportState()
	if len(want.Users) != 1 || len(want.Users[0].Exemplars) == 0 || len(want.Samples) == 0 || len(want.SigBackoff) == 0 {
		t.Fatalf("trained state lacks something to restore: %+v", want)
	}
	payload, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	p1.Close()

	// The section exactly as the older proxy wrote it.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(payload, &fields); err != nil {
		t.Fatal(err)
	}
	row := `{"from":"t:list#0","total":3,"at":"2023-11-14T22:13:20Z","to":[{"sig":"t:item#0","n":3}]}`
	fields["policy"] = json.RawMessage(`{"users":[{"key":"1.1.1.1","lastSig":"t:list#0",` +
		`"lastAt":"2023-11-14T22:13:20Z","lastSeen":"2023-11-14T22:13:20Z","rows":[` + row + `]}],"global":[` + row + `]}`)
	if payload, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, persist.SnapshotFile), persist.Encode(persist.MagicSnapshot, payload), 0o644); err != nil {
		t.Fatal(err)
	}

	p2 := New(opts)
	defer p2.Close()
	if got := p2.RestoreOutcome(); got != RestoreWarm {
		t.Fatalf("restore outcome = %q (%s), want %q", got, p2.RestoreDetail(), RestoreWarm)
	}
	// Restored users, exemplars, samples and backoff export exactly as
	// they were saved (the frozen clock keeps LastSeen and RemainingMs equal).
	got := p2.exportState()
	for _, part := range []struct {
		name      string
		got, want any
	}{
		{"users", got.Users, want.Users},
		{"samples", got.Samples, want.Samples},
		{"sigBackoff", got.SigBackoff, want.SigBackoff},
	} {
		g, _ := json.Marshal(part.got)
		w, _ := json.Marshal(part.want)
		if string(g) != string(w) {
			t.Fatalf("restored %s differ:\n got %s\nwant %s", part.name, g, w)
		}
	}
}

// TestCorruptSnapshotColdStart: with every snapshot rung corrupt, the proxy
// boots cold, counts the failure, purges the unvouched disk tier, and still
// serves traffic. No panic, no partial state.
func TestCorruptSnapshotColdStart(t *testing.T) {
	dir := t.TempDir()
	g := sharedGraph()
	up, _ := persistLabUpstream()

	p1 := New(Options{Graph: g, Upstream: up, StateDir: dir})
	trainAndWarm(t, p1)
	if err := p1.SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := p1.SnapshotNow(); err != nil { // rotates a .prev rung too
		t.Fatalf("snapshot: %v", err)
	}
	p1.DiskTier().Flush()
	p1.Close()

	for _, name := range []string{persist.SnapshotFile, persist.SnapshotPrevFile} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	p2 := New(Options{Graph: g, Upstream: up, StateDir: dir})
	defer p2.Close()
	if got := p2.RestoreOutcome(); got != RestoreFailed {
		t.Fatalf("restore outcome = %q, want %q", got, RestoreFailed)
	}
	if p2.RestoreFailures() == 0 {
		t.Fatal("failed restore was not counted")
	}
	if p2.RestoreDetail() == "" {
		t.Fatal("failed restore carries no detail")
	}
	// The spilled cache entries have no fingerprint to vouch for them once
	// the snapshot is gone; a cold start must not serve them.
	if n := p2.DiskTier().Metrics().Entries; n != 0 {
		t.Fatalf("disk tier kept %d entries after failed restore, want 0", n)
	}

	// Cold but alive: the proxy serves from origin.
	tr := &proxyTransport{p: p2, user: "5.5.5.5"}
	resp, err := tr.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "1"}}})
	if err != nil || resp.Status != 200 {
		t.Fatalf("cold proxy failed to serve: %v %+v", err, resp)
	}
}

// TestFingerprintMismatchColdStart: a snapshot taken under a different
// signature graph must not be applied — learned wildcards and dependencies
// are only meaningful against the graph that produced them.
func TestFingerprintMismatchColdStart(t *testing.T) {
	dir := t.TempDir()
	up, _ := persistLabUpstream()

	p1 := New(Options{Graph: sharedGraph(), Upstream: up, StateDir: dir})
	trainAndWarm(t, p1)
	if err := p1.SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	p1.DiskTier().Flush()
	p1.Close()

	// Same app, different build: one extra signature changes the fingerprint.
	g2 := sharedGraph()
	g2.Add(&sig.Signature{ID: "t:extra#0", Method: "GET", URI: sig.Literal("h.example/extra")})

	p2 := New(Options{Graph: g2, Upstream: up, StateDir: dir})
	defer p2.Close()
	if got := p2.RestoreOutcome(); got != RestoreFailed {
		t.Fatalf("restore outcome = %q, want %q", got, RestoreFailed)
	}
	if p2.RestoreFailures() == 0 {
		t.Fatal("fingerprint mismatch was not counted as a failed restore")
	}
	if n := p2.DiskTier().Metrics().Entries; n != 0 {
		t.Fatalf("disk tier kept %d entries across a graph change, want 0", n)
	}
}

// TestPersistDisabledStats: without a state directory the persist block
// reports disabled/zero series, and persistence accessors stay nil-safe.
func TestPersistDisabledStats(t *testing.T) {
	g := sharedGraph()
	up, _ := persistLabUpstream()
	p := New(Options{Graph: g, Upstream: up})
	defer p.Close()

	if got := p.RestoreOutcome(); got != RestoreDisabled {
		t.Fatalf("restore outcome = %q, want %q", got, RestoreDisabled)
	}
	if p.DiskTier() != nil {
		t.Fatal("disk tier present without a state dir")
	}
	if err := p.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow without persistence = %v, want nil", err)
	}
	ps := p.statsV1().Persist
	if ps.Enabled || ps.RestoreOutcome != RestoreDisabled || ps.SnapshotAgeMs != -1 {
		t.Fatalf("disabled persist block = %+v", ps)
	}
}
