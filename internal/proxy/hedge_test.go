package proxy

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"appx/internal/cache"
	"appx/internal/cluster"
	"appx/internal/obs"
	"appx/internal/obs/adminv1"
)

// TestHedgeDelayAdaptive: with enough observed fills, a peer's p90 replaces
// the static delay; a cold peer keeps the static one; the floor holds.
func TestHedgeDelayAdaptive(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHedgeState(Options{}, reg, []string{"warm", "cold"})
	if d := h.delayFor("warm"); d != defaultHedgeDelay {
		t.Fatalf("cold-start delay = %v, want static %v", d, defaultHedgeDelay)
	}
	for i := 0; i < 2*hedgeMinSamples; i++ {
		h.observe("warm", 8*time.Millisecond)
	}
	d := h.delayFor("warm")
	if d >= defaultHedgeDelay {
		t.Fatalf("adaptive delay = %v, want below static %v", d, defaultHedgeDelay)
	}
	if d < hedgeDelayFloor {
		t.Fatalf("adaptive delay = %v broke the %v floor", d, hedgeDelayFloor)
	}
	if got := h.delayFor("cold"); got != defaultHedgeDelay {
		t.Fatalf("unobserved peer delay = %v, want static", got)
	}

	// Microsecond-fast fills must floor, not hedge at loopback speed.
	fast := newHedgeState(Options{}, obs.NewRegistry(), []string{"p"})
	for i := 0; i < 2*hedgeMinSamples; i++ {
		fast.observe("p", 100*time.Microsecond)
	}
	if d := fast.delayFor("p"); d < hedgeDelayFloor {
		t.Fatalf("floored delay = %v, want >= %v", d, hedgeDelayFloor)
	}
}

// TestHedgeRateCap: the token bucket admits burst-many hedges, then refuses
// until real time refills it.
func TestHedgeRateCap(t *testing.T) {
	h := newHedgeState(Options{HedgeRateCap: 1}, obs.NewRegistry(), nil)
	if !h.allow() {
		t.Fatal("first hedge refused with a full bucket")
	}
	if h.allow() {
		t.Fatal("second immediate hedge admitted past cap 1/s")
	}
}

// fakePeer is a minimal cluster sibling: answers health (so probes keep it
// alive) and serves one canned shared-tier entry, optionally after a delay.
func fakePeer(t *testing.T, delay time.Duration, sigID string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case adminv1.PathHealth:
			w.Write([]byte(`{"status":"ok"}`))
		case adminv1.PathClusterEntry:
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-r.Context().Done():
					return
				}
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"sigId":%q,"status":200,"body":"aGk=","expiresInMs":60000}`, sigID)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// findKeyOrdered searches for a cache key whose fill order visits slow
// before fast on this proxy's ring.
func findKeyOrdered(p *Proxy, slow, fast string) string {
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("GET h.example/item?id=%d", i)
		peers := p.cluster.c.FillPeers(issueKey(cache.SharedScope, key))
		if len(peers) >= 2 && peers[0] == slow && peers[1] == fast {
			return key
		}
	}
	return ""
}

// TestHedgedPeekBeatsSlowPeer: the primary peek stalls past the hedge
// delay, the hedge to the next successor answers, and the fill returns the
// hedge's entry well before the slow peer would have.
func TestHedgedPeekBeatsSlowPeer(t *testing.T) {
	slow := fakePeer(t, 500*time.Millisecond, "t:item#0")
	fast := fakePeer(t, 0, "t:item#0")
	p := New(Options{
		Graph:      sharedGraph(),
		Upstream:   nil,
		HedgeDelay: 20 * time.Millisecond,
		Cluster: cluster.Config{
			Self:          "127.0.0.1:1", // never dialed: fills only peek peers
			Peers:         []string{slow, fast},
			ProbeInterval: time.Hour, // no background probes; optimistic aliveness
		},
	})
	t.Cleanup(p.Close)
	key := findKeyOrdered(p, slow, fast)
	if key == "" {
		t.Skip("no key ordered slow-first on this ring")
	}
	start := time.Now()
	e := p.clusterPeerFill(context.Background(), key, false, reqBudget{})
	elapsed := time.Since(start)
	if e == nil {
		t.Fatal("hedged fill returned no entry")
	}
	if elapsed > 300*time.Millisecond {
		t.Fatalf("fill took %v; hedge should beat the 500ms slow peer", elapsed)
	}
	st := p.ClusterStats()
	if st.Hedge.Launched == 0 || st.Hedge.Wins == 0 {
		t.Fatalf("hedge counters = %+v, want launched and won", st.Hedge)
	}
}

// TestHedgingDisabledWalksSequentially: with DisableHedging the fill waits
// out the slow primary before trying the next peer.
func TestHedgingDisabledWalksSequentially(t *testing.T) {
	slow := fakePeer(t, 250*time.Millisecond, "t:item#0")
	fast := fakePeer(t, 0, "t:item#0")
	p := New(Options{
		Graph:          sharedGraph(),
		DisableHedging: true,
		Cluster: cluster.Config{
			Self:          "127.0.0.1:1",
			Peers:         []string{slow, fast},
			ProbeInterval: time.Hour,
		},
	})
	t.Cleanup(p.Close)
	key := findKeyOrdered(p, slow, fast)
	if key == "" {
		t.Skip("no key ordered slow-first on this ring")
	}
	start := time.Now()
	e := p.clusterPeerFill(context.Background(), key, false, reqBudget{})
	elapsed := time.Since(start)
	if e == nil {
		t.Fatal("sequential fill returned no entry")
	}
	if elapsed < 200*time.Millisecond {
		t.Fatalf("fill took %v; without hedging it must wait out the slow primary", elapsed)
	}
	if st := p.ClusterStats(); st.Hedge.Launched != 0 {
		t.Fatalf("hedges launched with hedging disabled: %+v", st.Hedge)
	}
}

// TestPeerFillBudgetExhausted: an exhausted budget skips the peer race
// entirely and counts the skip.
func TestPeerFillBudgetExhausted(t *testing.T) {
	fast := fakePeer(t, 0, "t:item#0")
	p := New(Options{
		Graph: sharedGraph(),
		Cluster: cluster.Config{
			Self:          "127.0.0.1:1",
			Peers:         []string{fast},
			ProbeInterval: time.Hour,
		},
	})
	t.Cleanup(p.Close)
	spent := reqBudget{deadline: p.opts.Now().Add(-time.Second)}
	if e := p.clusterPeerFill(context.Background(), "k", false, spent); e != nil {
		t.Fatal("exhausted budget still filled")
	}
	if p.budget.exhausted.Load() == 0 {
		t.Fatal("exhausted skip not counted")
	}
}
