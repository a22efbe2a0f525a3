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
	h := newHedgeState(false, reg, []string{"warm", "cold"})
	if d := h.delayFor("warm"); d != hedgeDelay {
		t.Fatalf("cold-start delay = %v, want static %v", d, hedgeDelay)
	}
	for i := 0; i < 2*hedgeMinSamples; i++ {
		h.observe("warm", 8*time.Millisecond)
	}
	d := h.delayFor("warm")
	if d >= hedgeDelay {
		t.Fatalf("adaptive delay = %v, want below static %v", d, hedgeDelay)
	}
	if d < hedgeDelayFloor {
		t.Fatalf("adaptive delay = %v broke the %v floor", d, hedgeDelayFloor)
	}
	if got := h.delayFor("cold"); got != hedgeDelay {
		t.Fatalf("unobserved peer delay = %v, want static", got)
	}

	// Microsecond-fast fills must floor, not hedge at loopback speed.
	fast := newHedgeState(false, obs.NewRegistry(), []string{"p"})
	for i := 0; i < 2*hedgeMinSamples; i++ {
		fast.observe("p", 100*time.Microsecond)
	}
	if d := fast.delayFor("p"); d < hedgeDelayFloor {
		t.Fatalf("floored delay = %v, want >= %v", d, hedgeDelayFloor)
	}
}

// TestHedgeLaunchCap: the token bucket admits burst-many hedges, then only
// what real time has refilled since.
func TestHedgeLaunchCap(t *testing.T) {
	h := newHedgeState(false, obs.NewRegistry(), nil)
	start := time.Now()
	admitted := 0
	for i := 0; i < 2*int(hedgeRate); i++ {
		if h.allow() {
			admitted++
		}
	}
	refilled := time.Since(start).Seconds() * hedgeRate
	if admitted < int(hedgeRate) || float64(admitted) > hedgeRate+refilled+1 {
		t.Fatalf("admitted %d of %d immediate hedges, want the %v burst plus %.2f refilled",
			admitted, 2*int(hedgeRate), hedgeRate, refilled)
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
		Graph:    sharedGraph(),
		Upstream: nil,
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
	e := p.clusterPeerFill(context.Background(), key, false)
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
	e := p.clusterPeerFill(context.Background(), key, false)
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

// TestPeerFillFollowsClientContext: a fill whose client has gone away asks
// no peer, and the fill holds no claim afterwards.
func TestPeerFillFollowsClientContext(t *testing.T) {
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if e := p.clusterPeerFill(ctx, "k", false); e != nil {
		t.Fatal("a canceled client context still filled")
	}
	if st := p.ClusterStats(); st.PeerFill.Hits != 0 {
		t.Fatalf("peer fill = %+v, want no hit", st.PeerFill)
	}
	if n := len(p.keys.snapshot()); n != 0 {
		t.Fatalf("key table holds %d keys after the fill, want 0", n)
	}
}
