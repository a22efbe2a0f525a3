package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/obs/adminv1"
)

// probeTarget is a fake peer: an httptest server answering /appx/v1/health,
// switchable between healthy and failing.
type probeTarget struct {
	srv  *httptest.Server
	fail atomic.Bool
}

func newProbeTarget(t *testing.T) *probeTarget {
	t.Helper()
	pt := &probeTarget{}
	pt.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != adminv1.PathHealth {
			http.NotFound(w, r)
			return
		}
		if pt.fail.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(pt.srv.Close)
	return pt
}

func (pt *probeTarget) addr() string { return strings.TrimPrefix(pt.srv.URL, "http://") }

// TestMembershipProbeTransitions drives the full lifecycle: optimistic
// start, failure detection after FailureThreshold consecutive misses, and
// rejoin after the breaker's open timeout admits a successful probe.
func TestMembershipProbeTransitions(t *testing.T) {
	peer := newProbeTarget(t)

	// A virtual clock stepped manually keeps the breaker's open-timeout
	// transitions deterministic.
	now := time.Unix(1_700_000_000, 0)
	cfg := Config{
		Self:             "127.0.0.1:1", // never dialed; only a ring name
		Peers:            []string{peer.addr()},
		ProbeInterval:    10 * time.Millisecond,
		ProbeTimeout:     time.Second,
		FailureThreshold: 3,
		Now:              func() time.Time { return now },
	}
	c := New(cfg)
	defer c.Close()

	changes := atomic.Int64{}
	c.OnChange(func() { changes.Add(1) })

	if got := len(c.Members()); got != 2 {
		t.Fatalf("optimistic ring has %d members, want 2", got)
	}

	// Healthy probes keep membership stable.
	c.ProbeOnce()
	if got := len(c.Members()); got != 2 {
		t.Fatalf("after healthy probe: %d members, want 2", got)
	}
	if changes.Load() != 0 {
		t.Fatalf("healthy probe fired OnChange")
	}

	// Three consecutive failures trip the breaker and shrink the ring.
	peer.fail.Store(true)
	for i := 0; i < 3; i++ {
		c.ProbeOnce()
		now = now.Add(time.Millisecond)
	}
	if got := len(c.Members()); got != 1 {
		t.Fatalf("after %d failed probes: %d members, want 1", 3, got)
	}
	if changes.Load() != 1 {
		t.Fatalf("death fired OnChange %d times, want 1", changes.Load())
	}
	st := c.Stats()
	if p := st.Peers[peer.addr()]; p.Alive || p.Breaker == "closed" {
		t.Fatalf("stats still report peer healthy: %+v", p)
	}

	// While the breaker is open, probes are skipped (paced) — no flapping.
	c.ProbeOnce()
	if got := len(c.Members()); got != 1 {
		t.Fatalf("open-breaker probe changed membership: %d members", got)
	}

	// Past the open timeout (2x probe interval) one half-open probe goes
	// through; a success closes the breaker and the peer rejoins.
	peer.fail.Store(false)
	now = now.Add(3 * cfg.ProbeInterval)
	c.ProbeOnce()
	if got := len(c.Members()); got != 2 {
		t.Fatalf("after recovery probe: %d members, want 2", got)
	}
	if changes.Load() != 2 {
		t.Fatalf("rejoin fired OnChange %d times total, want 2", changes.Load())
	}
}

// TestClusterOwnerAnonymous: requests with no user key stay local — there
// is no per-user state to pin anywhere.
func TestClusterOwnerAnonymous(t *testing.T) {
	c := New(Config{Self: "a:1", Peers: []string{"b:1"}})
	defer c.Close()
	if addr, self := c.Owner(""); !self || addr != "a:1" {
		t.Fatalf("anonymous Owner = (%s, %v), want self", addr, self)
	}
}

// TestFillPeersExcludesSelf: the sibling walk never peeks the asking
// instance and respects the replica bound.
func TestFillPeersExcludesSelf(t *testing.T) {
	c := New(Config{Self: "a:1", Peers: []string{"b:1", "c:1", "d:1"}})
	defer c.Close()
	for _, k := range []string{"k1", "k2", "k3", "k4", "k5"} {
		peers := c.FillPeers(k)
		if len(peers) > Replicas {
			t.Fatalf("FillPeers(%q) returned %d peers, replica bound is %d", k, len(peers), Replicas)
		}
		for _, p := range peers {
			if p == "a:1" {
				t.Fatalf("FillPeers(%q) includes self", k)
			}
		}
	}
}

// TestCloseCancelsInflightProbe: Close aborts a probe stuck on a hung peer
// instead of waiting out ProbeTimeout — the drain path must not block on
// dead network I/O.
func TestCloseCancelsInflightProbe(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold the probe open until the test ends
	}))
	// Unblock the handler before Server.Close waits on it (defers run LIFO).
	defer hung.Close()
	defer close(release)

	c := New(Config{
		Self:         "127.0.0.1:0",
		Peers:        []string{strings.TrimPrefix(hung.URL, "http://")},
		ProbeTimeout: 30 * time.Second, // cancellation, not timeout, must end the probe
	})
	probeDone := make(chan struct{})
	go func() {
		c.ProbeOnce()
		close(probeDone)
	}()
	time.Sleep(50 * time.Millisecond) // let the probe reach the hung handler

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	for _, ch := range []chan struct{}{closed, probeDone} {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not cancel the in-flight probe")
		}
	}
	select {
	case <-c.Context().Done():
	default:
		t.Fatal("cluster context not canceled after Close")
	}
}

// TestClusterDialHook: a Config.Dial hook sees every probe dial, letting
// fault injectors sit under the cluster's own clients.
func TestClusterDialHook(t *testing.T) {
	pt := newProbeTarget(t)
	var dials atomic.Int64
	c := New(Config{
		Self:  "127.0.0.1:0",
		Peers: []string{pt.addr()},
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
	})
	defer c.Close()
	c.ProbeOnce()
	if dials.Load() == 0 {
		t.Fatal("probe did not route through Config.Dial")
	}
}
