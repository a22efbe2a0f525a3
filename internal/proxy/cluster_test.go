package proxy

// Cluster-mode integration tests: real listeners on loopback, real
// forwarding between instances, membership churn by killing a live server.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/cache"
	"appx/internal/cluster"
	"appx/internal/httpmsg"
	"appx/internal/sig"
)

// clusterNode is one live proxy instance serving on a loopback listener.
type clusterNode struct {
	addr string
	px   *Proxy
	srv  *http.Server
}

func (n *clusterNode) kill() {
	n.srv.Close()
	n.px.Close()
}

// startClusterNodes boots n proxies on loopback, all clustered over the
// same seed list. views[i], when non-nil, lists the instances that instance
// i's seed list names instead (divergent lists force divergent ownership
// views — the loop-prevention test wants exactly that pathology).
func startClusterNodes(t *testing.T, n int, graph func() *sig.Graph, up Upstream, views [][]int) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		peers := addrs
		if views != nil && views[i] != nil {
			peers = nil
			for _, j := range views[i] {
				peers = append(peers, addrs[j])
			}
		}
		px := New(Options{Graph: graph(), Upstream: up, Workers: 1,
			Cluster: cluster.Config{
				Self:          addrs[i],
				Peers:         peers,
				ProbeInterval: 20 * time.Millisecond,
				ProbeTimeout:  200 * time.Millisecond,
			}})
		srv := &http.Server{Handler: px}
		go srv.Serve(lns[i])
		nodes[i] = &clusterNode{addr: addrs[i], px: px, srv: srv}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.srv.Close()
			nd.px.Close()
		}
	})
	return nodes
}

// viaCluster builds a driver client that routes through the instance at
// addr as its forward proxy.
func viaCluster(addr string) *http.Client {
	return &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			Proxy:              http.ProxyURL(&url.URL{Scheme: "http", Host: addr}),
			DisableCompression: true,
		},
	}
}

// clusterGet issues one proxied request tagged with user, returning status
// and body.
func clusterGet(c *http.Client, user, rawurl string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, rawurl, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(userHeader, user)
	req.Header.Set("User-Agent", "") // keep canonical keys header-free
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// userOwnedBy searches for a user key that addrs[want] owns under a ring
// with the given membership.
func userOwnedBy(addrs []string, want int) string {
	r := cluster.NewRing()
	for _, a := range addrs {
		r.Add(a)
	}
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("user-%d", i)
		if r.Owner(k) == addrs[want] {
			return k
		}
	}
	return ""
}

func countingUpstream() (Upstream, *atomic.Int64) {
	var calls atomic.Int64
	up := UpstreamFunc(func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		calls.Add(1)
		if r.Path == "/list" {
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   []byte(`{"ids":["1","2","3","4"]}`)}, nil
		}
		return &httpmsg.Response{Status: 200, Body: []byte(`{"item":"payload"}`)}, nil
	})
	return up, &calls
}

// TestClusterForwardLoopPrevented gives the instances deliberately
// divergent ring views — A's seed list names only A and B, while B and C
// know all three — and picks a user A believes B owns and B believes C owns.
// Without the hop header the request would travel A→B→C; with it, B must
// serve the relayed request locally.
func TestClusterForwardLoopPrevented(t *testing.T) {
	up, calls := countingUpstream()
	nodes := startClusterNodes(t, 3, sharedGraph, up, [][]int{{0, 1}, nil, nil})
	addrs := []string{nodes[0].addr, nodes[1].addr, nodes[2].addr}

	// A user where ring{A,B} says B owns it and ring{A,B,C} says C owns it.
	var userKey string
	ringA, ringB := cluster.NewRing(), cluster.NewRing()
	for i, a := range addrs {
		if i < 2 {
			ringA.Add(a)
		}
		ringB.Add(a)
	}
	for i := 0; i < 200000; i++ {
		k := fmt.Sprintf("user-%d", i)
		if ringA.Owner(k) == addrs[1] && ringB.Owner(k) == addrs[2] {
			userKey = k
			break
		}
	}
	if userKey == "" {
		t.Fatal("no divergently-owned user key found")
	}

	status, body, err := clusterGet(viaCluster(addrs[0]), userKey, "http://h.example/item?id=9")
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || string(body) != `{"item":"payload"}` {
		t.Fatalf("relayed request: status=%d body=%q", status, body)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("origin fetched %d times, want exactly 1 (no second hop)", n)
	}
	a, b, c := nodes[0].px.ClusterStats(), nodes[1].px.ClusterStats(), nodes[2].px.ClusterStats()
	if a.Forwarded != 1 {
		t.Fatalf("A forwarded %d, want 1", a.Forwarded)
	}
	if b.ReceivedForwards != 1 {
		t.Fatalf("B received %d forwards, want 1", b.ReceivedForwards)
	}
	if b.Forwarded != 0 || c.ReceivedForwards != 0 {
		t.Fatalf("B re-forwarded a hopped request (B forwarded %d, C received %d) — loop prevention failed",
			b.Forwarded, c.ReceivedForwards)
	}
}

// TestClusterKillNoForegroundFailures kills an instance mid-load and
// requires that no foreground request through the survivor ever fails:
// forwards to the dead owner fall back to local serving, and the ring
// rebalances the dead instance away.
func TestClusterKillNoForegroundFailures(t *testing.T) {
	up, _ := countingUpstream()
	nodes := startClusterNodes(t, 2, sharedGraph, up, nil)
	addrs := []string{nodes[0].addr, nodes[1].addr}
	victimUser := userOwnedBy(addrs, 1)
	if victimUser == "" {
		t.Fatal("no user owned by instance B")
	}
	drive := viaCluster(addrs[0])
	get := func(phase string) {
		t.Helper()
		status, _, err := clusterGet(drive, victimUser, "http://h.example/item?id=1")
		if err != nil {
			t.Fatalf("%s: foreground request error: %v", phase, err)
		}
		if status >= 500 {
			t.Fatalf("%s: foreground request failed with %d", phase, status)
		}
	}

	for i := 0; i < 5; i++ {
		get("before kill")
	}
	if fwd := nodes[0].px.ClusterStats().Forwarded; fwd == 0 {
		t.Fatal("sanity: no requests were forwarded to the victim before the kill")
	}

	nodes[1].kill()
	// Immediately after the kill — before any probe notices — forwards fail
	// at the transport and must fall back to local serving.
	for i := 0; i < 10; i++ {
		get("after kill")
		time.Sleep(10 * time.Millisecond)
	}
	deadline := time.Now().Add(3 * time.Second)
	for nodes[0].px.ClusterStats().Rebalances == 0 {
		if time.Now().After(deadline) {
			t.Fatal("survivor never rebalanced the dead instance away")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Post-rebalance the survivor owns everything; requests stay local.
	for i := 0; i < 5; i++ {
		get("after rebalance")
	}
	st := nodes[0].px.ClusterStats()
	if st.ForwardFallbacks == 0 {
		t.Fatal("kill produced no forward fallbacks — the test never exercised the failure path")
	}
	if len(st.Members) != 1 {
		t.Fatalf("ring still has %d members after the kill, want 1", len(st.Members))
	}
}

// TestClusterPeerFill seeds one instance's shared tier and requires a
// sibling to answer its own miss from that entry — peer fill before origin
// — and to keep the entry locally so the next request is a plain hit.
func TestClusterPeerFill(t *testing.T) {
	up, calls := countingUpstream()
	nodes := startClusterNodes(t, 2, sharedGraph, up, nil)
	addrs := []string{nodes[0].addr, nodes[1].addr}

	// The canonical key of the driver's request as every instance computes
	// it (user and transport headers never reach the key).
	keyReq := &httpmsg.Request{Method: "GET", Host: "h.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "2"}}}
	key := keyReq.CanonicalKey()
	nodes[1].px.Cache().Put(cache.SharedScope, key, &cache.Entry{
		Resp:    &httpmsg.Response{Status: 200, Body: []byte(`{"item":"from-peer"}`)},
		SigID:   "t:item#0",
		Expires: time.Now().Add(time.Minute),
	})

	// Drive through A with a user A owns, so the request is served (not
	// relayed) and the shared-tier miss goes through peer fill.
	localUser := userOwnedBy(addrs, 0)
	status, body, err := clusterGet(viaCluster(addrs[0]), localUser, "http://h.example/item?id=2")
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || string(body) != `{"item":"from-peer"}` {
		t.Fatalf("peer-fill response: status=%d body=%q", status, body)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("peer fill hit the origin %d times, want 0", n)
	}
	st := nodes[0].px.ClusterStats()
	if st.PeerFill.Hits != 1 {
		t.Fatalf("peer-fill hits = %d, want 1", st.PeerFill.Hits)
	}

	// The fill warmed A's own shared tier: the same request again is a
	// local hit, no second peek.
	status, body, err = clusterGet(viaCluster(addrs[0]), localUser, "http://h.example/item?id=2")
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || string(body) != `{"item":"from-peer"}` {
		t.Fatalf("post-fill local hit: status=%d body=%q", status, body)
	}
	if got := nodes[0].px.ClusterStats().PeerFill.Attempts; got != st.PeerFill.Attempts {
		t.Fatalf("second request peeked peers again (attempts %d -> %d)", st.PeerFill.Attempts, got)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("local hit touched the origin (%d calls)", n)
	}
}
