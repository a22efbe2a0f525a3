package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync/atomic"
	"time"

	"appx/internal/cluster"
	"appx/internal/httpmsg"
	"appx/internal/proxy"
)

// ClusterSweepRow is one instance-count point of the scale-out sweep: the
// same workload driven round-robin across a clustered fleet and across the
// same number of independent (uncoordinated) instances.
type ClusterSweepRow struct {
	Instances int
	// HitRatio is the fleet-aggregate cache hit ratio of the clustered run.
	HitRatio float64
	// PeerFillHits/Misses count the sibling-before-origin protocol's
	// outcomes across the fleet; Forwarded counts owner relays.
	PeerFillHits, PeerFillMisses, Forwarded int64
	// ClusterOrigin and IndepOrigin count origin requests under each
	// topology; OffloadPct = 1 - ClusterOrigin/IndepOrigin is the share of
	// origin traffic the cluster protocols removed.
	ClusterOrigin, IndepOrigin int64
	OffloadPct                 float64
	// LocalP95Ms / FwdP95Ms split client-observed p95 latency by whether
	// the request was relayed to its owner (the forwarding tax).
	LocalP95Ms, FwdP95Ms float64
}

// ClusterSweep is the users x instances grid plus a kill/join churn phase
// at the largest fleet size. ChurnFailures counts foreground requests that
// failed (status >= 500 other than a shed, or a transport error against a
// live instance) while an instance was killed and later rejoined — the
// acceptance bar is zero.
type ClusterSweep struct {
	Seed  int64
	Users int
	Rows  []ClusterSweepRow

	ChurnRequests   int
	ChurnFailures   int
	ChurnRebalances int64
}

const (
	clusterSweepUsers     = 6
	clusterSweepInstances = 3
)

// csNode is one live proxy instance of the emulated fleet.
type csNode struct {
	addr string
	px   *proxy.Proxy
	srv  *http.Server
}

// csFleet is a set of proxy instances sharing one origin, clustered or
// independent. Killed slots hold nil.
type csFleet struct {
	nodes  []*csNode
	addrs  []string
	origin atomic.Int64
}

// csUpstream serves the cachesweep catalog, counting origin requests.
func (f *csFleet) upstream() proxy.UpstreamFunc {
	return func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		f.origin.Add(1)
		if r.Path == "/feed" {
			ids := make([]string, cacheCatalog)
			for i := range ids {
				ids[i] = fmt.Sprintf("a%d", i)
			}
			body, _ := json.Marshal(map[string]any{"ids": ids})
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   body}, nil
		}
		return &httpmsg.Response{Status: 200, Body: bytes.Repeat([]byte("x"), cacheAssetSize)}, nil
	}
}

// start boots instance i on ln. Clustered instances probe fast so churn
// phases converge in tens of milliseconds.
func (f *csFleet) start(i int, ln net.Listener, clustered bool) {
	var cc cluster.Config
	if clustered {
		cc = cluster.Config{
			Self:          f.addrs[i],
			Peers:         f.addrs,
			ProbeInterval: 25 * time.Millisecond,
			ProbeTimeout:  250 * time.Millisecond,
		}
	}
	px := proxy.New(proxy.Options{Graph: cacheSweepGraph(), Upstream: f.upstream(),
		Workers: 1, Cluster: cc})
	srv := &http.Server{Handler: px}
	go srv.Serve(ln)
	f.nodes[i] = &csNode{addr: f.addrs[i], px: px, srv: srv}
}

func newCSFleet(n int, clustered bool) (*csFleet, error) {
	f := &csFleet{nodes: make([]*csNode, n), addrs: make([]string, n)}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		f.addrs[i] = ln.Addr().String()
	}
	for i := range lns {
		f.start(i, lns[i], clustered)
	}
	return f, nil
}

// kill hard-stops instance i: listener and proxy down, no drain — the
// crash case, not the graceful one.
func (f *csFleet) kill(i int) {
	f.nodes[i].srv.Close()
	f.nodes[i].px.Close()
	f.nodes[i] = nil
}

// rejoin boots a fresh instance on the killed slot's address (the listener
// port may need a moment to free).
func (f *csFleet) rejoin(i int, clustered bool) error {
	var ln net.Listener
	var err error
	for try := 0; try < 100; try++ {
		ln, err = net.Listen("tcp", f.addrs[i])
		if err == nil {
			f.start(i, ln, clustered)
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("clustersweep: rebind %s: %w", f.addrs[i], err)
}

func (f *csFleet) close() {
	for i, n := range f.nodes {
		if n != nil {
			f.kill(i)
		}
	}
}

// drainAll waits out every live instance's prefetch queue.
func (f *csFleet) drainAll() {
	for _, n := range f.nodes {
		if n != nil {
			n.px.Drain()
		}
	}
}

// waitMembers blocks until every live instance's ring has exactly want
// members (or the timeout passes; the caller's assertions then fail).
func (f *csFleet) waitMembers(want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, n := range f.nodes {
			if n != nil && len(n.px.ClusterStats().Members) != want {
				ok = false
			}
		}
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// csDriver plays the role of a dumb round-robin load balancer in front of
// the fleet: each request goes to the next live instance, with no
// affinity — the worst case cluster routing has to fix.
type csDriver struct {
	fleet    *csFleet
	clients  map[string]*http.Client
	rr       int
	requests int
	failures int
	localLat []time.Duration
	fwdLat   []time.Duration
}

func newCSDriver(f *csFleet) *csDriver {
	d := &csDriver{fleet: f, clients: map[string]*http.Client{}}
	for _, addr := range f.addrs {
		d.clients[addr] = &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				Proxy:              http.ProxyURL(&url.URL{Scheme: "http", Host: addr}),
				DisableCompression: true,
			},
		}
	}
	return d
}

func (d *csDriver) nextLive() *csNode {
	for try := 0; try < len(d.fleet.nodes); try++ {
		n := d.fleet.nodes[d.rr%len(d.fleet.nodes)]
		d.rr++
		if n != nil {
			return n
		}
	}
	return nil
}

// get issues one request for user through the next live instance. A status
// >= 500 — except a shed (503 + Retry-After) — or a transport error counts
// as a foreground failure: the instance is alive, it must serve.
func (d *csDriver) get(user, path, id string) error {
	n := d.nextLive()
	if n == nil {
		return fmt.Errorf("clustersweep: no live instances")
	}
	u := "http://app.example" + path
	if id != "" {
		u += "?id=" + id
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Appx-User", user)
	req.Header.Set("User-Agent", "") // keep canonical keys header-free
	start := time.Now()
	resp, err := d.clients[n.addr].Do(req)
	elapsed := time.Since(start)
	d.requests++
	if err != nil {
		d.failures++
		return nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		if !(resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "") {
			d.failures++
		}
		return nil
	}
	if resp.Header.Get("X-Appx-Cluster-Forwarded") != "" {
		d.fwdLat = append(d.fwdLat, elapsed)
	} else {
		d.localLat = append(d.localLat, elapsed)
	}
	return nil
}

// session drives one user through a feed open and the full catalog, with a
// fleet drain after the feed so the fan-out prefetch (and its peer fills)
// lands before the assets are requested.
func (d *csDriver) session(user string) error {
	if err := d.get(user, "/feed", ""); err != nil {
		return err
	}
	d.fleet.drainAll()
	for j := 0; j < cacheCatalog; j++ {
		if err := d.get(user, "/asset", fmt.Sprintf("a%d", j)); err != nil {
			return err
		}
	}
	d.fleet.drainAll()
	return nil
}

func durP95(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*95+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx].Nanoseconds()) / 1e6
}

// csResult is everything a grid point needs from one fleet run, collected
// before the fleet is torn down.
type csResult struct {
	origin                                  int64
	hits, misses                            int64
	peerFillHits, peerFillMisses, forwarded int64
	localLat, fwdLat                        []time.Duration
	failures                                int
}

// spreadUsers picks user names so that user k is owned by addrs[k%n] in
// the clustered ring — every instance owns a share of the workload no
// matter which ephemeral ports the fleet landed on. The independent
// baseline reuses the same names, so both topologies see the same load.
func spreadUsers(addrs []string, count int) []string {
	r := cluster.NewRing()
	for _, a := range addrs {
		r.Add(a)
	}
	out := make([]string, 0, count)
	next := 0
	for k := 0; k < count; k++ {
		want := addrs[k%len(addrs)]
		for ; ; next++ {
			name := fmt.Sprintf("u%d", next)
			if r.Owner(name) == want {
				out = append(out, name)
				next++
				break
			}
		}
	}
	return out
}

// drivePoint runs every user session against the fleet and collects the
// counters before the caller tears the fleet down.
func drivePoint(f *csFleet, users []string) (*csResult, error) {
	d := newCSDriver(f)
	// One live asset request teaches the first exemplar (the cachesweep
	// seeding idiom); later users' exemplars ride their own first miss.
	if err := d.get(users[0], "/asset", "seed"); err != nil {
		return nil, err
	}
	for _, u := range users {
		if err := d.session(u); err != nil {
			return nil, err
		}
	}
	res := &csResult{
		origin:   f.origin.Load(),
		localLat: d.localLat,
		fwdLat:   d.fwdLat,
		failures: d.failures,
	}
	for _, nd := range f.nodes {
		if nd == nil {
			continue
		}
		snap := nd.px.Stats().Snapshot()
		res.hits += int64(snap.Hits)
		res.misses += int64(snap.Misses)
		cs := nd.px.ClusterStats()
		res.peerFillHits += cs.PeerFill.Hits
		res.peerFillMisses += cs.PeerFill.Misses
		res.forwarded += cs.Forwarded
	}
	return res, nil
}

// RunClusterSweep runs the grid: 1..3 instances, clustered vs independent,
// then the kill/join churn phase on a fresh 3-instance clustered fleet.
func RunClusterSweep(seed int64) (*ClusterSweep, error) {
	if seed == 0 {
		seed = 42
	}
	out := &ClusterSweep{Seed: seed, Users: clusterSweepUsers}

	for n := 1; n <= clusterSweepInstances; n++ {
		fc, err := newCSFleet(n, true)
		if err != nil {
			return nil, err
		}
		users := spreadUsers(fc.addrs, clusterSweepUsers)
		rc, err := drivePoint(fc, users)
		fc.close()
		if err != nil {
			return nil, fmt.Errorf("clustersweep@%d clustered: %w", n, err)
		}
		fi, err := newCSFleet(n, false)
		if err != nil {
			return nil, err
		}
		ri, err := drivePoint(fi, users)
		fi.close()
		if err != nil {
			return nil, fmt.Errorf("clustersweep@%d independent: %w", n, err)
		}
		if rc.failures > 0 || ri.failures > 0 {
			return nil, fmt.Errorf("clustersweep@%d: steady-state failures (cluster %d, indep %d)", n, rc.failures, ri.failures)
		}
		row := ClusterSweepRow{
			Instances:      n,
			ClusterOrigin:  rc.origin,
			IndepOrigin:    ri.origin,
			PeerFillHits:   rc.peerFillHits,
			PeerFillMisses: rc.peerFillMisses,
			Forwarded:      rc.forwarded,
			LocalP95Ms:     durP95(rc.localLat),
			FwdP95Ms:       durP95(rc.fwdLat),
		}
		if rc.hits+rc.misses > 0 {
			row.HitRatio = float64(rc.hits) / float64(rc.hits+rc.misses)
		}
		if row.IndepOrigin > 0 {
			row.OffloadPct = 1 - float64(row.ClusterOrigin)/float64(row.IndepOrigin)
		}
		out.Rows = append(out.Rows, row)
	}

	if err := out.runChurn(); err != nil {
		return nil, err
	}
	return out, nil
}

// runChurn kills instance 2 of a 3-instance fleet mid-load, keeps driving
// through the survivors, waits for the rebalance, rejoins the instance on
// the same address, and counts foreground failures across all of it.
func (c *ClusterSweep) runChurn() error {
	f, err := newCSFleet(clusterSweepInstances, true)
	if err != nil {
		return err
	}
	defer f.close()
	// Three batches of users spread over the three instances: one driven
	// before the kill, one during the outage, one after the rejoin. The
	// spread guarantees each batch contains users owned by the victim.
	users := spreadUsers(f.addrs, 3*(clusterSweepUsers/2))
	d := newCSDriver(f)
	if err := d.get(users[0], "/asset", "seed"); err != nil {
		return err
	}
	batch := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := d.session(users[i]); err != nil {
				return err
			}
		}
		return nil
	}
	third := clusterSweepUsers / 2
	if err := batch(0, third); err != nil {
		return err
	}
	f.kill(clusterSweepInstances - 1)
	// Survivors keep serving while probes discover the death; forwards to
	// the dead owner fall back to local serving.
	if err := batch(third, 2*third); err != nil {
		return err
	}
	if !f.waitMembers(clusterSweepInstances-1, 3*time.Second) {
		return fmt.Errorf("clustersweep churn: fleet never converged after the kill")
	}
	if err := f.rejoin(clusterSweepInstances-1, true); err != nil {
		return err
	}
	if !f.waitMembers(clusterSweepInstances, 3*time.Second) {
		return fmt.Errorf("clustersweep churn: fleet never re-admitted the rejoined instance")
	}
	if err := batch(2*third, 3*third); err != nil {
		return err
	}
	c.ChurnRequests = d.requests
	c.ChurnFailures = d.failures
	for _, n := range f.nodes {
		if n != nil {
			c.ChurnRebalances += n.px.ClusterStats().Rebalances
		}
	}
	return nil
}

// Render formats the sweep and the churn verdict.
func (c *ClusterSweep) Render() string {
	rows := make([][]string, 0, len(c.Rows))
	for _, r := range c.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Instances),
			fmtPct(r.HitRatio),
			fmt.Sprintf("%d/%d", r.PeerFillHits, r.PeerFillHits+r.PeerFillMisses),
			fmt.Sprintf("%d", r.Forwarded),
			fmt.Sprintf("%d", r.ClusterOrigin),
			fmt.Sprintf("%d", r.IndepOrigin),
			fmtPct(r.OffloadPct),
			fmt.Sprintf("%.2f", r.LocalP95Ms),
			fmt.Sprintf("%.2f", r.FwdP95Ms),
		})
	}
	head := fmt.Sprintf(
		"Cluster sweep (seed %d): %d users round-robin across N instances, clustered vs independent\n"+
			"churn (kill+rejoin at %d instances): %d requests, %d foreground failures, %d rebalances\n",
		c.Seed, c.Users, clusterSweepInstances, c.ChurnRequests, c.ChurnFailures, c.ChurnRebalances)
	return head + table(
		[]string{"instances", "hit ratio", "peer fills", "forwarded", "cluster origin", "indep origin", "offload", "local p95 ms", "fwd p95 ms"},
		rows)
}
