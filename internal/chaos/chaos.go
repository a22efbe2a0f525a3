// Package chaos is the seeded fault-schedule harness: it boots a real
// multi-instance cluster on loopback listeners, threads every inter-instance
// dial through a seeded netem injector (and every disk write through a
// seeded persist injector), replays a named schedule of faults against a
// deterministic workload, and checks a set of invariants that must hold no
// matter what the schedule did.
//
// The harness reuses the production wiring end to end — cluster.Config.Dial
// carries the injector into the probe, forward, and peer-fill transports, so
// a partitioned link degrades probes and relays exactly the way a real
// network cut would. Nothing in the data path is mocked.
package chaos

import (
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

	"appx/internal/cache"
	"appx/internal/cluster"
	"appx/internal/httpmsg"
	"appx/internal/netem"
	"appx/internal/obs"
	"appx/internal/persist"
	"appx/internal/proxy"
	"appx/internal/sig"
)

const (
	chaosCatalog   = 8    // assets fanned out of one feed response
	chaosAssetSize = 2000 // bytes per asset response

	probeInterval = 25 * time.Millisecond
	// probeTimeout is generous enough that a stalled-but-alive link (the
	// slowpeer schedule) keeps its probes green while its data path crawls:
	// the interesting regime where hedging matters is "slow", not "dead".
	probeTimeout = 500 * time.Millisecond
	// settleDelay is how long the harness waits after applying an event so
	// probes can notice the new link state before the next batch drives.
	settleDelay = 6 * probeInterval
)

// Options configures one chaos run.
type Options struct {
	// Instances is the fleet size (default 3).
	Instances int
	// Seed feeds the network injector, the disk injectors, and the workload
	// (default 42). A fixed seed reproduces the same fault pattern.
	Seed int64
	// Users is the number of driven user sessions per batch (default 6),
	// ring-spread so every instance owns a share.
	Users int
	// DisableHedging turns hedged peer reads off — the control arm of the
	// slow-peer comparison.
	DisableHedging bool
	// StateRoot, when non-empty, gives every instance a state directory
	// under it (persistence on). Schedules that inject disk faults or
	// restart instances require it.
	StateRoot string
}

func (o Options) withDefaults() Options {
	if o.Instances <= 0 {
		o.Instances = 3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Users <= 0 {
		o.Users = 6
	}
	return o
}

// chaosGraph is the feed→asset dependency graph the workload replays: one
// list request fanning out to the catalog, the same shape the cache and
// cluster sweeps use.
func chaosGraph() *sig.Graph {
	g := sig.NewGraph("chaos")
	pred := &sig.Signature{ID: "ch:feed#0", Method: "GET", URI: sig.Literal("app.example/feed")}
	succ := &sig.Signature{ID: "ch:asset#0", Method: "GET", URI: sig.Literal("app.example/asset"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(pred.ID, "ids[*]")}}}
	g.Add(pred)
	g.Add(succ)
	g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: succ.ID, RespPath: "ids[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	return g
}

// node is one live instance. Killed slots hold nil in Harness.nodes.
type node struct {
	addr string
	px   *proxy.Proxy
	srv  *http.Server
	dir  string
}

// Harness is the running fleet plus the injectors and driver tallies. It is
// driven single-threaded: schedules apply events and batches in sequence,
// which is what keeps a seeded run reproducible.
type Harness struct {
	opts Options
	inj  *netem.Injector
	// disk[i] is instance i's persist fault injector (nil without StateRoot).
	disk []*persist.Faults

	nodes  []*node
	addrs  []string
	origin atomic.Int64

	clients map[string]*http.Client
	rr      int

	requests, oks, sheds, failures int
	failureDetail                  []string
	latencies                      []time.Duration

	users []string
	// epoch versions the asset catalog: each batch rotates it so foreground
	// misses — and therefore peer-fill races — keep happening against the
	// faults instead of draining away once every instance is warm.
	epoch atomic.Int64
}

// assetID names asset j of the current catalog epoch.
func (h *Harness) assetID(j int) string {
	return fmt.Sprintf("e%d-a%d", h.epoch.Load(), j)
}

// link is the directed fault key for dials from instance i to instance j.
func (h *Harness) link(i, j int) string { return h.addrs[i] + "->" + h.addrs[j] }

func (h *Harness) upstream() proxy.UpstreamFunc {
	return func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		h.origin.Add(1)
		if r.Path == "/feed" {
			ids := make([]string, chaosCatalog)
			for i := range ids {
				ids[i] = h.assetID(i)
			}
			body, _ := json.Marshal(map[string]any{"ids": ids})
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   body}, nil
		}
		body := make([]byte, chaosAssetSize)
		for i := range body {
			body[i] = 'x'
		}
		return &httpmsg.Response{Status: 200, Body: body}, nil
	}
}

// start boots instance i on ln, with its dials routed through the injector
// under the directed "self->peer" key.
func (h *Harness) start(i int, ln net.Listener) {
	self := h.addrs[i]
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		return h.inj.DialContext(ctx, network, addr, self+"->"+addr)
	}
	opts := proxy.Options{
		Graph:          chaosGraph(),
		Upstream:       h.upstream(),
		Workers:        1,
		DisableHedging: h.opts.DisableHedging,
		Cluster: cluster.Config{
			Self:          self,
			Peers:         h.addrs,
			ProbeInterval: probeInterval,
			ProbeTimeout:  probeTimeout,
			Dial:          dial,
		},
	}
	if h.opts.StateRoot != "" {
		opts.StateDir = h.dirFor(i)
		opts.PersistFaults = h.disk[i]
		opts.SnapshotInterval = 150 * time.Millisecond
	}
	px := proxy.New(opts)
	srv := &http.Server{Handler: px}
	go srv.Serve(ln)
	h.nodes[i] = &node{addr: self, px: px, srv: srv, dir: opts.StateDir}
}

func (h *Harness) dirFor(i int) string {
	return fmt.Sprintf("%s/node%d", h.opts.StateRoot, i)
}

// newHarness boots the fleet and spreads the user population over the ring.
func newHarness(opts Options) (*Harness, error) {
	opts = opts.withDefaults()
	h := &Harness{
		opts:    opts,
		inj:     netem.NewInjector(opts.Seed),
		nodes:   make([]*node, opts.Instances),
		addrs:   make([]string, opts.Instances),
		clients: map[string]*http.Client{},
	}
	if opts.StateRoot != "" {
		h.disk = make([]*persist.Faults, opts.Instances)
		for i := range h.disk {
			h.disk[i] = persist.NewFaults(opts.Seed + int64(i))
		}
	}
	lns := make([]net.Listener, opts.Instances)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		h.addrs[i] = ln.Addr().String()
	}
	for i := range lns {
		h.start(i, lns[i])
	}
	for _, addr := range h.addrs {
		h.clients[addr] = &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				Proxy:              http.ProxyURL(&url.URL{Scheme: "http", Host: addr}),
				DisableCompression: true,
			},
		}
	}
	h.users = spreadUsers(h.addrs, opts.Users)
	return h, nil
}

// spreadUsers picks user names so user k is owned by addrs[k%n] — every
// instance owns a share of the workload whatever ephemeral ports it got.
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

func (h *Harness) close() {
	for i, n := range h.nodes {
		if n != nil {
			h.Kill(i)
		}
	}
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
}

// ---- fault events (called by schedules) ----

// Cut severs the link between instances i and j in both directions: future
// dials refuse, in-flight operations reset, pooled keep-alives die.
func (h *Harness) Cut(i, j int) {
	for _, k := range []string{h.link(i, j), h.link(j, i)} {
		h.inj.SetFault(k, netem.Partition())
		h.inj.Sever(k)
	}
}

// SlowLinksTo degrades every link INTO instance j: each I/O operation
// stalls, and writes slow-drip in small chunks. The instance stays alive
// and probed-healthy — only slow. This is the regime hedged reads exist for.
func (h *Harness) SlowLinksTo(j int, stall time.Duration) {
	for i := range h.addrs {
		if i == j {
			continue
		}
		h.inj.SetFault(h.link(i, j), netem.Fault{
			StallProb:  1,
			StallDelay: stall,
			DripBytes:  256,
			DripDelay:  2 * time.Millisecond,
		})
	}
}

// FlapLinksTo partitions (down=true) or heals (down=false) every link into
// instance j — the probe-flapping pathology where an instance oscillates
// between dead and alive in its peers' rings.
func (h *Harness) FlapLinksTo(j int, down bool) {
	for i := range h.addrs {
		if i == j {
			continue
		}
		if down {
			h.inj.SetFault(h.link(i, j), netem.Partition())
			h.inj.Sever(h.link(i, j))
		} else {
			h.inj.SetFault(h.link(i, j), netem.Fault{})
		}
	}
}

// Heal clears every link fault.
func (h *Harness) Heal() {
	for i := range h.addrs {
		for j := range h.addrs {
			if i != j {
				h.inj.SetFault(h.link(i, j), netem.Fault{})
			}
		}
	}
}

// DiskChaos sets every instance's disk-fault probabilities (no-op without
// persistence).
func (h *Harness) DiskChaos(torn, corrupt, writeErr float64) {
	for _, f := range h.disk {
		f.SetProbs(torn, corrupt, writeErr)
	}
}

// SnapshotAll forces an immediate snapshot on every live instance — under
// DiskChaos this is how torn and corrupt snapshots get onto disk mid-run.
func (h *Harness) SnapshotAll() {
	for _, n := range h.nodes {
		if n != nil {
			n.px.SnapshotNow()
		}
	}
}

// Kill hard-stops instance i: listener and proxy down, no drain.
func (h *Harness) Kill(i int) {
	n := h.nodes[i]
	h.nodes[i] = nil
	n.srv.Close()
	n.px.Close()
}

// Restart boots a fresh instance on the killed slot's address (and, with
// persistence, the same state directory — a warm restart).
func (h *Harness) Restart(i int) error {
	var ln net.Listener
	var err error
	for try := 0; try < 100; try++ {
		ln, err = net.Listen("tcp", h.addrs[i])
		if err == nil {
			h.start(i, ln)
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("chaos: rebind %s: %w", h.addrs[i], err)
}

// WaitMembers blocks until every live instance's ring has exactly want
// members, or the timeout passes.
func (h *Harness) WaitMembers(want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, n := range h.nodes {
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

// ---- workload driver ----

func (h *Harness) nextLive() *node {
	for try := 0; try < len(h.nodes); try++ {
		n := h.nodes[h.rr%len(h.nodes)]
		h.rr++
		if n != nil {
			return n
		}
	}
	return nil
}

// get issues one request for user through the next live instance. A
// transport error or a status >= 500 — except a shed (503 with Retry-After)
// — counts as a foreground failure: the instance is alive, it must serve.
func (h *Harness) get(user, path, id string) error {
	n := h.nextLive()
	if n == nil {
		return fmt.Errorf("chaos: no live instances")
	}
	return h.getNode(n, user, path, id)
}

// getVia issues one request through a specific instance (schedules that
// need a fill to start on a chosen node use this instead of round-robin).
func (h *Harness) getVia(i int, user, path, id string) error {
	n := h.nodes[i]
	if n == nil {
		return fmt.Errorf("chaos: instance %d is down", i)
	}
	return h.getNode(n, user, path, id)
}

func (h *Harness) getNode(n *node, user, path, id string) error {
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
	resp, err := h.clients[n.addr].Do(req)
	elapsed := time.Since(start)
	h.requests++
	if err != nil {
		h.failures++
		h.failureDetail = append(h.failureDetail, fmt.Sprintf("%s %s: %v", n.addr, path, err))
		return nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" {
			h.sheds++
		} else {
			h.failures++
			h.failureDetail = append(h.failureDetail, fmt.Sprintf("%s %s: status %d", n.addr, path, resp.StatusCode))
		}
		return nil
	}
	h.oks++
	h.latencies = append(h.latencies, elapsed)
	return nil
}

func (h *Harness) drainAll() {
	for _, n := range h.nodes {
		if n != nil {
			n.px.Drain()
		}
	}
}

// session drives one user through a feed open and the full catalog, draining
// prefetch queues so peer fills land before the assets are requested.
func (h *Harness) session(user string) error {
	if err := h.get(user, "/feed", ""); err != nil {
		return err
	}
	h.drainAll()
	for j := 0; j < chaosCatalog; j++ {
		if err := h.get(user, "/asset", h.assetID(j)); err != nil {
			return err
		}
	}
	h.drainAll()
	return nil
}

// driveBatch rotates the catalog epoch and runs every user's session once.
func (h *Harness) driveBatch() error {
	h.epoch.Add(1)
	for _, u := range h.users {
		if err := h.session(u); err != nil {
			return err
		}
	}
	return nil
}

// SeedAsset plants the current epoch's asset j directly into instance i's
// shared cache tier — the replicated-data precondition for a fill race
// where a hedge has somewhere useful to go.
func (h *Harness) SeedAsset(i, j int) {
	n := h.nodes[i]
	if n == nil {
		return
	}
	body := make([]byte, chaosAssetSize)
	for k := range body {
		body[k] = 'x'
	}
	keyReq := &httpmsg.Request{Method: "GET", Host: "app.example", Path: "/asset",
		Query: []httpmsg.Field{{Key: "id", Value: h.assetID(j)}}}
	n.px.Cache().Put(cache.SharedScope, keyReq.CanonicalKey(), &cache.Entry{
		Resp:    &httpmsg.Response{Status: 200, Body: body},
		SigID:   "ch:asset#0",
		Expires: time.Now().Add(time.Minute),
	})
}

// durQuantile is the nearest-rank quantile of the collected latencies in ms.
func durQuantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted))*q+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Nanoseconds()) / 1e6
}

// collect gathers per-node counters into the report while nodes are live.
func (h *Harness) collect(rep *Report) {
	for _, n := range h.nodes {
		if n == nil {
			continue
		}
		cs := n.px.ClusterStats()
		rep.Forwarded += cs.Forwarded
		rep.ForwardFallbacks += cs.ForwardFallbacks
		rep.PeerFillHits += cs.PeerFill.Hits
		rep.HedgesLaunched += cs.Hedge.Launched
		rep.HedgeWins += cs.Hedge.Wins
		rep.HedgesSuppressed += cs.Hedge.Suppressed
		rep.Rebalances += cs.Rebalances
		if p99 := n.px.FillLatencyQuantile(0.99); p99 > 0 {
			ms := float64(p99.Nanoseconds()) / 1e6
			if ms > rep.FillP99Ms {
				rep.FillP99Ms = ms
			}
		}
		if n.px.RestoreOutcome() == proxy.RestoreWarm {
			rep.WarmRestores++
		}
	}
	for _, f := range h.disk {
		st := f.Stats()
		rep.DiskFaultsInjected += st.Torn + st.Corrupted + st.Failed
	}
	rep.Requests = h.requests
	rep.OK = h.oks
	rep.Sheds = h.sheds
	rep.Failures = h.failures
	rep.Origin = h.origin.Load()
	rep.P50Ms = durQuantile(h.latencies, 0.50)
	rep.P99Ms = durQuantile(h.latencies, 0.99)
	if served := rep.Requests - rep.Sheds; served > 0 {
		rep.Availability = float64(rep.OK) / float64(served)
	}
}

// spans snapshots recent request spans from every live instance for the
// oracle's time-accounting check.
func (h *Harness) spans() []obs.SpanSnapshot {
	var out []obs.SpanSnapshot
	for _, n := range h.nodes {
		if n != nil {
			out = append(out, n.px.RecentSpans(256)...)
		}
	}
	return out
}

// forwardLoops sums detected relay loops across live instances.
func (h *Harness) forwardLoops() int64 {
	var total int64
	for _, n := range h.nodes {
		if n != nil {
			total += n.px.ClusterStats().ForwardLoops
		}
	}
	return total
}
