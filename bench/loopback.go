package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// sizes are the workload dimensions; short shrinks them for the smoke test.
type sizes struct {
	hitUsers, hitKeys int
	fanUsers, filler  int
	assets            int
	replayApps        int
	replayUsers       int
}

func fullSizes() sizes {
	return sizes{hitUsers: 64, hitKeys: 32, fanUsers: 16, filler: 497, assets: 8, replayApps: 5, replayUsers: 6}
}

func shortSizes() sizes {
	return sizes{hitUsers: 4, hitKeys: 8, fanUsers: 4, filler: 40, assets: 2, replayApps: 1, replayUsers: 2}
}

// loopRun is one set-up loopback workload: a booted stack whose state the
// set-up left as the timed phases need it, and the generators that drive it.
type loopRun struct {
	sys *system
	// gen returns the request generator of one phase. Closed-loop generators
	// may make clients wait for each other (stream_large's shared key); an
	// open-loop generator never blocks, its schedule decides.
	gen func(seed int64, closed bool) genFunc
	// fresh returns the i-th request of the workload's miss kind on a key no
	// phase has used, for the direct-ServeHTTP miss probe.
	fresh func(i int) request
	// check is the workload's validity gate over the timed phases' counters.
	check func(before, after counters) error
}

// loopSpec names a loopback workload and freezes its open-loop settings. They
// are here and not in BENCHMARK.json because the driver's contract fixes that
// file's keys.
type loopSpec struct {
	name string
	// openRate is the open-loop phase's total request rate: about half the
	// closed-loop rps measured on the seed commit, rounded to two digits. 0:
	// the workload is closed loop only.
	openRate float64
	// openLimitUs is the open-loop latency limit, 5 × the seed commit's
	// open_p50_us; loadgen.over_limit_frac is the share of requests over it.
	openLimitUs float64
	// account is the closed-loop request count at which data_usage_x is read
	// (a few seconds in on the seed commit); a run that never gets there
	// reads it at the end of the phase.
	account int64
	setup   func(seed int64, sz sizes) (*loopRun, error)
}

var loopSpecs = []loopSpec{
	{name: "hit_small", openRate: 10000, openLimitUs: 1200, account: 100000, setup: setupHitSmall},
	{name: "learn_fanout", openRate: 1400, openLimitUs: 5000, account: 15000, setup: setupLearnFanout},
	{name: "stream_large", account: 6000, setup: setupStreamLarge},
}

// teach sends rq on cl during set-up and insists on the origin's bytes.
func (s *system) teach(cl *client, rq request, scratch *[]byte) error {
	status, body, _, err := cl.do(&rq)
	if err != nil {
		return fmt.Errorf("set-up %s/%s: %w", rq.kind, rq.id, err)
	}
	if !s.verify(&rq, status, body, scratch) {
		return fmt.Errorf("set-up %s/%s: status %d, %d bytes: not what the origin sends", rq.kind, rq.id, status, len(body))
	}
	s.setupBytes += int64(len(body))
	if queryKind(rq.kind) {
		// The set-up's last predecessor exchange joins the probes' sample: on
		// hit_small and stream_large the timed phases never fetch one.
		s.setupList = &probeTxn{req: rq.proxyRequest(), body: append([]byte(nil), body...)}
	}
	return nil
}

func userName(prefix string, i int) string { return prefix + strconv.Itoa(i) }

// setupHitSmall boots list → item, teaches every user's item exemplar, lets
// one list per user prefetch the user's keys, and warms every key once.
func setupHitSmall(seed int64, sz sizes) (*loopRun, error) {
	sys, err := bootSystem(systemOptions{seed: seed, graph: chainGraph("hit_small", false, 0), listFan: sz.hitKeys})
	if err != nil {
		return nil, err
	}
	cl, err := newClient(sys.rawAddr, nil)
	if err != nil {
		sys.close()
		return nil, err
	}
	defer cl.close()
	users := make([]string, sz.hitUsers)
	ids := make([][]string, sz.hitUsers)
	var scratch []byte
	for u := range users {
		users[u] = userName("u", u)
		ids[u] = make([]string, sz.hitKeys)
		for k := range ids[u] {
			ids[u][k] = users[u] + "." + strconv.Itoa(k)
		}
		for _, rq := range []request{
			{user: users[u], device: users[u], kind: "item", id: users[u] + ".exemplar"},
			{user: users[u], device: users[u], kind: "list", id: users[u]},
		} {
			if err := sys.teach(cl, rq, &scratch); err != nil {
				sys.close()
				return nil, err
			}
		}
	}
	if err := sys.awaitPrefetches(sz.hitUsers * sz.hitKeys); err != nil {
		sys.close()
		return nil, err
	}
	before := readCounters(sys.px, sys.graph)
	for u := range users {
		for _, id := range ids[u] {
			if err := sys.teach(cl, request{user: users[u], device: users[u], kind: "item", id: id}, &scratch); err != nil {
				sys.close()
				return nil, err
			}
		}
	}
	want := float64(sz.hitUsers * sz.hitKeys)
	if got := readCounters(sys.px, sys.graph).outcome("prefetch-hit") - before.outcome("prefetch-hit"); got != want {
		sys.close()
		return nil, fmt.Errorf("hit_small: cache fill incomplete: %.0f of %.0f warm-up requests were prefetch hits", got, want)
	}
	n := nClients()
	run := &loopRun{sys: sys}
	run.gen = func(seed int64, closed bool) genFunc {
		rngs := make([]*rand.Rand, n)
		for c := range rngs {
			rngs[c] = rand.New(rand.NewSource(seed + int64(c)))
		}
		return func(c, seq int, rq *request) {
			// Client c owns users c, c+n, ...: no two connections share a user.
			u := c + n*rngs[c].Intn((sz.hitUsers-c+n-1)/n)
			*rq = request{user: users[u], device: users[u], kind: "item", id: ids[u][rngs[c].Intn(sz.hitKeys)]}
		}
	}
	run.fresh = func(i int) request {
		u := users[i%len(users)]
		return request{user: u, device: u, kind: "item", id: u + ".fresh" + strconv.Itoa(i)}
	}
	run.check = func(before, after counters) error {
		total := after.requests() - before.requests()
		hits := after.outcome("prefetch-hit") - before.outcome("prefetch-hit")
		if total == 0 || hits < 0.99*total {
			return fmt.Errorf("hit_small: %.0f of %.0f spans ended prefetch-hit, want at least 99%%", hits, total)
		}
		return nil
	}
	return run, nil
}

const (
	fanList  = 8 // items per list
	fanTaken = 4 // items of the previous round a client then requests
	// fanEntryCap is the per-user cache entry cap: a round prefetches
	// fanList·(1+detailFan) = 24 entries, so the cap holds under three rounds
	// and every round evicts.
	fanEntryCap = 64
)

// setupLearnFanout boots the 500-signature graph, teaches each user's item
// and detail exemplars and plays one round per user so the first timed
// iteration has a previous round to read.
func setupLearnFanout(seed int64, sz sizes) (*loopRun, error) {
	sys, err := bootSystem(systemOptions{seed: seed, graph: chainGraph("learn_fanout", true, sz.filler),
		listFan: fanList, maxEntriesPerUser: fanEntryCap})
	if err != nil {
		return nil, err
	}
	cl, err := newClient(sys.rawAddr, nil)
	if err != nil {
		sys.close()
		return nil, err
	}
	defer cl.close()
	users := make([]string, sz.fanUsers)
	var scratch []byte
	for u := range users {
		users[u] = userName("f", u)
		for _, rq := range []request{
			{user: users[u], device: users[u], kind: "item", id: users[u] + ".exemplar"},
			{user: users[u], device: users[u], kind: "detail", id: users[u] + ".exemplar"},
			{user: users[u], device: users[u], kind: "list", id: users[u] + "-0"},
		} {
			if err := sys.teach(cl, rq, &scratch); err != nil {
				sys.close()
				return nil, err
			}
		}
	}
	if err := sys.awaitPrefetches(sz.fanUsers * fanList * (1 + detailFan)); err != nil {
		sys.close()
		return nil, err
	}

	n := nClients()
	// round[u] is the user's last fetched round; it persists across phases so
	// every list key of a run is fresh. Only the user's own client touches it.
	round := make([]int, sz.fanUsers)
	visit := make([]int, n)
	cur := make([]int, n)
	picks := make([][fanTaken]int, n)
	run := &loopRun{sys: sys}
	run.gen = func(seed int64, closed bool) genFunc {
		rngs := make([]*rand.Rand, n)
		for c := range rngs {
			rngs[c] = rand.New(rand.NewSource(seed + int64(c)))
		}
		mine := (sz.fanUsers + n - 1) / n
		return func(c, seq int, rq *request) {
			step := seq % (1 + fanTaken)
			if step == 0 {
				// A new iteration: the client's next user fetches a fresh list.
				u := c + n*(visit[c]%mine)
				if u >= sz.fanUsers {
					u = c
				}
				visit[c]++
				cur[c] = u
				round[u]++
				perm := rngs[c].Perm(fanList)
				copy(picks[c][:], perm)
				*rq = request{user: users[u], device: users[u], kind: "list",
					id: users[u] + "-" + strconv.Itoa(round[u])}
				return
			}
			// Then fanTaken of the items its previous list named.
			u := cur[c]
			*rq = request{user: users[u], device: users[u], kind: "item",
				id: users[u] + "-" + strconv.Itoa(round[u]-1) + "." + strconv.Itoa(picks[c][step-1])}
		}
	}
	run.fresh = func(i int) request {
		u := users[i%len(users)]
		return request{user: u, device: u, kind: "list", id: u + "-fresh" + strconv.Itoa(i)}
	}
	run.check = func(before, after counters) error {
		if ev := after.cache.Evictions.ScopeEntries - before.cache.Evictions.ScopeEntries; ev == 0 {
			return fmt.Errorf("learn_fanout: no per-user entry-cap eviction ran")
		}
		total := after.requests() - before.requests()
		served := after.outcome("prefetch-hit") + after.outcome("attach-hit") - before.outcome("prefetch-hit") - before.outcome("attach-hit")
		if served < 0.25*total {
			return fmt.Errorf("learn_fanout: %.0f of %.0f spans ended prefetch-hit or attach-hit, want at least 25%% (items are 80%% of requests)", served, total)
		}
		return nil
	}
	return run, nil
}

// rendezvous lets the closed-loop clients of stream_large issue their
// shared-key request together, so one becomes the fetch's owner and the rest
// attach to it.
type rendezvous struct {
	mu      sync.Mutex
	n       int
	waiting int
	release chan struct{}
}

func newRendezvous(n int) *rendezvous { return &rendezvous{n: n, release: make(chan struct{})} }

// wait returns when all n clients have arrived, or after max (a client that
// left the phase must not strand the others).
func (r *rendezvous) wait(max time.Duration) {
	r.mu.Lock()
	ch := r.release
	r.waiting++
	if r.waiting == r.n {
		r.waiting = 0
		r.release = make(chan struct{})
		r.mu.Unlock()
		close(ch)
		return
	}
	r.mu.Unlock()
	t := time.NewTimer(max)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
		r.mu.Lock()
		if r.release == ch {
			r.waiting--
		}
		r.mu.Unlock()
	}
}

const rangeBytes = 64 << 10

// setupStreamLarge boots blob + catalog → asset, has one catalog prefetch
// sz.assets whole assets into the shared tier, and warms each request kind.
func setupStreamLarge(seed int64, sz sizes) (*loopRun, error) {
	sys, err := bootSystem(systemOptions{seed: seed, graph: streamGraph("stream_large"), listFan: sz.assets})
	if err != nil {
		return nil, err
	}
	cl, err := newClient(sys.rawAddr, nil)
	if err != nil {
		sys.close()
		return nil, err
	}
	defer cl.close()
	n := nClients()
	users := make([]string, n)
	for c := range users {
		users[c] = userName("s", c)
	}
	var scratch []byte
	for _, rq := range []request{
		{user: users[0], kind: "asset", id: "exemplar"},
		{user: users[0], kind: "catalog", id: "fill"},
	} {
		if err := sys.teach(cl, rq, &scratch); err != nil {
			sys.close()
			return nil, err
		}
	}
	if err := sys.awaitPrefetches(sz.assets); err != nil {
		sys.close()
		return nil, err
	}
	assets := make([]string, sz.assets)
	before := readCounters(sys.px, sys.graph)
	for i := range assets {
		assets[i] = "fill." + strconv.Itoa(i)
		for _, rq := range []request{
			{user: users[i%n], kind: "asset", id: assets[i], rangeOff: rangeBytes, rangeLen: rangeBytes},
			{user: users[i%n], kind: "blob", id: "warm-" + strconv.Itoa(i)},
		} {
			if err := sys.teach(cl, rq, &scratch); err != nil {
				sys.close()
				return nil, err
			}
		}
	}
	if got := readCounters(sys.px, sys.graph).outcome("prefetch-hit") - before.outcome("prefetch-hit"); got != float64(sz.assets) {
		sys.close()
		return nil, fmt.Errorf("stream_large: cache fill incomplete: %.0f of %d asset ranges were prefetch hits", got, sz.assets)
	}

	// The rotation of the three kinds is fixed per run by the seed and is the
	// same on every client, so the shared-key requests line up.
	order := rand.New(rand.NewSource(seed)).Perm(3)
	own := make([]int, n)    // per-client count of fresh-key requests
	shared := make([]int, n) // per-client count of shared-key requests
	phaseNo := 0
	run := &loopRun{sys: sys}
	run.gen = func(seed int64, closed bool) genFunc {
		phaseNo++
		tag := "p" + strconv.Itoa(phaseNo) + "-"
		for c := range shared {
			shared[c] = 0
		}
		meet := newRendezvous(n)
		rngs := make([]*rand.Rand, n)
		for c := range rngs {
			rngs[c] = rand.New(rand.NewSource(seed + int64(c)))
		}
		// Only the streamed misses count toward ttfb_p50_us: an attacher's or a
		// cached range's first byte waits for something else, and the three
		// mixed have no stable median.
		return func(c, seq int, rq *request) {
			switch order[seq%3] {
			case 0: // a key nobody has asked for: a streamed miss
				own[c]++
				*rq = request{user: users[c], kind: "blob", id: "c" + strconv.Itoa(c) + "-" + strconv.Itoa(own[c])}
			case 1: // the same uncached key from every client at once
				shared[c]++
				*rq = request{user: users[c], kind: "asset", id: tag + strconv.Itoa(shared[c]), noTTFB: true}
				if closed {
					meet.wait(20 * time.Millisecond)
				}
			default: // a 64 KiB range of an entity the set-up cached
				*rq = request{user: users[c], kind: "asset", id: assets[rngs[c].Intn(len(assets))],
					rangeOff: rangeBytes * (1 + rngs[c].Intn(blobBytes/rangeBytes-1)), rangeLen: rangeBytes, noTTFB: true}
			}
		}
	}
	run.fresh = func(i int) request {
		return request{user: users[0], kind: "blob", id: "fresh" + strconv.Itoa(i)}
	}
	run.check = func(before, after counters) error {
		if shed := after.outcome("shed") - before.outcome("shed"); shed != 0 {
			return fmt.Errorf("stream_large: %.0f requests were shed, want 0", shed)
		}
		if out := sys.px.ChunkPool().Outstanding(); out != 0 {
			return fmt.Errorf("stream_large: %d pooled chunks still checked out with the proxy idle, want 0", out)
		}
		if n > 1 {
			if att := after.outcome("attach-hit") - before.outcome("attach-hit"); att == 0 {
				return fmt.Errorf("stream_large: no request attached to an in-flight fetch")
			}
		}
		return nil
	}
	return run, nil
}
