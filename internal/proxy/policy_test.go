package proxy

// Tests for the prefetch fan-out rule: it must be differentially identical
// to the pre-policy inline chain logic (same candidates prefetched, same
// order), and dropped candidates must be counted by reason.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/proxy/sched"
	"appx/internal/sig"
)

// branchHost spreads the star's branches over three origin hosts, so a
// breaker can be open for some of them.
func branchHost(b int) string { return fmt.Sprintf("h%d.example", b%3) }

func branchID(b int) string { return fmt.Sprintf("st:b%d#0", b) }

// starGraph builds home → K branches, inserting the dependency edges in
// the given branch order (the order the pre-policy fan-out walked).
func starGraph(order []int) *sig.Graph {
	g := sig.NewGraph("star")
	home := &sig.Signature{ID: "st:home#0", Method: "GET", URI: sig.Literal("h.example/home")}
	g.Add(home)
	for _, b := range order {
		s := &sig.Signature{ID: branchID(b), Method: "GET",
			URI:   sig.Literal(fmt.Sprintf("%s/b%d", branchHost(b), b)),
			Query: []sig.Field{{Key: "tok", Value: sig.DepValue(home.ID, "tok")}}}
		g.Add(s)
		g.AddDep(sig.Dependency{PredID: home.ID, SuccID: s.ID, RespPath: "tok",
			Loc: sig.FieldLoc{Where: "query", Key: "tok"}})
	}
	return g
}

// starUpstream serves the star app and records the branch paths it is
// asked for, in arrival order.
func starUpstream() (UpstreamFunc, func() []string, func()) {
	var mu sync.Mutex
	var fetched []string
	up := UpstreamFunc(func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/home" {
			return homeResponse(), nil
		}
		mu.Lock()
		fetched = append(fetched, r.Path)
		mu.Unlock()
		return &httpmsg.Response{Status: 200, Body: []byte("branch")}, nil
	})
	list := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), fetched...)
	}
	reset := func() {
		mu.Lock()
		defer mu.Unlock()
		fetched = nil
	}
	return up, list, reset
}

func homeResponse() *httpmsg.Response {
	return &httpmsg.Response{Status: 200,
		Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
		Body:   []byte(`{"tok":"v1"}`)}
}

// refGates is the differential reference for the prefetch decision sequence
// as it stood before the policy/gate split: policy.Hooks.decide — with the
// governor it also consulted fixed at level 1 and not shedding — followed by
// maybePrefetch's reading of its verdict. Written independently of
// Proxy.mayIssue so the test pins the behaviour, not the implementation.
type refGates struct {
	suspended  map[string]bool
	hostDown   map[string]bool
	overBudget bool
	rand       func() float64
}

// keep is the fan-out half: the chain-depth ceiling.
func (r *refGates) keep(depth int) bool { return !(depth > 0 && depth > maxChainDepth) }

// issue is the issue-time half. decide evaluated its gate hooks before the
// probability draw (they are pure reads); maybePrefetch then drew, checked
// the data budget, and only after that honoured the gates' verdict — the one
// refusal that counts as suppression.
func (r *refGates) issue(sigID, host string, prior float64) (issued, suppressed bool) {
	allow := !r.suspended[sigID]
	if allow && host != "" && r.hostDown[host] {
		allow = false
	}
	if prior <= 0 || (prior < 1 && r.rand() >= prior) {
		return false, false
	}
	if r.overBudget {
		return false, false
	}
	return allow, !allow
}

// TestStaticChainOrderDifferential pins the fan-out and the issue gates to
// the pre-split behaviour over 1000 seeded random states — star graphs in
// random dependency order, exemplars for a random subset of branches (the
// others borrow theirs from the user's profile), per-branch and per-user
// probabilities, suspended signatures, open breakers, the data budget spent
// or not, fan-out at random chain depths. Proxy and reference must consume
// the same probability draws and agree on which prefetches reach the origin
// and in what order, on what counted as suppressed, and on every
// appx_prefetch_skipped_total reason.
func TestStaticChainOrderDifferential(t *testing.T) {
	const user = "9.9.9.9"
	now := time.Unix(1_700_000_000, 0)
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 1000; iter++ {
		k := 1 + rng.Intn(8)
		order := rng.Perm(k)
		g := starGraph(order)
		up, fetched, reset := starUpstream()

		cfg := config.Default(g)
		priors := make([]float64, k)
		for b := range priors {
			priors[b] = []float64{0.25, 0.5, 1, 1}[rng.Intn(4)]
			cfg.Policy(g.Sig(branchID(b)).Hash()).Probability = priors[b]
		}
		scale := []float64{1, 1, 1, 1, 0.5, 0}[rng.Intn(6)]
		cfg.UserProbability = map[string]float64{user: scale}
		ref := &refGates{suspended: map[string]bool{}, hostDown: map[string]bool{},
			overBudget: rng.Intn(5) == 0}
		if ref.overBudget {
			cfg.DataBudgetBytes = 1
		}
		// Two copies of one draw stream: the proxy's and the reference's.
		seed := rng.Int63()
		draws := rand.New(rand.NewSource(seed))
		ref.rand = rand.New(rand.NewSource(seed)).Float64
		p := New(Options{Graph: g, Config: cfg, Upstream: up, Workers: 1,
			Now: func() time.Time { return now }, Rand: draws.Float64})

		// Teach exemplars for a random subset of branches (always at least
		// one) via live visits. The others borrow at fan-out: no branch
		// names a header, so any visit is stack evidence for all of them.
		scanned := map[int]bool{}
		tr := &proxyTransport{p: p, user: user}
		for b := 0; b < k; b++ {
			if b != order[0] && rng.Intn(4) == 0 {
				continue
			}
			scanned[b] = true
			if _, err := tr.RoundTrip(&httpmsg.Request{Method: "GET", Host: branchHost(b),
				Path:  fmt.Sprintf("/b%d", b),
				Query: []httpmsg.Field{{Key: "tok", Value: "v0"}}}); err != nil {
				t.Fatal(err)
			}
		}
		reset()

		// The gate state the fan-out will meet.
		for b := 0; b < k; b++ {
			if rng.Intn(5) == 0 {
				ref.suspended[branchID(b)] = true
				p.sigs.byID[branchID(b)].setBackoff(p.tun.prefetchFailureLimit, now.Add(time.Hour))
			}
		}
		for h := 0; h < 3; h++ {
			if rng.Intn(4) == 0 {
				ref.hostDown[branchHost(h)] = true
				for i := 0; i < breakerFailures; i++ {
					p.breakers.ReportFailure(branchHost(h))
				}
			}
		}
		if ref.overBudget {
			p.dataUsed.Add(now, cfg.DataBudgetBytes)
		}

		// Fan out from home: a live request at depth 0, a prefetched home
		// response fed to learn — as runPrefetch does — at chain depths up to
		// past the ceiling. The one worker is held until the whole fan-out is
		// queued, so depth alone orders what it issued.
		depth := 0
		home := &httpmsg.Request{Method: "GET", Host: "h.example", Path: "/home"}
		busy := make(stall)
		p.sched.Submit(&sched.Task{Job: busy})
		if rng.Intn(3) == 0 {
			depth = 1 + rng.Intn(maxChainDepth+2)
			p.learn(p.user(user), p.sigs.byID["st:home#0"], home, homeResponse(), depth, false)
		} else if _, err := tr.RoundTrip(home); err != nil {
			t.Fatal(err)
		}
		close(busy)
		p.Drain()

		// The pre-policy fan-out walked g.Successors(home) in index order; a
		// borrowed instance is issued one link further out, after them.
		var want, borrowed []string
		wantSuppressed := map[string]int{}
		var wantDepthSkips int64
		for _, succID := range g.Successors("st:home#0") {
			var b int
			if _, err := fmt.Sscanf(succID, "st:b%d#0", &b); err != nil {
				t.Fatalf("unexpected successor %q", succID)
			}
			if !ref.keep(depth) {
				wantDepthSkips++
				continue
			}
			issued, suppressed := ref.issue(succID, branchHost(b), priors[b]*scale)
			switch {
			case issued && scanned[b]:
				want = append(want, fmt.Sprintf("/b%d", b))
			case issued:
				borrowed = append(borrowed, fmt.Sprintf("/b%d", b))
			}
			if suppressed {
				wantSuppressed[succID]++
			}
		}
		want = append(want, borrowed...)
		state := fmt.Sprintf("iter %d (k=%d order=%v scanned=%v priors=%v scale=%v depth=%d gates=%+v)",
			iter, k, order, scanned, priors, scale, depth, ref)
		if got := fetched(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: prefetch order %v, want %v", state, got, want)
		}
		if draws.Float64() != ref.rand() {
			t.Fatalf("%s: proxy and reference consumed different numbers of probability draws", state)
		}
		snap := p.Stats().Snapshot()
		for b := 0; b < k; b++ {
			if got := snap.PerSig[branchID(b)].PrefetchSuppressed; got != wantSuppressed[branchID(b)] {
				t.Fatalf("%s: %s suppressed %d times, want %d", state, branchID(b), got, wantSuppressed[branchID(b)])
			}
		}
		skips := p.statsV1().Policy
		if skips.DepthSkips != wantDepthSkips ||
			skips.NoExemplarSkips != 0 || skips.NoDepValueSkips != 0 || skips.PendingFullSkips != 0 {
			t.Fatalf("%s: skip counts %+v, want %d depth skips and nothing else", state, skips, wantDepthSkips)
		}
		p.Close()
	}
}

// TestNoExemplarSkipCounted: a candidate whose exemplar cannot resolve
// every run-time value (here: a field depending on a different
// predecessor) used to vanish silently from the fan-out; it must be
// counted under appx_prefetch_skipped_total{reason="no_exemplar"}.
func TestNoExemplarSkipCounted(t *testing.T) {
	g := sig.NewGraph("mix")
	home := &sig.Signature{ID: "mx:home#0", Method: "GET", URI: sig.Literal("h.example/home")}
	other := &sig.Signature{ID: "mx:other#0", Method: "GET", URI: sig.Literal("h.example/other")}
	mix := &sig.Signature{ID: "mx:mix#0", Method: "GET", URI: sig.Literal("h.example/mix"),
		Query: []sig.Field{
			{Key: "a", Value: sig.DepValue(home.ID, "tok")},
			{Key: "b", Value: sig.DepValue(other.ID, "key")},
		}}
	g.Add(home)
	g.Add(other)
	g.Add(mix)
	g.AddDep(sig.Dependency{PredID: home.ID, SuccID: mix.ID, RespPath: "tok",
		Loc: sig.FieldLoc{Where: "query", Key: "a"}})
	g.AddDep(sig.Dependency{PredID: other.ID, SuccID: mix.ID, RespPath: "key",
		Loc: sig.FieldLoc{Where: "query", Key: "b"}})

	up := UpstreamFunc(func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		body := []byte(`{}`)
		switch r.Path {
		case "/home":
			body = []byte(`{"tok":"v1"}`)
		case "/other":
			body = []byte(`{"key":"k1"}`)
		}
		return &httpmsg.Response{Status: 200,
			Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
			Body:   body}, nil
	})
	p := New(Options{Graph: g, Upstream: up, Workers: 1})
	defer p.Close()

	tr := &proxyTransport{p: p, user: "8.8.8.8"}
	// Teach the mix exemplar from a live request that omits "b": the
	// exemplar then has no captured wild for the mx:other#0 dependency, so
	// when the fan-out from home resolves "a" from the combo but falls back
	// to exemplar wilds for "b", materialize fails and the skip must be
	// attributed instead of vanishing.
	if _, err := tr.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/mix",
		Query: []httpmsg.Field{{Key: "a", Value: "v1"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example",
		Path: "/home"}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if got := p.skips.noExemplar.Load(); got == 0 {
		t.Fatal("materialize failure not counted under no_exemplar")
	}
	if got := p.statsV1().Policy.NoExemplarSkips; got == 0 {
		t.Fatalf("stats policy block NoExemplarSkips = %d", got)
	}
}
