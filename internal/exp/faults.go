package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/netem"
	"appx/internal/proxy"
	"appx/internal/sig"
)

// FaultSweepRow is one fault-rate point of the origin fault sweep.
type FaultSweepRow struct {
	// Rate is the injected connect-refusal probability on the sick host.
	Rate float64
	// HealthyHitRatio is the cache hit ratio observed on the healthy host's
	// detail signature — graceful degradation means it stays flat across
	// fault rates.
	HealthyHitRatio float64
	// SickPrefetches / SickErrors / SickSuppressed count the sick host's
	// prefetches that succeeded, failed on the injected fault, and were
	// shed by the breaker or signature backoff before reaching the wire.
	SickPrefetches, SickErrors, SickSuppressed int
	// Retries counts origin attempts beyond the first, proxy-wide.
	Retries int
	// Breaker is the sick host's final circuit state.
	Breaker string
}

// FaultSweep is the origin fault sweep: a synthetic two-host workload —
// one healthy origin, one with seeded connect-failure injection at varying
// rates — exercising the resilience stack end to end. The paper's §6 has no
// fault experiment; this guards the degradation property the deployment
// story assumes: one sick origin must not drag down prefetching for the
// rest of the fleet.
type FaultSweep struct {
	Seed int64
	Rows []FaultSweepRow
}

// DefaultFaultRates are the sweep points: the top rate is high enough for
// the circuit breaker to open and shed the remaining rounds.
func DefaultFaultRates() []float64 {
	return []float64{0, 0.1, 0.3, 0.5, 0.9}
}

// faultSweepGraph builds the two-host dependency graph: a healthy list
// endpoint fanning out into details on the healthy host and on the
// faultable one.
func faultSweepGraph() *sig.Graph {
	g := sig.NewGraph("faultsweep")
	pred := &sig.Signature{ID: "fs:list#0", Method: "GET", URI: sig.Literal("ok.example/list")}
	okSucc := &sig.Signature{ID: "fs:okitem#0", Method: "GET", URI: sig.Literal("ok.example/detail"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(pred.ID, "ok[*]")}}}
	sickSucc := &sig.Signature{ID: "fs:sickitem#0", Method: "GET", URI: sig.Literal("sick.example/item"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(pred.ID, "sick[*]")}}}
	g.Add(pred)
	g.Add(okSucc)
	g.Add(sickSucc)
	g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: okSucc.ID, RespPath: "ok[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: sickSucc.ID, RespPath: "sick[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	return g
}

// RunFaultSweep measures graceful degradation under injected origin faults.
// Every run is fully deterministic: a frozen clock, a seeded probability
// stream, a single prefetch worker, and the netem fault injector's seeded
// draws.
func RunFaultSweep(seed int64, rates []float64) (*FaultSweep, error) {
	if seed == 0 {
		seed = 42
	}
	if len(rates) == 0 {
		rates = DefaultFaultRates()
	}
	out := &FaultSweep{Seed: seed}
	for _, rate := range rates {
		row, err := runFaultPoint(seed, rate)
		if err != nil {
			return nil, fmt.Errorf("faultsweep@%.0f%%: %w", rate*100, err)
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

const (
	faultRounds   = 15 // list rounds driven per rate point
	faultPerRound = 6  // fresh ids per host per round
)

// runFaultPoint drives one fault-rate configuration.
func runFaultPoint(seed int64, rate float64) (*FaultSweepRow, error) {
	g := faultSweepGraph()
	cfg := config.Default(g)

	// Installed only after the exemplar-teaching requests below, so every
	// rate point starts from the same learned state.
	var in *netem.Injector
	round := 0
	up := proxy.UpstreamFunc(func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Host == "sick.example" && in != nil && in.ConnectRefused(r.Host) {
			return nil, fmt.Errorf("dial %s: %w", r.Host, netem.ErrInjectedRefusal)
		}
		if r.Path == "/list" {
			round++
			ok := make([]string, faultPerRound)
			sick := make([]string, faultPerRound)
			for i := range ok {
				ok[i] = fmt.Sprintf("r%d-%d", round, i)
				sick[i] = fmt.Sprintf("s%d-%d", round, i)
			}
			body, _ := json.Marshal(map[string]any{"ok": ok, "sick": sick})
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   body}, nil
		}
		return &httpmsg.Response{Status: 200, Body: []byte(`{}`)}, nil
	})

	now := time.Unix(1_700_000_000, 0)
	rnd := rand.New(rand.NewSource(seed))
	px := proxy.New(proxy.Options{Graph: g, Config: cfg, Upstream: up, Workers: 1,
		Now:  func() time.Time { return now },
		Rand: rnd.Float64,
	})
	defer px.Close()

	get := func(host, path, id string) error {
		req := &httpmsg.Request{Method: "GET", Host: host, Path: path,
			Header: []httpmsg.Field{{Key: "X-Appx-User", Value: "sweep-user"}}}
		if id != "" {
			req.Query = []httpmsg.Field{{Key: "id", Value: id}}
		}
		_, err := httpmsg.ServeViaHandler(px, req)
		return err
	}
	// Teach both successor exemplars, then drive the rounds: each /list
	// fans out fresh prefetch work, and two healthy details are consumed
	// per round (hits when prefetching stayed healthy).
	if err := get("ok.example", "/detail", "seed"); err != nil {
		return nil, err
	}
	if err := get("sick.example", "/item", "seed"); err != nil {
		return nil, err
	}
	if rate > 0 {
		in = netem.NewInjector(seed)
		in.SetFault("sick.example", netem.Fault{ConnectRefuseProb: rate})
	}
	for r := 1; r <= faultRounds; r++ {
		if err := get("ok.example", "/list", ""); err != nil {
			return nil, err
		}
		px.Drain()
		for i := 0; i < 2; i++ {
			if err := get("ok.example", "/detail", fmt.Sprintf("r%d-%d", r, i)); err != nil {
				return nil, err
			}
		}
	}

	snap := px.Stats().Snapshot()
	ok := snap.PerSig["fs:okitem#0"]
	sick := snap.PerSig["fs:sickitem#0"]
	hitRatio := 0.0
	if ok.Hits+ok.Misses > 0 {
		hitRatio = float64(ok.Hits) / float64(ok.Hits+ok.Misses)
	}
	return &FaultSweepRow{
		Rate:            rate,
		HealthyHitRatio: hitRatio,
		SickPrefetches:  sick.Prefetches,
		SickErrors:      sick.PrefetchErrors,
		SickSuppressed:  sick.PrefetchSuppressed,
		Retries:         snap.Retries,
		Breaker:         px.Breakers().State("sick.example").String(),
	}, nil
}

// Render formats the fault sweep.
func (f *FaultSweep) Render() string {
	rows := make([][]string, 0, len(f.Rows))
	for _, r := range f.Rows {
		rows = append(rows, []string{
			fmtPct(r.Rate),
			fmtPct(r.HealthyHitRatio),
			fmt.Sprintf("%d", r.SickPrefetches),
			fmt.Sprintf("%d", r.SickErrors),
			fmt.Sprintf("%d", r.SickSuppressed),
			fmt.Sprintf("%d", r.Retries),
			r.Breaker,
		})
	}
	return fmt.Sprintf("Origin fault sweep (seed %d): connect-failure injection on one of two hosts\n", f.Seed) +
		table([]string{"fault", "healthy hits", "sick prefetched", "sick errors", "sick shed", "retries", "breaker"}, rows)
}
