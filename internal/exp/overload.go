package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/proxy"
	"appx/internal/proxy/sched"
	"appx/internal/sig"
)

// OverloadRow is one offered-load point of the overload sweep.
type OverloadRow struct {
	// Load is the offered-load multiplier over the base client count.
	Load float64
	// Clients is the concurrent client count at this point.
	Clients int
	// Requests counts foreground client requests attempted; Shed counts the
	// ones refused with an admission 503; ServerErrs counts other 5xx.
	Requests, Shed, ServerErrs int
	// P50/P95/P99 are client-observed foreground latencies.
	P50, P95, P99 time.Duration
	// HitRatio is the proxy-wide prefetch hit ratio at this load.
	HitRatio float64
	// ShallowDropped / DeepDropped count prefetch tasks shed by the
	// scheduler (class queue shares plus enqueue deadlines) per class.
	ShallowDropped, DeepDropped int64
}

// OverloadSweep is the overload experiment: a fixed-capacity proxy swept
// past saturation by a growing closed-loop client population. The paper's §6
// never overloads the proxy itself; this guards the property its deployment
// story assumes — speculative prefetching must collapse before foreground
// latency does.
type OverloadSweep struct {
	Seed        int64
	BaseClients int
	Rows        []OverloadRow
}

// DefaultOverloadLoads are the sweep multipliers: 1× is uncontended, the
// top point drives admission shedding.
func DefaultOverloadLoads() []float64 {
	return []float64{1, 2, 4, 8}
}

const (
	overloadBaseClients = 6                      // client count at 1×
	overloadIters       = 60                     // foreground requests per client
	overloadSvc         = 3 * time.Millisecond   // origin service time
	overloadThink       = 6 * time.Millisecond   // client think time
	overloadFanOut      = 2                      // ids per list, details per item
	overloadListEvery   = 4                      // list once per this many iterations
	overloadGate        = 16                     // admission slots
	overloadWait        = 5 * time.Millisecond   // bounded admission wait
	overloadQueue       = 64                     // prefetch queue bound
	overloadWorkers     = 4                      // prefetch pool size
	overloadDeadline    = 100 * time.Millisecond // enqueue deadline
)

// overloadGraph builds the one-host chain list→item→detail: items are
// shallow prefetches spawned by live list traffic, details are deep ones
// spawned by prefetched item responses — and are never client-requested, so
// they are the purely speculative work the proxy must shed first.
func overloadGraph() *sig.Graph {
	g := sig.NewGraph("overload")
	list := &sig.Signature{ID: "ov:list#0", Method: "GET", URI: sig.Literal("app.example/list")}
	item := &sig.Signature{ID: "ov:item#0", Method: "GET", URI: sig.Literal("app.example/item"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(list.ID, "ids[*]")}}}
	detail := &sig.Signature{ID: "ov:detail#0", Method: "GET", URI: sig.Literal("app.example/detail"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(item.ID, "did[*]")}}}
	g.Add(list)
	g.Add(item)
	g.Add(detail)
	g.AddDep(sig.Dependency{PredID: list.ID, SuccID: item.ID, RespPath: "ids[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	g.AddDep(sig.Dependency{PredID: item.ID, SuccID: detail.ID, RespPath: "did[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	return g
}

// RunOverload sweeps offered load past the proxy's prefetch capacity and
// reports foreground latency quantiles, shed rates, and per-class scheduler
// drops per point. Unlike the other sweeps this one runs on the real clock:
// admission waits and enqueue deadlines are time-driven, which is exactly
// the machinery under test.
func RunOverload(seed int64, loads []float64) (*OverloadSweep, error) {
	if seed == 0 {
		seed = 42
	}
	if len(loads) == 0 {
		loads = DefaultOverloadLoads()
	}
	out := &OverloadSweep{Seed: seed, BaseClients: overloadBaseClients}
	for _, load := range loads {
		row, err := runOverloadPoint(load)
		if err != nil {
			return nil, fmt.Errorf("overload@%gx: %w", load, err)
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

// runOverloadPoint drives one load multiplier against a fresh proxy.
func runOverloadPoint(load float64) (*OverloadRow, error) {
	g := overloadGraph()
	cfg := config.Default(g)
	cfg.Overload = &config.Overload{
		MaxConcurrentRequests: overloadGate,
		AdmissionWait:         config.Duration(overloadWait),
		QueueDeadline:         config.Duration(overloadDeadline),
		MaxQueue:              overloadQueue,
	}

	// The origin burns a fixed service time per request and hands out
	// globally fresh ids, so every list round spawns brand-new prefetch work
	// instead of deduplicating against the last round's or another client's.
	var idSeq atomic.Int64
	up := proxy.UpstreamFunc(func(_ context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		time.Sleep(overloadSvc)
		switch r.Path {
		case "/list":
			ids := make([]string, overloadFanOut)
			for i := range ids {
				ids[i] = fmt.Sprintf("i%d", idSeq.Add(1))
			}
			body, _ := json.Marshal(map[string]any{"ids": ids})
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   body}, nil
		case "/item":
			id := queryValue(r, "id")
			did := make([]string, overloadFanOut)
			for i := range did {
				did[i] = fmt.Sprintf("d%s-%d", id, i)
			}
			body, _ := json.Marshal(map[string]any{"did": did})
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   body}, nil
		default:
			return &httpmsg.Response{Status: 200, Body: []byte(`{}`)}, nil
		}
	})

	px := proxy.New(proxy.Options{Graph: g, Config: cfg, Upstream: up, Workers: overloadWorkers})

	clients := int(float64(overloadBaseClients) * load)
	if clients < 1 {
		clients = 1
	}
	get := func(user, path, id string) (*httpmsg.Response, error) {
		req := &httpmsg.Request{Method: "GET", Host: "app.example", Path: path,
			Header: []httpmsg.Field{{Key: "X-Appx-User", Value: user}}}
		if id != "" {
			req.Query = []httpmsg.Field{{Key: "id", Value: id}}
		} else {
			// A list carries the user's credential: each client's lists are its
			// own, never one response attached to by every client at once.
			req.Header = append(req.Header, httpmsg.Field{Key: "Authorization", Value: "Bearer " + user})
		}
		return httpmsg.ServeViaHandler(px, req)
	}

	// Exemplars are per-user state: each client teaches its own item and
	// detail exemplar before measurement so the chain can materialize.
	for c := 0; c < clients; c++ {
		user := fmt.Sprintf("c%d", c)
		if _, err := get(user, "/item", fmt.Sprintf("w%d", c)); err != nil {
			return nil, err
		}
		if _, err := get(user, "/detail", fmt.Sprintf("wd%d", c)); err != nil {
			return nil, err
		}
	}

	// Closed-loop clients: mostly item views picked from the latest list
	// (hits when prefetching keeps up), a fresh list round every few
	// iterations, think time between requests.
	type clientResult struct {
		lat                  []time.Duration
		requests, shed, errs int
	}
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			user := fmt.Sprintf("c%d", c)
			res := &results[c]
			var ids []string
			for i := 0; i < overloadIters; i++ {
				path, id := "/item", ""
				if i%overloadListEvery == 0 || len(ids) == 0 {
					path = "/list"
				} else {
					id = ids[i%len(ids)]
				}
				start := time.Now()
				resp, err := get(user, path, id)
				res.requests++
				if err != nil {
					res.errs++
					continue
				}
				res.lat = append(res.lat, time.Since(start))
				switch {
				case resp.Status == 503:
					res.shed++
				case resp.Status >= 500:
					res.errs++
				case path == "/list":
					var body struct {
						IDs []string `json:"ids"`
					}
					if json.Unmarshal(resp.Body, &body) == nil && len(body.IDs) > 0 {
						ids = body.IDs
					}
				}
				time.Sleep(overloadThink)
			}
		}(c)
	}
	wg.Wait()

	// Scheduler counters must be read before Close: tearing the pool down
	// discards the backlog as closed-drops and would inflate the numbers.
	sm := px.SchedMetrics()
	snap := px.Stats().Snapshot()
	row := &OverloadRow{
		Load:           load,
		Clients:        clients,
		HitRatio:       snap.HitRatio(),
		ShallowDropped: dropsOf(sm.Shallow),
		DeepDropped:    dropsOf(sm.Deep),
	}
	var all []time.Duration
	for i := range results {
		row.Requests += results[i].requests
		row.Shed += results[i].shed
		row.ServerErrs += results[i].errs
		all = append(all, results[i].lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	row.P50, row.P95, row.P99 = quantileDur(all, 0.50), quantileDur(all, 0.95), quantileDur(all, 0.99)
	px.Close()
	return row, nil
}

// dropsOf sums a class's load-shedding drops: queue-share overflow plus
// enqueue-deadline expiry (not closed-drops, which are teardown artifacts).
func dropsOf(c sched.ClassMetrics) int64 {
	return c.DroppedFull + c.RejectedExpired + c.DroppedExpired
}

// queryValue extracts one query field.
func queryValue(r *httpmsg.Request, key string) string {
	for _, f := range r.Query {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

// quantileDur reports the q-quantile of an ascending latency slice.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Render formats the overload sweep.
func (o *OverloadSweep) Render() string {
	rows := make([][]string, 0, len(o.Rows))
	for _, r := range o.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%gx", r.Load),
			fmt.Sprintf("%d", r.Clients),
			fmt.Sprintf("%d", r.Requests),
			fmt.Sprintf("%d", r.Shed),
			fmt.Sprintf("%d", r.ServerErrs),
			fmt.Sprintf("%.1f", float64(r.P50.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(r.P95.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(r.P99.Microseconds())/1000),
			fmtPct(r.HitRatio),
			fmt.Sprintf("%d", r.ShallowDropped),
			fmt.Sprintf("%d", r.DeepDropped),
		})
	}
	return fmt.Sprintf("Overload sweep (%d clients at 1x): offered load vs foreground latency and prefetch shedding\n", o.BaseClients) +
		table([]string{"load", "clients", "reqs", "shed", "errs", "p50ms", "p95ms", "p99ms", "hits", "shallow drop", "deep drop"}, rows)
}
