package main

import (
	"fmt"
	"net/http"
	"time"

	"appx/internal/httpmsg"
)

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	short    bool          // smoke-test effort: short windows, few probe iterations
	window   time.Duration // reporting window length
	setups   int           // how many times a loopback set-up runs; setup_s is the median
	traceOut string
}

type namedValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// runResult is what one run of one workload produced. Metrics holds values
// for the names BENCHMARK.json declares (end-to-end from an untraced run,
// per-layer from a traced one); Extras are diagnostics that exist on this
// workload only or describe the harness rather than the proxy.
type runResult struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"metrics"`
	Extras    []namedValue       `json:"extras,omitempty"`
	Budget    []budgetRow        `json:"budget,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Spans     int                `json:"spans,omitempty"`
}

func (r *runResult) extra(name, unit string, v float64) {
	r.Extras = append(r.Extras, namedValue{name, unit, v})
}

// tally adds the phases' request counts to the result and notes each phase's
// first failure.
func (r *runResult) tally(phases ...*phaseResult) {
	for _, p := range phases {
		r.Attempted += p.attempted
		r.Failed += p.failed
		if p.firstErr != nil {
			r.Notes = append(r.Notes, "first failure: "+p.firstErr.Error())
		}
	}
	r.Correct = r.Failed == 0
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

func runWorkload(name string, cfg runConfig) (*runResult, error) {
	if cfg.trace {
		cfg.setups = 1 // setup_s is an end-to-end metric: a traced run does not report it
	}
	res, err := runNamed(name, cfg)
	if err == nil && res.Attempted > 0 {
		// 0 on every workload as written, and the contract wants metrics that
		// never are: BENCHMARK.json declares no such metric, the result line's
		// failed and attempted carry it.
		res.extra("fail_frac", "ratio", float64(res.Failed)/float64(res.Attempted))
	}
	return res, err
}

func runNamed(name string, cfg runConfig) (*runResult, error) {
	if name == "session_replay" {
		return runSessionReplay(cfg)
	}
	for _, spec := range loopSpecs {
		if spec.name == name {
			return runLoopback(spec, cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fullSetups is how many times an untraced run sets a loopback workload up;
// session_replay's set-up is a hundredth of theirs (5 ms) and the noisiest, so
// it repeats replaySetupsX times as often.
const (
	fullSetups    = 5
	replaySetupsX = 8
)

// repeatSetUp runs once n times and returns the median time of a run. once
// must release what its previous call built.
func repeatSetUp(n int, once func() error) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := once(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// setUp sets a loopback workload up repeatedly, keeps the last stack and
// returns the median set-up time.
func setUp(spec loopSpec, cfg runConfig) (*loopRun, float64, error) {
	var run *loopRun
	setupS, err := repeatSetUp(cfg.setups, func() error {
		if run != nil {
			run.sys.close()
		}
		var err error
		run, err = spec.setup(cfg.seed, cfg.sz)
		return err
	})
	return run, setupS, err
}

// Shares of --seconds the loopback phases get. Untraced: closed loop, then
// open loop; a workload without an open loop (stream_large) runs its closed
// loop for all of it. Traced: closed loop untraced and again traced (their
// difference is the tracing overhead), open loop, and the generator against a
// null handler.
const (
	closedShare = 0.6
	openShare   = 0.4

	tracedShare = 0.25
	nullShare   = 0.15
)

func phaseSeed(seed int64, n int) int64 { return seed*16 + int64(n) }

func runLoopback(spec loopSpec, cfg runConfig) (*runResult, error) {
	run, setupS, err := setUp(spec, cfg)
	if err != nil {
		return nil, err
	}
	sys := run.sys
	defer sys.close()
	res := &runResult{Workload: spec.name, Trace: cfg.trace, Metrics: map[string]float64{}}
	res.Notes = append(res.Notes, fmt.Sprintf("traffic is host loopback, never a real link; %d client connections, one process", nClients()))
	if cfg.trace {
		return res, tracedLoopback(spec, cfg, run, res)
	}

	before := readCounters(sys.px, sys.graph)
	closedDur := dur(cfg.seconds)
	if spec.openRate > 0 {
		closedDur = dur(cfg.seconds * closedShare)
	}
	var originBytes, clientBytes int64
	closed := sys.run(phase{window: cfg.window, addr: sys.rawAddr, dur: closedDur, gen: run.gen(phaseSeed(cfg.seed, 1), true),
		account: spec.account, atAccount: func(delivered int64) { originBytes, clientBytes = sys.origin.bytes.Load(), delivered }})
	sys.quiesce()
	if clientBytes == 0 {
		originBytes, clientBytes = sys.origin.bytes.Load(), closed.bodyBytes
	}
	heap := liveHeapMB(closed)
	cs := summarize(closed.recs)
	if cs.windows == 0 {
		return nil, fmt.Errorf("%s: --seconds %.3g leaves no complete %v window in the closed loop", spec.name, cfg.seconds, cfg.window)
	}
	res.tally(closed)
	res.Notes = append(res.Notes, fmt.Sprintf("closed loop: %d requests in %d windows", cs.samples, cs.windows))
	if spec.openRate > 0 {
		open := sys.run(phase{window: cfg.window, addr: sys.rawAddr, dur: dur(cfg.seconds * openShare), gen: run.gen(phaseSeed(cfg.seed, 2), false),
			rate: spec.openRate, seed: phaseSeed(cfg.seed, 3)})
		sys.quiesce()
		ops := summarize(open.recs)
		if ops.windows == 0 {
			return nil, fmt.Errorf("%s: --seconds %.3g leaves no complete %v window in the open loop", spec.name, cfg.seconds, cfg.window)
		}
		res.tally(open)
		res.extra("open_p50_us", "us", ops.p50)
		res.extra("open_p99_us", "us", ops.p99)
		res.Notes = append(res.Notes, fmt.Sprintf("open loop at %.0f req/s: %d requests in %d windows", spec.openRate, ops.samples, ops.windows))
	}
	if err := run.check(before, readCounters(sys.px, sys.graph)); err != nil {
		return nil, err
	}
	m := res.Metrics
	m["setup_s"] = setupS
	m["rps"] = cs.rps
	m["p50_us"] = cs.p50
	m["tail_us"] = cs.p99
	m["goodput_mbps"] = cs.mbps
	m["data_usage_x"] = float64(originBytes) / float64(sys.setupBytes+clientBytes)
	m["live_heap_mb"] = heap
	res.extra("ttfb_p50_us", "us", cs.ttfb50)
	return res, nil
}

// sampler keeps, per client and request kind, the most recent sampled
// transactions of the traced phase, as the layer probes' input: the most
// recent, because only recently prefetched entries are still resident on a
// workload whose cache evicts.
type sampler struct {
	clients []map[string]*kindRing
}

type kindRing struct {
	seen int
	txns []probeTxn
}

func newSampler() *sampler {
	s := &sampler{clients: make([]map[string]*kindRing, nClients())}
	for c := range s.clients {
		s.clients[c] = map[string]*kindRing{}
	}
	return s
}

// sampleEvery thins the capture so that copying bodies does not weigh on the
// traced phase.
const sampleEvery = 8

func ringSize(kind string) int {
	if isBlobKind(kind) {
		return 4
	}
	return 64
}

// capture runs on client c's goroutine only.
func (s *sampler) capture(c int, rq *request, status int, body []byte) {
	key := rq.kind
	if rq.rangeLen > 0 {
		key += "-range"
	}
	ring := s.clients[c][key]
	if ring == nil {
		ring = &kindRing{}
		s.clients[c][key] = ring
	}
	ring.seen++
	if ring.seen%sampleEvery != 1 {
		return
	}
	t := probeTxn{req: rq.proxyRequest(), body: append([]byte(nil), body...)}
	if size := ringSize(rq.kind); len(ring.txns) < size {
		ring.txns = append(ring.txns, t)
	} else {
		ring.txns[(ring.seen/sampleEvery)%size] = t
	}
}

func (s *sampler) all() []probeTxn {
	var out []probeTxn
	for _, kinds := range s.clients {
		for _, ring := range kinds {
			out = append(out, ring.txns...)
		}
	}
	return out
}

// proxyRequest is rq in the form the proxy receives it.
func (rq *request) proxyRequest() *httpmsg.Request {
	r := &httpmsg.Request{Method: http.MethodGet, Scheme: "http", Host: originHost}
	if queryKind(rq.kind) {
		r.Path = "/" + rq.kind
		r.Query = []httpmsg.Field{{Key: "id", Value: rq.id}}
	} else {
		r.Path = "/" + rq.kind + "/" + rq.id
	}
	r.Header = append(r.Header, httpmsg.Field{Key: userTag, Value: rq.user})
	if rq.device != "" {
		r.Header = append(r.Header, httpmsg.Field{Key: "X-Device", Value: rq.device})
	}
	if rq.rangeLen > 0 {
		r.Header = append(r.Header, httpmsg.Field{Key: "Range",
			Value: fmt.Sprintf("bytes=%d-%d", rq.rangeOff, rq.rangeOff+rq.rangeLen-1)})
	}
	return r
}

func tracedLoopback(spec loopSpec, cfg runConfig, run *loopRun, res *runResult) error {
	sys := run.sys
	share := dur(cfg.seconds * tracedShare)
	before := readCounters(sys.px, sys.graph)
	upCalls, upBusy, upErrs := sys.up.calls.Load(), sys.up.busyNs.Load(), sys.up.errs.Load()
	orBytes, orCalls, orBusy := sys.origin.bytes.Load(), sys.origin.calls.Load(), sys.origin.busyNs.Load()

	plain := sys.run(phase{window: cfg.window, addr: sys.rawAddr, dur: share, gen: run.gen(phaseSeed(cfg.seed, 1), true)})
	sys.quiesce()
	res.tally(plain)
	if spec.openRate > 0 {
		open := sys.run(phase{window: cfg.window, addr: sys.rawAddr, dur: share, gen: run.gen(phaseSeed(cfg.seed, 2), false),
			rate: spec.openRate, seed: phaseSeed(cfg.seed, 3)})
		sys.quiesce()
		res.tally(open)
		if err := openLoopExtras(res, spec, open); err != nil {
			return err
		}
	}
	// The traced phase comes last, so what it samples is what the cache still
	// holds when the probes run.
	smp := newSampler()
	sys.tr.on.Store(true)
	traced := sys.run(phase{window: cfg.window, addr: sys.tracedAddr, dur: share, gen: run.gen(phaseSeed(cfg.seed, 4), true), capture: smp.capture})
	sys.tr.on.Store(false)
	sys.quiesce()
	after := readCounters(sys.px, sys.graph)
	if err := run.check(before, after); err != nil {
		return err
	}

	// The generator against a handler that returns the same bytes with no
	// proxy behind it: what the client and its socket cost by themselves.
	null := newOrigin(sys.content, nil)
	null.honourRange = true
	nsrv, naddr, err := serve(null)
	if err != nil {
		return err
	}
	nullRes := sys.run(phase{window: cfg.window, addr: naddr, dur: dur(cfg.seconds * nullShare), gen: run.gen(phaseSeed(cfg.seed, 5), false)})
	nsrv.Close()

	ps, ts, ns := summarize(plain.recs), summarize(traced.recs), summarize(nullRes.recs)
	if ps.windows == 0 || ts.windows == 0 || ns.windows == 0 {
		return fmt.Errorf("%s: --seconds %.3g leaves no complete %v window in a traced-run phase", spec.name, cfg.seconds, cfg.window)
	}
	res.tally(traced, nullRes)

	res.extra("loadgen.self_us_per_req", "us", ns.p50)
	res.extra("loadgen.trace_overhead_pct", "%", 100*(ps.rps-ts.rps)/ps.rps)
	if calls := sys.origin.calls.Load() - orCalls; calls > 0 {
		res.extra("origin.service_us_mean", "us", float64(sys.origin.busyNs.Load()-orBusy)/float64(calls)/1e3)
	}

	m := res.Metrics
	counterMetrics(m, before, after)
	calls := float64(sys.up.calls.Load() - upCalls)
	m["upstream.calls"] = calls
	m["upstream.bytes"] = float64(sys.origin.bytes.Load() - orBytes)
	upstreamUs := 0.0
	if calls > 0 {
		upstreamUs = float64(sys.up.busyNs.Load()-upBusy) / calls / 1e3
		m["upstream.fail_frac"] = float64(sys.up.errs.Load()-upErrs) / calls
	}
	m["upstream.busy_us_per_call"] = upstreamUs
	m["stream.chunks_outstanding"] = float64(sys.px.ChunkPool().Outstanding())

	txns := smp.all()
	if sys.setupList != nil {
		txns = append(txns, *sys.setupList)
	}
	in := probeInput{short: cfg.short, px: sys.px, graph: sys.graph, txns: txns, sharedTier: true, maxMisses: 300,
		upstream: func() (int64, int64) { return sys.up.calls.Load(), sys.up.busyNs.Load() },
		fresh:    func(i int) *httpmsg.Request { rq := run.fresh(i); return rq.proxyRequest() }}
	fanout := sys.content.listFan
	probeMetrics(res, in, fanout, upstreamUs)

	res.Spans = sys.tr.count()
	if cfg.traceOut != "" {
		if err := sys.tr.writeFile(cfg.traceOut); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("closed loop untraced %.0f req/s, traced %.0f req/s; %d spans kept", ps.rps, ts.rps, res.Spans))
	return nil
}

// openLoopExtras reports the traced run's open-loop phase: its latency, how
// late the generator ran, and the share of requests over the frozen limit.
func openLoopExtras(res *runResult, spec loopSpec, open *phaseResult) error {
	ops := summarize(open.recs)
	if ops.windows == 0 {
		return fmt.Errorf("%s: the open loop has no complete window", spec.name)
	}
	var late []int32
	over := 0
	for _, l := range open.late {
		late = append(late, l...)
	}
	for _, r := range open.recs {
		for _, v := range r.lat {
			if float64(v)/1e3 > spec.openLimitUs {
				over++
			}
		}
	}
	if len(late) > 0 {
		sortInt32(late)
		res.extra("loadgen.late_p99_us", "us", quantileNs(late, 0.99))
	}
	res.extra("loadgen.over_limit_frac", "ratio", float64(over+int(open.failed))/float64(open.attempted))
	res.extra("loadgen.open_p50_us", "us", ops.p50)
	res.extra("loadgen.open_p99_us", "us", ops.p99)
	return nil
}

// counterMetrics fills the per-layer metrics that are differences of public
// counters over the timed phases.
func counterMetrics(m map[string]float64, before, after counters) {
	// A ratio whose denominator did not move on this workload reads 0.
	for _, name := range []string{"stream.attach_frac", "sig.regex_frac", "cache.hit_ratio", "cache.evictions_per_put",
		"policy.used_frac", "sched.drop_frac", "upstream.fail_frac"} {
		m[name] = 0
	}
	total := after.requests() - before.requests()
	for _, o := range outcomeNames {
		frac := 0.0
		if total > 0 {
			frac = (after.outcome(o) - before.outcome(o)) / total
		}
		m["proxy.outcome_frac."+o] = frac
	}
	if total > 0 {
		m["stream.attach_frac"] = (after.outcome("attach-hit") - before.outcome("attach-hit")) / total
	}
	if lookups := float64(after.match.Lookups - before.match.Lookups); lookups > 0 {
		m["sig.regex_frac"] = 1 - float64(after.match.ExactHits-before.match.ExactHits)/lookups
	}
	hits, misses := float64(after.cache.Hits-before.cache.Hits), float64(after.cache.Misses-before.cache.Misses)
	if hits+misses > 0 {
		m["cache.hit_ratio"] = hits / (hits + misses)
	}
	if puts := float64(after.cache.Puts - before.cache.Puts); puts > 0 {
		m["cache.evictions_per_put"] = float64(cacheEvictions(after.cache)-cacheEvictions(before.cache)) / puts
	}
	m["cache.resident_mb"] = float64(after.cache.ResidentBytes) / 1e6
	if issued := float64(after.stats.Prefetches - before.stats.Prefetches); issued > 0 {
		m["policy.used_frac"] = float64(after.stats.UsedEntries-before.stats.UsedEntries) / issued
	}
	m["policy.table_bytes"] = after.prom["appx_policy_table_bytes"]
	sub1, ran1, drop1 := schedTotals(after.sched)
	sub0, ran0, drop0 := schedTotals(before.sched)
	m["sched.ran"] = float64(ran1 - ran0)
	if offered := float64(sub1 - sub0 + drop1 - drop0); offered > 0 {
		m["sched.drop_frac"] = float64(drop1-drop0) / offered
	}
	m["upstream.retries"] = float64(after.stats.Retries - before.stats.Retries)
}

// probeMetrics runs the layer probes and fills the per-layer metrics and the
// budget table from them.
func probeMetrics(res *runResult, in probeInput, fanout int, upstreamUs float64) {
	m := res.Metrics
	m["proxy.unattributed_hit_us"], m["proxy.unattributed_miss_us"] = 0, 0
	hit, miss, hits := probeServe(in)
	lc := probeLayers(in, hits, fanout)
	m["proxy.serve_hit_us"], m["proxy.allocs_per_hit"] = hit.us, hit.allocs
	m["proxy.serve_miss_us"], m["proxy.allocs_per_miss"] = miss.us, miss.allocs
	m["httpmsg.parse_ns"], m["httpmsg.parse_allocs"] = lc.parseNs, lc.parseAllocs
	m["httpmsg.key_ns"], m["httpmsg.write_ns"] = lc.keyNs, lc.writeNs
	m["sig.match_ns"], m["sig.match_allocs"] = lc.matchNs, lc.matchAllocs
	m["cache.get_hit_ns"], m["cache.get_miss_ns"], m["cache.put_ns"] = hit.getHitNs, lc.getMissNs, lc.putNs
	m["policy.rank_ns"], m["policy.observe_ns"] = lc.rankNs, lc.observeNs
	m["sched.submit_ns"], m["sched.queue_wait_us"] = lc.submitNs, lc.queueWaitUs
	m["jsonpath.decode_ns"], m["jsonpath.extract_ns"] = lc.decodeNs, lc.extractNs
	m["stream.spool_mbps"], m["stream.allocs_per_mib"] = lc.spoolMBps, lc.spoolAllocsPerMiB
	m["obs.span_ns"], m["obs.span_allocs"] = lc.spanNs, lc.spanAllocs
	if miss.upstreamUs > 0 {
		// The probe's own origin exchanges are the ones its misses waited for;
		// they also stand in where the timed phases made none (hit_small).
		upstreamUs = miss.upstreamUs
		if m["upstream.busy_us_per_call"] == 0 {
			m["upstream.busy_us_per_call"] = upstreamUs
		}
	}
	res.Budget = buildBudget(hit, miss, lc, in.sharedTier, upstreamUs)
	for _, row := range res.Budget {
		if row.Layer == unattributed {
			m["proxy.unattributed_"+row.Path+"_us"] = row.UsPerReq
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("direct ServeHTTP probes: %d hits, %d misses (%.1f prefetch instances per miss)", hit.n, miss.n, miss.instances))
}
