package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sort"
	"sync"
	"time"

	"appx/internal/apps"
	"appx/internal/httpmsg"
	"appx/internal/lab"
	"appx/internal/netem"
	"appx/internal/static"
	"appx/internal/trace"
)

// session_replay emulates the paper's user study (§6.3) on internal/lab:
// emulated 4G devices replay seeded think-time traces of each app through a
// proxy whose origin links carry the Table-2 RTTs. All emulated time runs at
// replayScale and is reported unscaled, in paper-real units.
const (
	replayScale      = 0.1
	replayThinkSpeed = 8.0
	// replaySession is the unscaled session length per second of --seconds:
	// 10 s replays the paper's 3-minute sessions.
	replaySession = 18 * time.Second
	// replayStagger separates the devices' launches, as exp.replayStudy does:
	// real participants do not all launch at the same instant.
	replayStagger = 50 * time.Millisecond
	// replayBodyKeep bounds the response bodies kept per app for the probes.
	replayBodyKeep     = 48
	replayBodyKeepSize = 256 << 10
)

var bodySeed = maphash.MakeSeed()

// seenTxn is one distinct device request and what came back for it.
type seenTxn struct {
	req    *httpmsg.Request
	user   string // the first device user that sent it
	status int
	sum    uint64
	body   []byte // kept for a bounded sample only
}

// appRun is one app's lab plus everything its devices measured.
type appRun struct {
	app *apps.App
	lab *lab.Lab

	// keepBodies retains a bounded sample of response bodies for the layer
	// probes; an untraced run keeps only their hashes, so live_heap_mb is the
	// labs' heap.
	keepBodies bool

	mu       sync.Mutex
	seen     map[string]*seenTxn
	order    []string // keys of seen, first-seen order
	kept     int
	ttfbUs   []float64 // per transaction, request → first response byte, unscaled
	bytes    int64
	txns     int64
	failures []error

	mainMs, mainNetMs, mainProcMs []float64 // per main interaction, unscaled
	interactions                  int
}

// deviceTransport replaces the emulated device's HTTP client with an
// equivalent one the benchmark owns (same proxy, same shaped 4G link, same
// user tag), so every transaction can be timed to its first and last byte and
// its body checked against the origin.
type deviceTransport struct {
	run    *appRun
	client *http.Client
	user   string
	tr     *tracer
}

func newDeviceTransport(run *appRun, user string, tr *tracer) *deviceTransport {
	link := netem.Mobile4G()
	link.RTT = time.Duration(float64(link.RTT) * replayScale)
	link.Bandwidth = int64(float64(link.Bandwidth) / replayScale)
	dialer := &netem.Dialer{Link: link, Timeout: 10 * time.Second}
	return &deviceTransport{run: run, user: user, tr: tr, client: &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			Proxy:               http.ProxyURL(&url.URL{Scheme: "http", Host: run.lab.ProxyAddr()}),
			DialContext:         dialer.DialContext,
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
			DisableCompression:  true,
		},
	}}
}

func (t *deviceTransport) RoundTrip(r *httpmsg.Request) (*httpmsg.Response, error) {
	hreq, err := r.ToHTTP()
	if err != nil {
		return nil, err
	}
	hreq.Host = r.Host
	hreq.Header.Set("X-Appx-User", t.user)
	var first time.Time
	hreq = hreq.WithContext(httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	}))
	start := time.Now()
	hresp, err := t.client.Do(hreq)
	if err != nil {
		t.run.fail(fmt.Errorf("%s %s: %w", r.Method, r.URL(), err))
		return nil, err
	}
	resp, err := httpmsg.FromHTTPResponse(hresp)
	end := time.Now()
	if err != nil {
		t.run.fail(fmt.Errorf("%s %s: %w", r.Method, r.URL(), err))
		return nil, err
	}
	t.tr.span("device.transaction", 0, 0, start, end)
	t.run.record(t.user, r, resp, first.Sub(start))
	return resp, nil
}

func (a *appRun) fail(err error) {
	a.mu.Lock()
	a.failures = append(a.failures, err)
	a.mu.Unlock()
}

func unscaledUs(d time.Duration) float64 { return float64(d) / replayScale / 1e3 }

func (a *appRun) record(user string, r *httpmsg.Request, resp *httpmsg.Response, ttfb time.Duration) {
	sum := maphash.Bytes(bodySeed, resp.Body)
	key := r.CanonicalKey()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.txns++
	a.bytes += int64(len(resp.Body))
	a.ttfbUs = append(a.ttfbUs, unscaledUs(ttfb))
	if prev, ok := a.seen[key]; ok {
		if prev.sum != sum || prev.status != resp.Status {
			a.failures = append(a.failures, fmt.Errorf("%s %s: two different answers to one request", r.Method, r.URL()))
		}
		return
	}
	st := &seenTxn{req: r.Clone(), user: user, status: resp.Status, sum: sum}
	if a.keepBodies && a.kept < replayBodyKeep && len(resp.Body) <= replayBodyKeepSize {
		st.body = resp.Body
		a.kept++
	}
	a.seen[key] = st
	a.order = append(a.order, key)
}

// verify replays every distinct device request against the app's origin
// handler in process and compares status and body hash with what the device
// received through the proxy.
func (a *appRun) verify() {
	h := a.app.Handler(1e-9) // the origin's think time scaled to nothing
	for _, key := range a.order {
		st := a.seen[key]
		want, err := httpmsg.ServeViaHandler(h, st.req)
		if err != nil {
			a.failures = append(a.failures, fmt.Errorf("origin replay %s: %w", st.req.URL(), err))
			continue
		}
		if want.Status != st.status || maphash.Bytes(bodySeed, want.Body) != st.sum {
			a.failures = append(a.failures, fmt.Errorf("%s %s: device got status %d and a body the origin does not send (origin: %d, %d bytes)",
				st.req.Method, st.req.URL(), st.status, want.Status, len(want.Body)))
		}
	}
}

// bootApp is one app's set-up: static analysis and lab boot (lab.New does
// both), trace generation, device provisioning.
func bootApp(app *apps.App, prefetch bool, seed int64, users int, session time.Duration, tr *tracer) (*appRun, []*trace.Trace, []trace.Driver, error) {
	l, err := lab.New(lab.Options{App: app, Scale: replayScale, Prefetch: prefetch})
	if err != nil {
		return nil, nil, nil, err
	}
	run := &appRun{app: app, lab: l, seen: map[string]*seenTxn{}, keepBodies: tr != nil}
	traces := trace.GenerateStudy(app.APK, users, seed, session)
	devices := make([]trace.Driver, len(traces))
	for i, t := range traces {
		d, err := l.NewDevice(t.User)
		if err != nil {
			l.Close()
			return nil, nil, nil, err
		}
		d.Env().Transport = newDeviceTransport(run, t.User, tr)
		devices[i] = d
	}
	return run, traces, devices, nil
}

// replay drives every device through its trace, closed loop with think time.
func (a *appRun) replay(traces []*trace.Trace, devices []trace.Driver, tr *tracer) {
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * replayStagger)
			for _, m := range trace.Replay(devices[i], traces[i], replayThinkSpeed/replayScale) {
				a.mu.Lock()
				a.interactions++
				if m.Err != nil {
					a.failures = append(a.failures, fmt.Errorf("replay %s %s: %w", traces[i].User, m.Event.Widget, m.Err))
				} else if m.Event.Main {
					a.mainMs = append(a.mainMs, unscaledUs(m.Measure.Total)/1e3)
					a.mainNetMs = append(a.mainNetMs, unscaledUs(m.Measure.Network)/1e3)
					a.mainProcMs = append(a.mainProcMs, unscaledUs(m.Measure.Processing)/1e3)
				}
				a.mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	settle(a.lab.Proxy)
}

// study is the user study over the chosen apps: one lab per app, replayed
// all at once (an app's lab idles on emulated delays nine tenths of the time).
type study struct {
	runs    []*appRun
	traces  [][]*trace.Trace
	devices [][]trace.Driver
	elapsed time.Duration
}

func (s *study) close() {
	for _, r := range s.runs {
		r.lab.Close()
	}
}

func replayApps(sz sizes) []*apps.App { return apps.All()[:sz.replayApps] }

// bootStudy is session_replay's set-up: per app, static analysis, lab and
// proxy boot, trace generation and device provisioning.
func bootStudy(prefetch bool, seed int64, sz sizes, session time.Duration, tr *tracer) (*study, error) {
	st := &study{}
	for _, app := range replayApps(sz) {
		run, traces, devices, err := bootApp(app, prefetch, seed, sz.replayUsers, session, tr)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("session_replay: %s: %w", app.Name, err)
		}
		st.runs = append(st.runs, run)
		st.traces = append(st.traces, traces)
		st.devices = append(st.devices, devices)
	}
	return st, nil
}

// replay runs every app's study and then checks every distinct response
// against the app's origin.
func (s *study) replay(tr *tracer) {
	start := time.Now()
	var wg sync.WaitGroup
	for i, run := range s.runs {
		wg.Add(1)
		go func(i int, run *appRun) {
			defer wg.Done()
			run.replay(s.traces[i], s.devices[i], tr)
		}(i, run)
	}
	wg.Wait()
	s.elapsed = time.Since(start)
	for _, run := range s.runs {
		run.verify()
	}
}

// totals sums the device-side tallies over the apps.
func (s *study) totals() (txns, interactions, bytes int64, failures []error) {
	for _, r := range s.runs {
		txns += r.txns
		interactions += int64(r.interactions)
		bytes += r.bytes
		failures = append(failures, r.failures...)
	}
	return
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// perApp returns the mean over apps of f applied to each app's run.
func (s *study) perApp(f func(*appRun) float64) float64 {
	var vals []float64
	for _, r := range s.runs {
		vals = append(vals, f(r))
	}
	return mean(vals)
}

func (s *study) mainQuantile(q float64) float64 {
	return s.perApp(func(r *appRun) float64 { return quantile(sortedCopy(r.mainMs), q) })
}

// analyzeApps times static.Analyze on each app and counts what it finds.
func analyzeApps(sz sizes) (ms float64, sigs, deps int, err error) {
	for _, app := range replayApps(sz) {
		t0 := time.Now()
		g, err := static.Analyze(app.APK.Program, app.Name, app.APK.Entries(), static.Options{Features: static.AllFeatures()})
		if err != nil {
			return 0, 0, 0, err
		}
		ms += float64(time.Since(t0)) / 1e6
		sigs += len(g.Sigs)
		deps += len(g.Deps)
	}
	return ms, sigs, deps, nil
}
