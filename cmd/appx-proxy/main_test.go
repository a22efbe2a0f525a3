package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"appx/internal/apps"
	"appx/internal/cluster"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/persist"
	"appx/internal/proxy"
	"appx/internal/sig"
)

// TestGracefulShutdown: cancelling serve's parent context (the test stand-in
// for SIGTERM) lets an in-flight request finish with its real response,
// refuses requests that arrive during the drain, and returns nil — a clean
// exit with nothing dropped.
func TestGracefulShutdown(t *testing.T) {
	entered := make(chan struct{})
	var once sync.Once
	up := proxy.UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/slow" {
			once.Do(func() { close(entered) })
			// Long enough that the shutdown signal definitely lands while
			// this request is still in flight.
			time.Sleep(200 * time.Millisecond)
		}
		return &httpmsg.Response{Status: 200, Body: []byte("origin:" + r.Path)}, nil
	})
	g := sig.NewGraph("t")
	px := proxy.New(proxy.Options{Graph: g, Config: config.Default(g), Upstream: up, DisablePrefetch: true})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serve(ctx, px, ln, options{drainTimeout: 5 * time.Second})
	}()

	proxyURL := &url.URL{Scheme: "http", Host: ln.Addr().String()}
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}

	inflight := make(chan error, 1)
	go func() {
		resp, err := client.Get("http://app.example/slow")
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 || string(body) != "origin:/slow" {
			inflight <- fmt.Errorf("in-flight request got %d %q", resp.StatusCode, body)
			return
		}
		inflight <- nil
	}()
	<-entered

	// The shutdown signal arrives while /slow is still being served.
	cancel()
	// Wait for the drain to take effect, then verify new work is refused
	// while the old request is still completing.
	deadline := time.Now().Add(time.Second)
	for !px.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !px.Draining() {
		t.Fatal("proxy never entered draining after context cancel")
	}
	if resp, err := client.Get("http://app.example/late"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != 503 {
			t.Fatalf("request during drain = %d, want 503", resp.StatusCode)
		}
	}

	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request dropped during shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v, want nil on clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after drain")
	}
}

// TestShutdownLeavesNoGoroutines: a full serve lifecycle — prune loop,
// cache sweeper, prefetch workers, snapshot loop, disk-tier spill worker —
// must stop every goroutine it started by the time serve returns. The old
// code returned without waiting for the prune loop; this pins the fix.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	up := proxy.UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	baseline := runtime.NumGoroutine()

	g := sig.NewGraph("t")
	px := proxy.New(proxy.Options{
		Graph: g, Config: config.Default(g), Upstream: up,
		StateDir:         t.TempDir(),
		SnapshotInterval: 10 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serve(ctx, px, ln, options{
			drainTimeout:  5 * time.Second,
			pruneInterval: 5 * time.Millisecond,
			pruneMaxIdle:  time.Minute,
		})
	}()

	proxyURL := &url.URL{Scheme: "http", Host: ln.Addr().String()}
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
	if resp, err := client.Get("http://app.example/x"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	client.CloseIdleConnections()
	// Let the prune and snapshot loops demonstrably tick before shutdown.
	time.Sleep(30 * time.Millisecond)

	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return")
	}

	// Idle HTTP transport goroutines unwind asynchronously; poll briefly.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	var sb strings.Builder
	pprof.Lookup("goroutine").WriteTo(&sb, 1)
	t.Fatalf("goroutines leaked after shutdown: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), sb.String())
}

// TestShutdownAbortsClusterProbes pins the shutdown ordering for cluster
// mode: BeginDrain closes the cluster (cancelling its in-flight probes and
// forwards) before the final state snapshot is written and before serve
// returns. A peer that accepts connections but never answers would
// otherwise hold a probe for the full 30s probe timeout and stall the exit.
func TestShutdownAbortsClusterProbes(t *testing.T) {
	// A peer that reads nothing and writes nothing: probes to it hang until
	// their context is cancelled.
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer hung.Close()
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	up := proxy.UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	g := sig.NewGraph("t")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	stateDir := t.TempDir()
	px := proxy.New(proxy.Options{
		Graph: g, Config: config.Default(g), Upstream: up,
		StateDir: stateDir,
		Cluster: cluster.Config{
			Self:          ln.Addr().String(),
			Peers:         []string{ln.Addr().String(), hung.Addr().String()},
			ProbeInterval: 10 * time.Millisecond,
			ProbeTimeout:  30 * time.Second, // shutdown must not wait this out
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serve(ctx, px, ln, options{drainTimeout: 5 * time.Second})
	}()
	// Let at least one probe to the hung peer get in flight.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("serve stuck behind a hung cluster probe")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown took %v with a hung peer; cluster close must abort probes", elapsed)
	}
	// BeginDrain snapshots after the cluster is down: the final state must
	// be on disk.
	if _, err := os.Stat(filepath.Join(stateDir, persist.SnapshotFile)); err != nil {
		t.Fatalf("final drain snapshot missing: %v", err)
	}
}

// TestFlagSurface pins the exact command-line surface: deployment facts only.
// Tuning values live in the -config file; a flag added here that shadows a
// config field brings back the second way to tune.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"app", "capture-max-bytes", "cluster-peers", "cluster-probe-interval",
		"cluster-self", "config", "drain-timeout", "fault", "fault-seed",
		"listen", "max-body-bytes", "origin", "prune-interval", "prune-max-idle",
		"scale", "sigs", "snapshot-interval", "state-dir", "verify",
		"workers",
	}
	fs := flag.NewFlagSet("appx-proxy", flag.ContinueOnError)
	registerFlags(fs, new(options))
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flag surface changed:\n got  %v\n want %v", got, want)
	}
}

// TestOptionsSurface pins the field names of proxy.Options and
// cluster.Config, the two structs the flags fill: a new knob has to edit this
// test, and should first show that some caller needs a value other than its
// default.
func TestOptionsSurface(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{proxy.Options{}, "Graph Config Upstream Workers MaxCacheEntriesPerUser " +
			"DisablePrefetch DisableChaining Rand Now StreamChunkBytes " +
			"CaptureMaxBytes MaxBodyBytes StateDir SnapshotInterval PersistFaults Cluster DisableHedging"},
		{cluster.Config{}, "Self Peers ProbeInterval ProbeTimeout FailureThreshold Now Dial"},
	} {
		typ := reflect.TypeOf(tc.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%v fields changed:\n got  %s\n want %s", typ, strings.Join(got, " "), tc.want)
		}
	}
}

// TestReadmeFlagRowsNameLiveFlags: every `| `-name` |` row of README.md's
// flag tables names a flag registerFlags declares, so a deleted flag cannot
// stay documented.
func TestReadmeFlagRowsNameLiveFlags(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("appx-proxy", flag.ContinueOnError)
	registerFlags(fs, new(options))
	rows := 0
	for _, line := range strings.Split(string(readme), "\n") {
		rest, ok := strings.CutPrefix(line, "| `-")
		if !ok {
			continue
		}
		name, _, ok := strings.Cut(rest, "`")
		if !ok {
			continue
		}
		rows++
		if fs.Lookup(name) == nil {
			t.Errorf("README documents -%s, which appx-proxy does not declare", name)
		}
	}
	if rows == 0 {
		t.Fatal("README has no flag rows")
	}
}

// TestWorkersDefault: the -workers default is the proxy's own pool default,
// defined once.
func TestWorkersDefault(t *testing.T) {
	fs := flag.NewFlagSet("appx-proxy", flag.ContinueOnError)
	var o options
	registerFlags(fs, &o)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.px.Workers != proxy.DefaultWorkers || fs.Lookup("workers").DefValue != strconv.Itoa(proxy.DefaultWorkers) {
		t.Fatalf("-workers default %d (%s), want proxy.DefaultWorkers %d",
			o.px.Workers, fs.Lookup("workers").DefValue, proxy.DefaultWorkers)
	}
}

// TestConfigFileIsTheTuningSurface: a -config file carrying only one tuning
// section loads, the matching Effective*() view reflects it with the rest
// defaulted, the untouched sections keep their defaults, and a proxy boots
// on it with every prefetch policy at its default. A file carrying the
// removed resilience section does not load, and the error names its keys.
func TestConfigFileIsTheTuningSurface(t *testing.T) {
	a := apps.Wish()
	g, err := loadGraph(a, "")
	if err != nil {
		t.Fatalf("loadGraph: %v", err)
	}
	up := proxy.UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	cases := []struct {
		name, body string
		check      func(*testing.T, *config.Config)
	}{
		{"resilience", `{"resilience":{"breaker_failures":2,"retry_attempts":4}}`, nil},
		{"cache", `{"cache":{"max_bytes":1048576,"disable_shared_tier":true}}`, func(t *testing.T, c *config.Config) {
			v := c.EffectiveCache()
			if v.MaxBytes != 1<<20 || !v.DisableSharedTier || v.PerUserBytes != 1<<20 {
				t.Fatalf("cache = %+v", v)
			}
		}},
		{"overload", `{"overload":{"max_concurrent_requests":8,"queue_deadline":"800ms","max_queue":64}}`, func(t *testing.T, c *config.Config) {
			v := c.EffectiveOverload()
			if v.MaxConcurrentRequests != 8 || time.Duration(v.QueueDeadline) != 800*time.Millisecond ||
				v.MaxQueue != 64 || time.Duration(v.AdmissionWait) != 100*time.Millisecond {
				t.Fatalf("overload = %+v", v)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tune.json")
			if err := os.WriteFile(path, []byte(tc.body), 0o600); err != nil {
				t.Fatal(err)
			}
			cfg, err := loadConfig(options{cfgPath: path}, a, g)
			if tc.check == nil {
				if err == nil || !strings.Contains(err.Error(), `"breaker_failures", "retry_attempts"`) {
					t.Fatalf("loadConfig = %v, want the removed keys named", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("loadConfig: %v", err)
			}
			tc.check(t, cfg)
			if tc.name != "overload" && cfg.EffectiveOverload() != (config.Overload{}).Filled() {
				t.Fatalf("untouched overload section not at defaults: %+v", cfg.EffectiveOverload())
			}
			// No policies in the file: every signature prefetches as under
			// config.Default (probability 1, default expiry).
			if p := cfg.EffectiveProbability(cfg.Policy(g.Sig(g.Prefetchable()[0]).Hash())); p != 1 {
				t.Fatalf("default prefetch probability = %v, want 1", p)
			}
			px := proxy.New(proxy.Options{Graph: g, Config: cfg, Upstream: up})
			defer px.Close()
			req, _ := http.NewRequest("GET", "http://api.wish.example/x", nil)
			rec := httptest.NewRecorder()
			px.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("proxy booted on %s-only config answered %d", tc.name, rec.Code)
			}
		})
	}
}
