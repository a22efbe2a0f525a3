// Command appx-proxy runs the APPx acceleration proxy for one app.
//
// In emulation mode (the default) it also starts the app's origin servers in
// process behind emulated WAN links, so the whole §2 deployment — device,
// edge proxy, remote origins — is reachable from one machine:
//
//	appx-proxy -app wish -listen 127.0.0.1:8080
//	curl -x http://127.0.0.1:8080 http://api.wish.example/api/get-feed -X POST -d offset=0
//
// With -origin mappings the proxy fronts externally running origins instead:
//
//	appx-proxy -app wish -listen :8080 -origin api.wish.example=10.0.0.5:80,img.wish.example=10.0.0.6:80
//
// Signatures and configuration default to running Phase 1 (and optionally
// Phase 2 with -verify) at startup; pass -sigs/-config to use files from
// appx-analyze / appx-verify.
//
// Flags carry deployment facts only — addresses, origins, directories,
// cluster membership, fault drills, drain and prune timing. The tuning a
// caller varies (cache capacities, the shared tier, admission and prefetch
// queue bounds) lives in the -config file's "cache" and "overload"
// sections; a file holding only those sections keeps every prefetch policy
// at its default, and a key the file misspells, or one a version removed,
// fails the load by name.
//
// The origin path is resilient: a replayable request that fails gets one
// immediate retry, per-host circuit breakers shed traffic to sick origins,
// and failing prefetch signatures back off, all at fixed values. -fault
// injects deterministic connect failures for resilience drills:
//
//	appx-proxy -app wish -fault api.wish.example=0.3 -fault-seed 7
//
// The admin API is versioned under /appx/v1 (served directly, not
// proxied): /appx/v1/health reports breaker states, suspended signatures,
// and the overload mode; /appx/v1/stats adds cache and request-lifecycle
// telemetry; /appx/v1/spans returns the most recent per-request spans;
// /appx/v1/metrics is the same registry in Prometheus text format.
//
// The proxy protects itself under overload: an admission gate bounds
// concurrently served client requests (arrivals past it wait briefly, then
// get a 503), the prefetch queue refuses deep and then shallow speculative
// work as it fills, and queued prefetches past their deadline are dropped at
// dispatch. All of it is tuned by the config file's "overload" section.
//
// Cluster mode scales the proxy across instances: -cluster-self names this
// instance, -cluster-peers the static fleet seed list (the same value works
// on every instance), and the fleet forms a consistent-hash ring that pins
// each user's learned state to one owner. Requests landing on a non-owner
// are relayed there; user-agnostic cache misses try two ring siblings before
// the origin, hedging a slow one.
// Peers are health-probed every -cluster-probe-interval over /appx/v1/health
// and dead instances are rebalanced around without failing foreground
// requests:
//
//	appx-proxy -app wish -listen 127.0.0.1:7001 \
//	  -cluster-self 127.0.0.1:7001 -cluster-peers 127.0.0.1:7001,127.0.0.1:7002
//
// Shutdown is graceful: on SIGINT/SIGTERM the proxy stops admitting new
// proxied requests, finishes the in-flight ones (bounded by
// -drain-timeout), then exits cleanly. A background loop prunes user states
// idle longer than -prune-max-idle every -prune-interval.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"appx/internal/apps"
	"appx/internal/config"
	"appx/internal/netem"
	"appx/internal/proxy"
	"appx/internal/sig"
	"appx/internal/static"
	"appx/internal/verify"
)

// options collects the command-line configuration.
type options struct {
	appName  string
	listen   string
	sigsPath string
	cfgPath  string
	origins  string
	doVerify bool
	scale    float64

	// px receives every flag that is a proxy.Options field, verbatim; run
	// adds the graph, configuration, upstream and cluster peer list.
	px           proxy.Options
	clusterPeers string

	// Lifecycle.
	drainTimeout  time.Duration
	pruneInterval time.Duration
	pruneMaxIdle  time.Duration

	// Fault injection (resilience drills).
	fault     string
	faultSeed int64
}

// registerFlags declares the whole command-line surface on fs.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.appName, "app", "", "built-in app to accelerate")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8080", "proxy listen address")
	fs.StringVar(&o.sigsPath, "sigs", "", "signature graph JSON (default: analyze at startup)")
	fs.StringVar(&o.cfgPath, "config", "", "proxy configuration JSON: prefetch policies plus the cache and overload tuning sections (default: derived)")
	fs.StringVar(&o.origins, "origin", "", "comma-separated host=addr overrides; empty = start built-in origins in process")
	fs.BoolVar(&o.doVerify, "verify", false, "run Phase 2 verification before serving")
	fs.Float64Var(&o.scale, "scale", 1, "emulated time scale for in-process origins")
	fs.IntVar(&o.px.Workers, "workers", proxy.DefaultWorkers, "prefetch worker pool size")

	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests to finish")
	fs.DurationVar(&o.pruneInterval, "prune-interval", 5*time.Minute, "how often to prune idle per-user state (<=0 disables)")
	fs.DurationVar(&o.pruneMaxIdle, "prune-max-idle", 30*time.Minute, "idle age past which per-user state is pruned")

	fs.StringVar(&o.px.StateDir, "state-dir", "", "directory for crash-safe persistence (disk cache tier + state snapshots); empty disables")
	fs.DurationVar(&o.px.SnapshotInterval, "snapshot-interval", time.Minute, "periodic state-snapshot cadence when -state-dir is set (<=0 disables the loop; drain still snapshots)")

	fs.StringVar(&o.fault, "fault", "", "comma-separated host=prob connect-refusal injection, e.g. api.wish.example=0.3")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for the deterministic fault injector")

	fs.StringVar(&o.px.Cluster.Self, "cluster-self", "", "this instance's advertised host:port; non-empty enables cluster mode")
	fs.StringVar(&o.clusterPeers, "cluster-peers", "", "comma-separated host:port seed list (may include self; same value on every instance)")
	fs.DurationVar(&o.px.Cluster.ProbeInterval, "cluster-probe-interval", 0, "peer health-probe period (0 = default 1s)")

	fs.Int64Var(&o.px.CaptureMaxBytes, "capture-max-bytes", 0, "largest response body captured for cache insertion; bigger bodies stream through uncached (0 = default 4MiB)")
	fs.Int64Var(&o.px.MaxBodyBytes, "max-body-bytes", 0, "largest accepted client request body, 413 past it (0 = default 64MiB, <0 = unlimited)")
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "appx-proxy:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	a := apps.ByName(o.appName)
	if a == nil {
		return fmt.Errorf("unknown app %q", o.appName)
	}

	g, err := loadGraph(a, o.sigsPath)
	if err != nil {
		return err
	}

	cfg, err := loadConfig(o, a, g)
	if err != nil {
		return err
	}

	resolve := map[string]string{}
	links := map[string]netem.Link{}
	if o.origins == "" {
		// Emulation mode: start the app's origins in process.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: a.Handler(o.scale)}
		go srv.Serve(ln)
		for _, h := range a.Hosts {
			resolve[h] = ln.Addr().String()
			links[h] = netem.Link{
				RTT:       time.Duration(float64(a.HostRTT[h]) * o.scale),
				Bandwidth: int64(25_000_000 / o.scale),
			}
		}
		fmt.Fprintf(os.Stderr, "origins for %s emulated at %s (hosts: %s)\n",
			a.Name, ln.Addr(), strings.Join(a.Hosts, ", "))
	} else {
		for _, pair := range strings.Split(o.origins, ",") {
			kv := strings.SplitN(strings.TrimSpace(pair), "=", 2)
			if len(kv) != 2 {
				return fmt.Errorf("bad -origin entry %q (want host=addr)", pair)
			}
			resolve[kv[0]] = kv[1]
		}
	}

	up := proxy.NewNetUpstream(resolve, links)
	if o.fault != "" {
		in, err := parseFaults(o.fault, o.faultSeed)
		if err != nil {
			return err
		}
		up.SetFaults(in)
		fmt.Fprintf(os.Stderr, "fault injection active (%s, seed %d)\n", o.fault, o.faultSeed)
	}

	if o.px.Cluster.Self != "" {
		for _, p := range strings.Split(o.clusterPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				o.px.Cluster.Peers = append(o.px.Cluster.Peers, p)
			}
		}
		fmt.Fprintf(os.Stderr, "appx-proxy: cluster mode: self=%s peers=%v\n", o.px.Cluster.Self, o.px.Cluster.Peers)
	}

	o.px.Graph, o.px.Config, o.px.Upstream = g, cfg, up
	px := proxy.New(o.px)
	if o.px.StateDir != "" {
		switch outcome := px.RestoreOutcome(); outcome {
		case proxy.RestoreWarm:
			fmt.Fprintf(os.Stderr, "appx-proxy: warm restart: restored state from %s (%d users)\n",
				o.px.StateDir, px.UserCount())
		case proxy.RestoreFailed:
			fmt.Fprintf(os.Stderr, "appx-proxy: restore failed (%s); starting cold\n", px.RestoreDetail())
		default:
			fmt.Fprintf(os.Stderr, "appx-proxy: no usable snapshot in %s; starting cold\n", o.px.StateDir)
		}
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		px.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "appx-proxy for %s listening on %s (%d signatures, %d prefetchable)\n",
		a.Name, ln.Addr(), len(g.Sigs), len(g.Prefetchable()))
	return serve(context.Background(), px, ln, o)
}

// serve runs the proxy on the listener until the parent context is done or
// a termination signal arrives, then shuts down gracefully: stop admitting
// new proxied requests, wait (bounded by -drain-timeout) for the in-flight
// ones, and release the proxy's background resources. Returns nil on a
// clean signal-driven exit.
func serve(parent context.Context, px *proxy.Proxy, ln net.Listener, o options) error {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background loops are tracked so shutdown can prove they stopped: the
	// drain below waits for this group before releasing the proxy, so no
	// prune tick can race Store.Close and nothing leaks past serve's return.
	var bg sync.WaitGroup
	bgCtx, bgCancel := context.WithCancel(ctx)
	defer bgCancel()
	if o.pruneInterval > 0 && o.pruneMaxIdle > 0 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			pruneLoop(bgCtx, px, o.pruneInterval, o.pruneMaxIdle)
		}()
	}

	srv := &http.Server{Handler: px}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// closeAll tears down in dependency order: stop the background loops
	// that poke the proxy, then the proxy itself (scheduler → store →
	// persistence tier).
	closeAll := func() {
		bgCancel()
		bg.Wait()
		px.Close()
	}

	select {
	case err := <-errc:
		// The listener failed on its own; nothing is left to drain.
		closeAll()
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us
	fmt.Fprintln(os.Stderr, "appx-proxy: termination signal; draining in-flight requests")

	// Admission stops first so the drain only has to wait out requests that
	// were already in flight when the signal arrived. With -state-dir set,
	// BeginDrain also writes the final state snapshot.
	px.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		closeAll()
		return serveErr
	}
	closeAll()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "appx-proxy: drained; exiting")
	return nil
}

// pruneLoop periodically drops per-user proxy state idle past maxIdle, so a
// long-running proxy's memory tracks its active population rather than
// everyone it has ever served.
func pruneLoop(ctx context.Context, px *proxy.Proxy, every, maxIdle time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if n := px.PruneUsers(maxIdle); n > 0 {
				fmt.Fprintf(os.Stderr, "appx-proxy: pruned %d idle user states\n", n)
			}
		}
	}
}

// loadConfig resolves the proxy configuration: the -config file when given
// (the one tuning surface — a file carrying only cache or overload
// sections leaves every prefetch policy at its default), else the
// verification phase's output with -verify, else defaults derived from the
// graph.
func loadConfig(o options, a *apps.App, g *sig.Graph) (*config.Config, error) {
	switch {
	case o.cfgPath != "":
		b, err := os.ReadFile(o.cfgPath)
		if err != nil {
			return nil, err
		}
		return config.Unmarshal(b)
	case o.doVerify:
		rep, err := verify.Run(verify.Options{
			APK: a.APK, Graph: g, Origin: a.Handler(o.scale),
			FuzzEvents: 200, ProbeMax: time.Second,
		})
		if err != nil {
			return nil, fmt.Errorf("verification: %w", err)
		}
		fmt.Fprintf(os.Stderr, "verification: %d cleared, %d disabled\n", len(rep.Verified), len(rep.Disabled))
		return rep.Config, nil
	default:
		return config.Default(g), nil
	}
}

// parseFaults builds a deterministic connect-refusal injector from
// host=prob pairs.
func parseFaults(spec string, seed int64) (*netem.Injector, error) {
	in := netem.NewInjector(seed)
	for _, pair := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(pair), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -fault entry %q (want host=prob)", pair)
		}
		p, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("bad -fault probability %q (want 0..1)", kv[1])
		}
		in.SetFault(kv[0], netem.Fault{ConnectRefuseProb: p})
	}
	return in, nil
}

func loadGraph(a *apps.App, sigsPath string) (*sig.Graph, error) {
	if sigsPath != "" {
		b, err := os.ReadFile(sigsPath)
		if err != nil {
			return nil, err
		}
		return sig.Unmarshal(b)
	}
	return static.Analyze(a.APK.Program, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
}
