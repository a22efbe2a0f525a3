// Package lab wires a complete evaluation environment together: an app's
// origin servers on real TCP listeners, the APPx static analysis, the
// acceleration proxy serving on its own listener, WAN emulation on both hops
// (client↔proxy and proxy↔origin), and emulated devices as clients.
//
// Every emulated delay is multiplied by a Scale factor so the full §6
// evaluation fits a CI budget: the system is linear in time (all waits are
// propagation, serialization, server compute, or render sleeps), so scaled
// runs preserve ratios and, after dividing by Scale, approximate the
// paper-real absolute numbers.
package lab

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"appx/internal/apps"
	"appx/internal/config"
	"appx/internal/device"
	"appx/internal/interp"
	"appx/internal/netem"
	"appx/internal/proxy"
	"appx/internal/sig"
	"appx/internal/static"
)

// Options configures a Lab.
type Options struct {
	// App is the application under test.
	App *apps.App
	// Scale compresses all emulated time (default 1 = paper-real).
	Scale float64
	// Prefetch enables the acceleration path; false reproduces the "Orig"
	// baseline (proxy as a pure forwarder).
	Prefetch bool
	// ProxyOriginRTT, when set, overrides every host's Table-2 RTT — the
	// Figure 15/16 sweep knob (50/100/150 ms).
	ProxyOriginRTT time.Duration
	// ClientLink shapes the device↔proxy hop before scaling; defaults to
	// the paper's 4G profile (55 ms / 25 Mbps).
	ClientLink netem.Link
	// OriginBandwidth shapes the proxy↔origin hop (default 25 Mbps, §6.2).
	OriginBandwidth int64
	// Features selects the static-analysis extensions (default: all).
	Features *static.Features
	// Configure mutates the derived proxy configuration before start.
	Configure func(*config.Config)
	// Workers sizes the proxy prefetch pool.
	Workers int
	// DisableChaining ablates recursive (chain) prefetching.
	DisableChaining bool
	// RefreshExpired enables the refresh-on-expire extension.
	RefreshExpired bool
	// SharedTier enables the cross-user shared cache tier. Off by default:
	// the §6 replications measure per-user data usage, and sharing (an
	// extension beyond the paper's per-user prototype) would let one user's
	// prefetch serve another, changing what Figure 16's metric means.
	SharedTier bool
}

// Lab is a running evaluation environment.
type Lab struct {
	App    *apps.App
	Graph  *sig.Graph
	Config *config.Config
	Proxy  *proxy.Proxy
	Scale  float64

	clientLink netem.Link
	upstream   *proxy.NetUpstream
	proxyAddr  string
	originSrv  *http.Server
	proxySrv   *http.Server
	originLn   net.Listener
	proxyLn    net.Listener
}

// New analyzes the app, starts its origin and the proxy, and returns the
// running lab.
func New(o Options) (*Lab, error) {
	if o.App == nil {
		return nil, fmt.Errorf("lab: no app")
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.ClientLink == (netem.Link{}) {
		o.ClientLink = netem.Mobile4G()
	}
	if o.OriginBandwidth == 0 {
		o.OriginBandwidth = 25_000_000
	}
	feats := static.AllFeatures()
	if o.Features != nil {
		feats = *o.Features
	}

	g, err := static.Analyze(o.App.APK.Program, o.App.Name, o.App.APK.Entries(), static.Options{Features: feats})
	if err != nil {
		return nil, fmt.Errorf("lab: analyze %s: %w", o.App.Name, err)
	}
	cfg := config.Default(g)
	if !o.SharedTier {
		cc := cfg.EffectiveCache()
		cc.DisableSharedTier = true
		cfg.Cache = &cc
	}
	if o.Configure != nil {
		o.Configure(cfg)
	}

	l := &Lab{App: o.App, Graph: g, Config: cfg, Scale: o.Scale}
	l.clientLink = scaleLink(o.ClientLink, o.Scale)

	// Origin: one listener serves all of the app's hosts (routed by Host).
	l.originLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("lab: origin listen: %w", err)
	}
	l.originSrv = &http.Server{Handler: o.App.Handler(o.Scale)}
	go l.originSrv.Serve(l.originLn)

	// Upstream: per-host shaped links from Table 2 (or the sweep override).
	resolve := map[string]string{}
	links := map[string]netem.Link{}
	for _, host := range o.App.Hosts {
		rtt := o.App.HostRTT[host]
		if o.ProxyOriginRTT > 0 {
			rtt = o.ProxyOriginRTT
		}
		resolve[host] = l.originLn.Addr().String()
		links[host] = scaleLink(netem.Link{RTT: rtt, Bandwidth: o.OriginBandwidth}, o.Scale)
	}
	up := proxy.NewNetUpstream(resolve, links)
	l.upstream = up

	l.Proxy = proxy.New(proxy.Options{
		Graph:           g,
		Config:          cfg,
		Upstream:        up,
		Workers:         o.Workers,
		DisablePrefetch: !o.Prefetch,
		DisableChaining: o.DisableChaining,
		RefreshExpired:  o.RefreshExpired,
	})

	l.proxyLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("lab: proxy listen: %w", err)
	}
	l.proxyAddr = l.proxyLn.Addr().String()
	l.proxySrv = &http.Server{Handler: l.Proxy}
	go l.proxySrv.Serve(l.proxyLn)
	return l, nil
}

// scaleLink compresses a link's time behaviour by s: delays shrink, the
// bandwidth grows so transfer times shrink proportionally.
func scaleLink(link netem.Link, s float64) netem.Link {
	out := netem.Link{RTT: time.Duration(float64(link.RTT) * s)}
	if link.Bandwidth > 0 {
		out.Bandwidth = int64(float64(link.Bandwidth) / s)
	}
	return out
}

// ProxyAddr returns the proxy's listen address.
func (l *Lab) ProxyAddr() string { return l.proxyAddr }

// NewDevice provisions an emulated handset for the given user, with the
// app's render-delay model and per-user device properties.
func (l *Lab) NewDevice(user string) (*device.Device, error) {
	return device.New(device.Config{
		APK:         l.App.APK,
		RenderDelay: l.App.RenderDelay,
		Scale:       l.Scale,
		ProxyAddr:   l.proxyAddr,
		ClientLink:  l.clientLink,
		User:        user,
		Props: interp.DeviceProps{
			UserAgent:  "AppxEmu/1.0 (user " + user + ")",
			Locale:     "en-US",
			AppVersion: l.App.APK.Manifest.Version,
		},
	})
}

// Unscale converts a measured duration back to paper-real time.
func (l *Lab) Unscale(d time.Duration) time.Duration {
	return time.Duration(float64(d) / l.Scale)
}

// Close shuts down the proxy and origin, and closes the proxy's idle origin
// connections rather than leave them to the idle timeout.
func (l *Lab) Close() {
	if l.proxySrv != nil {
		l.proxySrv.Close()
	}
	if l.originSrv != nil {
		l.originSrv.Close()
	}
	if l.Proxy != nil {
		l.Proxy.Close()
	}
	if l.upstream != nil {
		l.upstream.CloseIdleConnections()
	}
}
