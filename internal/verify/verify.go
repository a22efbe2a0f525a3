// Package verify implements APPx's Phase 2, testing and verification (§4.3
// of the paper): before deployment, the framework drives the app with a
// UI fuzzer through the freshly generated proxy against live origins. A
// prefetchable signature survives only if the proxy actually managed to
// reconstruct and prefetch it successfully; signatures whose reconstructions
// error out, are rejected by the origin (when prefetched, or when a
// prefetched request is sent again), or never resolve their run-time values
// are removed from the prefetching set. The phase also estimates a
// per-signature expiration time by re-fetching each verified request with a
// doubling period until the response changes, and emits the initial proxy
// configuration.
package verify

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"appx/internal/apk"
	"appx/internal/config"
	"appx/internal/device"
	"appx/internal/fuzz"
	"appx/internal/httpmsg"
	"appx/internal/interp"
	"appx/internal/proxy"
	"appx/internal/sig"
)

// Options configures a verification run.
type Options struct {
	// APK is the application package under test.
	APK *apk.APK
	// Graph is the Phase-1 analysis output.
	Graph *sig.Graph
	// Origin serves the app's live API in process.
	Origin http.Handler

	// FuzzSeed/FuzzEvents configure the UI event stream (defaults 1 / 150).
	FuzzSeed   int64
	FuzzEvents int

	// Expiration probing: the period starts at ProbeMin and doubles until
	// the refetched response differs or ProbeMax is reached (defaults
	// 100 ms / 1 s — scale these with the emulation).
	ProbeMin time.Duration
	ProbeMax time.Duration
	// Sleep is injectable for tests; nil means time.Sleep.
	Sleep func(time.Duration)
}

// Reason explains why a signature was disabled.
type Reason string

const (
	// ReasonError marks transport failures during prefetching.
	ReasonError Reason = "prefetch transport error"
	// ReasonRejected marks non-200 origin answers to reconstructed requests.
	ReasonRejected Reason = "origin rejected reconstructed request"
	// ReasonUnresolved marks signatures whose instances never became ready
	// (run-time values missing) or that fuzzing never exercised.
	ReasonUnresolved Reason = "never successfully prefetched"
)

// Disabled is one filtered-out signature.
type Disabled struct {
	SigID  string `json:"sig"`
	Hash   string `json:"hash"`
	Reason Reason `json:"reason"`
}

// Report is the verification outcome.
type Report struct {
	App string `json:"app"`
	// Verified lists signature IDs cleared for prefetching.
	Verified []string `json:"verified"`
	// Disabled lists filtered signatures with reasons.
	Disabled []Disabled `json:"disabled"`
	// Expirations holds the estimated per-signature expiry.
	Expirations map[string]time.Duration `json:"expirations"`
	// Config is the resulting initial configuration (Phase 3 input).
	Config *config.Config `json:"config"`
	// FuzzEvents / FuzzErrors summarize the driving session.
	FuzzEvents int `json:"fuzzEvents"`
	FuzzErrors int `json:"fuzzErrors"`
}

// Run executes the verification phase.
func Run(o Options) (*Report, error) {
	if o.APK == nil || o.Graph == nil || o.Origin == nil {
		return nil, fmt.Errorf("verify: APK, Graph and Origin are required")
	}
	if o.FuzzEvents == 0 {
		o.FuzzEvents = 150
	}
	if o.ProbeMin == 0 {
		o.ProbeMin = 100 * time.Millisecond
	}
	if o.ProbeMax == 0 {
		o.ProbeMax = time.Second
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}

	cfg := config.Default(o.Graph)
	up := proxy.UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return httpmsg.ServeViaHandler(o.Origin, r)
	})
	px := proxy.New(proxy.Options{Graph: o.Graph, Config: cfg, Upstream: up})
	defer px.Close()

	// Drive the app through the proxy with random UI events, as a client
	// would.
	dev, err := device.New(device.Config{
		APK:   o.APK,
		Scale: 1,
		Transport: interp.TransportFunc(func(r *httpmsg.Request) (*httpmsg.Response, error) {
			return httpmsg.ServeViaHandler(px, r)
		}),
		Props: interp.DeviceProps{UserAgent: "AppxVerify/1.0", Locale: "en-US", AppVersion: o.APK.Manifest.Version},
	})
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	fres, err := fuzz.Run(dev, o.APK, fuzz.Options{Seed: o.FuzzSeed, Events: o.FuzzEvents})
	if err != nil {
		return nil, fmt.Errorf("verify: fuzzing: %w", err)
	}
	px.Drain()

	snap := px.Stats().Snapshot()
	rep := &Report{
		App:         o.Graph.App,
		Expirations: map[string]time.Duration{},
		Config:      cfg,
		FuzzEvents:  fres.Events,
		FuzzErrors:  fres.Errors,
	}

	prefetchable := o.Graph.Prefetchable()
	sort.Strings(prefetchable)
	for _, id := range prefetchable {
		s := o.Graph.Sig(id)
		st := snap.PerSig[id]
		var reason Reason
		switch {
		case st.PrefetchErrors > 0:
			reason = ReasonError
		case st.PrefetchRejects > 0:
			reason = ReasonRejected
		case st.Prefetches == 0:
			reason = ReasonUnresolved
		}
		// A verified request must still be accepted when sent again. One the
		// origin takes only once (a single-use token) fails whenever the
		// client sends it before the prefetch does, which the fuzzing session
		// may or may not have provoked.
		sample := px.SampleRequest(id)
		if reason == "" && sample != nil && !accepted(up, sample) {
			reason = ReasonRejected
		}
		pol := cfg.Policy(s.Hash())
		if pol == nil {
			pol = &config.Policy{Hash: s.Hash(), URI: s.URI.String(), Probability: 1}
			cfg.SetPolicy(pol)
		}
		if reason != "" {
			pol.Prefetch = false
			rep.Disabled = append(rep.Disabled, Disabled{SigID: id, Hash: s.Hash(), Reason: reason})
			continue
		}
		rep.Verified = append(rep.Verified, id)
		// Estimate expiry from a concrete verified request.
		if sample != nil {
			exp := EstimateExpiration(func() ([]byte, error) {
				resp, err := up.RoundTrip(context.Background(), sample)
				if err != nil {
					return nil, err
				}
				// Streaming upstreams hand the body over unread; the probe
				// compares whole bodies, so consume it here.
				if err := resp.Buffer(0); err != nil {
					return nil, err
				}
				return resp.Body, nil
			}, o.ProbeMin, o.ProbeMax, o.Sleep)
			rep.Expirations[id] = exp
			pol.ExpirationTime = config.Duration(exp)
		}
	}
	return rep, nil
}

// accepted reports whether the origin answers req with 200.
func accepted(up proxy.Upstream, req *httpmsg.Request) bool {
	resp, err := up.RoundTrip(context.Background(), req)
	if err != nil {
		return false
	}
	resp.Buffer(0)
	return resp.Status == http.StatusOK
}

// EstimateExpiration probes how long a response stays identical: it
// refetches with a doubling period, returning the first period at which the
// content differed, or max when the content never changed (§4.3: "The
// prefetch period is getting increased until the new one is different with
// the old one").
func EstimateExpiration(fetch func() ([]byte, error), min, max time.Duration, sleep func(time.Duration)) time.Duration {
	old, err := fetch()
	if err != nil {
		return min
	}
	for period := min; period < max; period *= 2 {
		sleep(period)
		cur, err := fetch()
		if err != nil {
			return period
		}
		if !bytes.Equal(old, cur) {
			return period
		}
		old = cur
	}
	return max
}
