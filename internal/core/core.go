// Package core orchestrates the APPx framework end to end (Figure 4 of the
// paper): Phase 1 takes an app binary and statically extracts message
// signatures and inter-transaction dependencies, then instantiates an
// acceleration proxy from them; Phase 2 tests and verifies the proxy against
// live origins using UI fuzzing, filtering out signatures whose
// reconstructions fail and estimating expiration times; Phase 3 applies the
// service provider's configuration. The result is everything needed to
// deploy an app-specific acceleration proxy.
package core

import (
	"fmt"
	"net/http"
	"time"

	"appx/internal/apk"
	"appx/internal/config"
	"appx/internal/sig"
	"appx/internal/static"
	"appx/internal/verify"
)

// VerifyOptions configures Phase 2; a nil value skips verification (the
// default configuration is then used as-is).
type VerifyOptions struct {
	// Origin serves the app's live API for the fuzzing session.
	Origin http.Handler
	// FuzzSeed / FuzzEvents configure the event stream.
	FuzzSeed   int64
	FuzzEvents int
	// ProbeMin / ProbeMax bound expiration estimation (see verify.Options).
	ProbeMin, ProbeMax time.Duration
	// InstantProbe skips real sleeping during expiration probing (useful in
	// CI; content-change detection then only sees per-request variation).
	InstantProbe bool
}

// Options configures framework generation for one app.
type Options struct {
	// App is the short app name used in signature IDs.
	App string
	// APK is the application package (the "Android .apk" input).
	APK *apk.APK
	// Features selects static-analysis extensions; nil means all (§4.1).
	Features *static.Features
	// Verify enables Phase 2.
	Verify *VerifyOptions
	// Configure is the Phase-3 hook: the service provider's edits to the
	// initial configuration (expiry overrides, probabilities, conditions,
	// disabled signatures, data budget).
	Configure func(*config.Config)
}

// Artifacts is the framework output: everything a deployment needs.
type Artifacts struct {
	// Graph holds the extracted signatures and dependencies.
	Graph *sig.Graph
	// Config is the effective proxy configuration after all phases.
	Config *config.Config
	// Verification is the Phase-2 report (nil when skipped).
	Verification *verify.Report
}

// Generate runs the framework phases for one app.
func Generate(o Options) (*Artifacts, error) {
	if o.APK == nil {
		return nil, fmt.Errorf("core: no apk")
	}
	if o.App == "" {
		o.App = o.APK.Manifest.Package
	}
	if err := o.APK.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Phase 1: static program analysis → signatures + dependencies.
	feats := static.AllFeatures()
	if o.Features != nil {
		feats = *o.Features
	}
	g, err := static.Analyze(o.APK.Program, o.App, o.APK.Entries(), static.Options{Features: feats})
	if err != nil {
		return nil, fmt.Errorf("core: phase 1: %w", err)
	}

	art := &Artifacts{Graph: g, Config: config.Default(g)}

	// Phase 2: testing and verification.
	if o.Verify != nil {
		vo := verify.Options{
			APK:        o.APK,
			Graph:      g,
			Origin:     o.Verify.Origin,
			FuzzSeed:   o.Verify.FuzzSeed,
			FuzzEvents: o.Verify.FuzzEvents,
		}
		vo.ProbeMin = o.Verify.ProbeMin
		vo.ProbeMax = o.Verify.ProbeMax
		if o.Verify.InstantProbe {
			vo.Sleep = func(time.Duration) {}
		}
		rep, err := verify.Run(vo)
		if err != nil {
			return nil, fmt.Errorf("core: phase 2: %w", err)
		}
		art.Verification = rep
		art.Config = rep.Config
	}

	// Phase 3: configuration.
	if o.Configure != nil {
		o.Configure(art.Config)
	}
	return art, nil
}
