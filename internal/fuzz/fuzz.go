// Package fuzz implements the Monkey-style UI exerciser the paper uses in
// two roles: driving the app during the testing-and-verification phase
// (§4.3, "uses UI-fuzzing tools to generate random streams of user events")
// and as the "Auto UI fuzzing" baseline of Table 3 (random events at a fixed
// interval for a fixed duration).
package fuzz

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"appx/internal/apk"
	"appx/internal/device"
	"appx/internal/httpmsg"
	"appx/internal/interp"
)

// Driver abstracts the device surface the fuzzer pokes at.
type Driver interface {
	Launch() (device.Measure, error)
	Tap(widgetID string, index int) (device.Measure, error)
	Back() bool
	Screen() string
}

// Options configures a fuzzing session.
type Options struct {
	// Seed makes the event stream reproducible.
	Seed int64
	// Events is the number of UI events to inject (default 50).
	Events int
	// Interval is the pause between events (the paper uses 500 ms); zero
	// for as-fast-as-possible runs.
	Interval time.Duration
}

// Result summarizes a session.
type Result struct {
	// Events is the number of events injected (including the launch).
	Events int
	// Errors counts events whose handler failed; the app is relaunched
	// after an error, like Monkey restarting a crashed activity.
	Errors int
	// ScreensSeen is the set of screens rendered at least once.
	ScreensSeen map[string]bool
}

// Run drives the app with a random event stream.
func Run(d Driver, a *apk.APK, opts Options) (*Result, error) {
	if opts.Events <= 0 {
		opts.Events = 50
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &Result{ScreensSeen: map[string]bool{}}

	if _, err := d.Launch(); err != nil {
		return nil, fmt.Errorf("fuzz: launch: %w", err)
	}
	res.Events++
	res.ScreensSeen[d.Screen()] = true

	for res.Events < opts.Events {
		if opts.Interval > 0 {
			time.Sleep(opts.Interval)
		}
		screen := a.Screen(d.Screen())
		if screen == nil || len(screen.Widgets) == 0 {
			// Dead end (or pre-launch): relaunch, like Monkey returning to
			// the home activity.
			if _, err := d.Launch(); err != nil {
				res.Errors++
			}
			res.Events++
			res.ScreensSeen[d.Screen()] = true
			continue
		}
		w := screen.Widgets[rng.Intn(len(screen.Widgets))]
		res.Events++
		switch w.Kind {
		case apk.Back:
			d.Back()
		case apk.Button:
			if _, err := d.Tap(w.ID, 0); err != nil {
				res.Errors++
			}
		case apk.ListItem:
			if _, err := d.Tap(w.ID, rng.Intn(w.MaxIndex)); err != nil {
				res.Errors++
			}
		}
		res.ScreensSeen[d.Screen()] = true
	}
	return res, nil
}

// Record drives the app straight at its origin handler, in process and with
// no proxy in between, and returns every transaction in the order the app
// made them: the recorded traffic that differential tests, fuzz corpora and
// micro-benchmarks replay.
func Record(a *apk.APK, origin http.Handler, opts Options) ([]httpmsg.Transaction, error) {
	var txns []httpmsg.Transaction
	dev, err := device.New(device.Config{
		APK: a,
		Transport: interp.TransportFunc(func(r *httpmsg.Request) (*httpmsg.Response, error) {
			resp, err := httpmsg.ServeViaHandler(origin, r)
			if err == nil {
				txns = append(txns, httpmsg.Transaction{Request: r.Clone(), Response: resp})
			}
			return resp, err
		}),
		Props: interp.DeviceProps{UserAgent: "AppxRecord/1.0", Locale: "en-US", AppVersion: a.Manifest.Version},
	})
	if err != nil {
		return nil, fmt.Errorf("fuzz: %w", err)
	}
	if _, err := Run(dev, a, opts); err != nil {
		return nil, err
	}
	return txns, nil
}
