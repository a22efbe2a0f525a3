// Package trace provides the user-study substrate of §6: event traces
// (click, scroll-select, back) with think times, a seeded synthetic
// behaviour generator standing in for the paper's 30 IRB participants ×
// 3 minutes per app (captured with Appetizer there), and a replayer that
// drives an emulated device "in real time to reflect the user think time"
// — optionally speed-scaled together with the rest of the emulation.
//
// The behaviour model reproduces the workload *shape* the paper reports:
// users glance over many list items, select only a few (so 1–5 % of
// prefetched responses are actually consumed), dwell on detail pages, and
// occasionally go one level deeper.
package trace

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"appx/internal/apk"
	"appx/internal/device"
)

// Kind enumerates event types.
type Kind string

const (
	// Launch starts (or restarts) the app.
	Launch Kind = "launch"
	// Tap activates a widget (list items carry an index).
	Tap Kind = "tap"
	// BackNav pops the screen stack.
	BackNav Kind = "back"
)

// Event is one recorded user action. Think is the pause *before* the event
// (the user reading the previous screen).
type Event struct {
	Kind   Kind          `json:"kind"`
	Widget string        `json:"widget,omitempty"`
	Index  int           `json:"index,omitempty"`
	Think  time.Duration `json:"think"`
	// Main marks the app's main interaction (Table 1) for reporting.
	Main bool `json:"main,omitempty"`
}

// Trace is one user session on one app.
type Trace struct {
	App    string  `json:"app"`
	User   string  `json:"user"`
	Events []Event `json:"events"`
}

// Duration sums think times plus a nominal per-interaction second, the
// session length the generator targets.
func (t *Trace) Duration() time.Duration {
	var d time.Duration
	for _, e := range t.Events {
		d += e.Think
		if e.Kind != BackNav {
			d += time.Second
		}
	}
	return d
}

// Marshal serializes the trace.
func (t *Trace) Marshal() ([]byte, error) { return json.MarshalIndent(t, "", " ") }

// Unmarshal parses a trace.
func Unmarshal(b []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &t, nil
}

// Generate synthesizes one user's session of roughly the given duration
// against the app's UI model. The same (app, user, seed) triple always
// yields the same trace.
func Generate(a *apk.APK, user string, seed int64, duration time.Duration) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{App: a.Manifest.Package, User: user}

	// Simulated navigation state mirrors the app's screen graph through
	// widget Target metadata.
	stack := []string{a.Manifest.LaunchScreen}
	t.Events = append(t.Events, Event{Kind: Launch})
	elapsed := 3 * time.Second // launch render + first look

	think := func(lo, hi time.Duration) time.Duration {
		d := lo + time.Duration(rng.Int63n(int64(hi-lo)))
		elapsed += d + time.Second
		return d
	}

	for elapsed < duration {
		cur := a.Screen(stack[len(stack)-1])
		if cur == nil || len(cur.Widgets) == 0 {
			// Dead-end screen: back out or relaunch.
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
				t.Events = append(t.Events, Event{Kind: BackNav, Think: think(1*time.Second, 3*time.Second)})
			} else {
				t.Events = append(t.Events, Event{Kind: Launch, Think: think(1*time.Second, 2*time.Second)})
			}
			continue
		}

		// Partition the widgets.
		var lists, buttons []apk.Widget
		hasBack := false
		for _, w := range cur.Widgets {
			switch w.Kind {
			case apk.ListItem:
				lists = append(lists, w)
			case apk.Button:
				buttons = append(buttons, w)
			case apk.Back:
				hasBack = true
			}
		}

		roll := rng.Float64()
		tapItem := func() {
			// Browse: select a list item, skewed toward the top of the list
			// (users glance over the first screenful).
			w := lists[rng.Intn(len(lists))]
			idx := int(rng.ExpFloat64() * 3)
			if idx >= w.MaxIndex {
				idx = rng.Intn(w.MaxIndex)
			}
			t.Events = append(t.Events, Event{
				Kind: Tap, Widget: w.ID, Index: idx, Main: w.Main,
				Think: think(2*time.Second, 8*time.Second),
			})
			if w.Target != "" {
				stack = append(stack, w.Target)
			}
		}
		tapButton := func() {
			w := buttons[rng.Intn(len(buttons))]
			t.Events = append(t.Events, Event{
				Kind: Tap, Widget: w.ID, Main: w.Main,
				Think: think(2*time.Second, 6*time.Second),
			})
			if w.Target != "" {
				stack = append(stack, w.Target)
			}
		}
		goBack := func() {
			stack = stack[:len(stack)-1]
			t.Events = append(t.Events, Event{Kind: BackNav, Think: think(1*time.Second, 4*time.Second)})
		}
		switch {
		case len(lists) > 0:
			// Browse screens: mostly item selections, occasionally a button
			// or a step back.
			switch {
			case roll < 0.70 || (!hasBack && len(buttons) == 0):
				tapItem()
			case len(buttons) > 0 && roll < 0.85:
				tapButton()
			case hasBack && len(stack) > 1:
				goBack()
			default:
				think(1*time.Second, 3*time.Second)
			}
		default:
			// Leaf screens (detail pages): after reading, users mostly go
			// back to browse more items — the paper's "glance over many
			// items" behaviour; sometimes they go one level deeper.
			switch {
			case len(buttons) > 0 && roll < 0.30:
				tapButton()
			case hasBack && len(stack) > 1:
				goBack()
			default:
				think(1*time.Second, 3*time.Second)
			}
		}
	}
	return t
}

// GenerateStudy produces the full user study: n users on one app, each a
// session of the given duration, deterministically from the base seed.
func GenerateStudy(a *apk.APK, n int, seed int64, duration time.Duration) []*Trace {
	out := make([]*Trace, n)
	for i := range out {
		out[i] = Generate(a, fmt.Sprintf("u%02d", i), seed+int64(i)*7919, duration)
	}
	return out
}

// Driver abstracts the replay target (an emulated device).
type Driver interface {
	Launch() (device.Measure, error)
	Tap(widgetID string, index int) (device.Measure, error)
	Back() bool
}

// InteractionMeasure couples a replayed event with its measured latency.
type InteractionMeasure struct {
	Event   Event
	Measure device.Measure
	Err     error
}

// Replay drives the device through the trace. Think times are divided by
// speed (1 = real time); interaction latencies are measured by the device
// itself and returned per event. Replay does not abort on individual
// interaction errors (a mid-session failure is recorded and the session
// continues, like a user retrying).
func Replay(d Driver, t *Trace, speed float64) []InteractionMeasure {
	if speed <= 0 {
		speed = 1
	}
	var out []InteractionMeasure
	for _, e := range t.Events {
		if e.Think > 0 {
			time.Sleep(time.Duration(float64(e.Think) / speed))
		}
		switch e.Kind {
		case Launch:
			m, err := d.Launch()
			out = append(out, InteractionMeasure{Event: e, Measure: m, Err: err})
		case Tap:
			m, err := d.Tap(e.Widget, e.Index)
			out = append(out, InteractionMeasure{Event: e, Measure: m, Err: err})
		case BackNav:
			d.Back()
		}
	}
	return out
}
