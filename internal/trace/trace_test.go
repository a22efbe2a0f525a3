package trace

import (
	"reflect"
	"testing"
	"time"

	"appx/internal/apps"
	"appx/internal/device"
	"appx/internal/httpmsg"
	"appx/internal/interp"
)

func inProcDevice(t testing.TB, a *apps.App) *device.Device {
	t.Helper()
	h := a.Handler(0)
	d, err := device.New(device.Config{
		APK:   a.APK,
		Scale: 1,
		Transport: interp.TransportFunc(func(r *httpmsg.Request) (*httpmsg.Response, error) {
			return httpmsg.ServeViaHandler(h, r)
		}),
		Props: interp.DeviceProps{UserAgent: "Trace/1.0", AppVersion: a.APK.Manifest.Version},
	})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	return d
}

func TestGenerateDeterministic(t *testing.T) {
	a := apps.Wish()
	t1 := Generate(a.APK, "u1", 99, 3*time.Minute)
	t2 := Generate(a.APK, "u1", 99, 3*time.Minute)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("same seed produced different traces")
	}
	t3 := Generate(a.APK, "u1", 100, 3*time.Minute)
	if reflect.DeepEqual(t1.Events, t3.Events) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateShape(t *testing.T) {
	a := apps.Wish()
	tr := Generate(a.APK, "u1", 7, 3*time.Minute)
	if len(tr.Events) < 10 {
		t.Fatalf("3-minute trace has only %d events", len(tr.Events))
	}
	if tr.Events[0].Kind != Launch {
		t.Fatal("trace does not start with launch")
	}
	var mains, taps int
	for _, e := range tr.Events {
		if e.Kind == Tap {
			taps++
			if e.Main {
				mains++
			}
		}
	}
	if taps == 0 || mains == 0 {
		t.Fatalf("taps = %d, main interactions = %d", taps, mains)
	}
	// Session duration target: within a factor of the requested 3 minutes.
	if d := tr.Duration(); d < 2*time.Minute || d > 5*time.Minute {
		t.Fatalf("trace duration = %v", d)
	}
	// Index skew: most selections near the top of the list.
	low, high := 0, 0
	for _, e := range tr.Events {
		if e.Kind == Tap && e.Widget == "item" {
			if e.Index < 8 {
				low++
			} else {
				high++
			}
		}
	}
	if low <= high {
		t.Fatalf("index skew missing: low=%d high=%d", low, high)
	}
}

func TestGenerateStudy(t *testing.T) {
	a := apps.DoorDash()
	traces := GenerateStudy(a.APK, 30, 1, 3*time.Minute)
	if len(traces) != 30 {
		t.Fatalf("traces = %d", len(traces))
	}
	users := map[string]bool{}
	for _, tr := range traces {
		if users[tr.User] {
			t.Fatalf("duplicate user %s", tr.User)
		}
		users[tr.User] = true
		if len(tr.Events) == 0 {
			t.Fatal("empty trace")
		}
	}
	if reflect.DeepEqual(traces[0].Events, traces[1].Events) {
		t.Fatal("users have identical traces")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	a := apps.Postmates()
	tr := Generate(a.APK, "u5", 3, time.Minute)
	b, err := tr.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	tr2, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(tr, tr2) {
		t.Fatal("round trip mismatch")
	}
	if _, err := Unmarshal([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReplayExecutesTrace(t *testing.T) {
	a := apps.DoorDash()
	d := inProcDevice(t, a)
	tr := Generate(a.APK, "u1", 11, 90*time.Second)
	// Huge speed factor: think times vanish, interactions still happen.
	results := Replay(d, tr, 1e6)
	if len(results) == 0 {
		t.Fatal("no interactions replayed")
	}
	var errs int
	for _, r := range results {
		if r.Err != nil {
			errs++
		}
	}
	if errs > 0 {
		t.Fatalf("%d replay errors: %+v", errs, results)
	}
	// Replay measures must carry traffic for tap events.
	sawMain := false
	for _, r := range results {
		if r.Event.Main && r.Measure.Transactions > 0 {
			sawMain = true
		}
	}
	if !sawMain {
		t.Fatal("no measured main interaction in replay")
	}
}

func TestReplayAgainstUIModelNeverDesyncs(t *testing.T) {
	// The generator's simulated navigation must match the app's actual
	// ui.render navigation for every app — otherwise replays tap widgets
	// that don't exist.
	for _, a := range apps.All() {
		d := inProcDevice(t, a)
		tr := Generate(a.APK, "sync", 23, 2*time.Minute)
		for i, r := range Replay(d, tr, 1e6) {
			if r.Err != nil {
				t.Fatalf("%s: event %d (%+v): %v", a.Name, i, r.Event, r.Err)
			}
		}
	}
}
