package lab

import (
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/apps"
	"appx/internal/config"
	"appx/internal/netem"
	"appx/internal/static"
)

func TestNewLabLifecycle(t *testing.T) {
	l, err := New(Options{App: apps.Postmates(), Scale: 0.02, Prefetch: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer l.Close()
	if l.Graph == nil || len(l.Graph.Sigs) == 0 {
		t.Fatal("no analysis output")
	}
	if l.Config == nil {
		t.Fatal("no config")
	}
	if l.ProxyAddr() == "" {
		t.Fatal("no proxy address")
	}
	// The proxy must answer HTTP on its listener.
	resp, err := http.Get("http://" + l.ProxyAddr() + "/")
	if err != nil {
		t.Fatalf("proxy not reachable: %v", err)
	}
	resp.Body.Close()
}

func TestNewLabValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
}

func TestScaleLink(t *testing.T) {
	l := scaleLink(netem.Link{RTT: 100 * time.Millisecond, Bandwidth: 1000}, 0.5)
	if l.RTT != 50*time.Millisecond {
		t.Fatalf("RTT = %v", l.RTT)
	}
	if l.Bandwidth != 2000 {
		t.Fatalf("bandwidth = %d (must grow as time shrinks)", l.Bandwidth)
	}
	if zero := scaleLink(netem.Link{}, 0.5); zero.Bandwidth != 0 {
		t.Fatal("unlimited bandwidth must stay unlimited")
	}
}

func TestUnscale(t *testing.T) {
	l := &Lab{Scale: 0.25}
	if got := l.Unscale(time.Second); got != 4*time.Second {
		t.Fatalf("Unscale = %v", got)
	}
}

func TestConfigureHookApplied(t *testing.T) {
	l, err := New(Options{
		App: apps.Postmates(), Scale: 0.02, Prefetch: true,
		Configure: func(c *config.Config) { c.GlobalProbability = 0.25 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Config.GlobalProbability != 0.25 {
		t.Fatal("Configure hook not applied")
	}
}

func TestFeaturesOverride(t *testing.T) {
	baseline := static.BaselineFeatures()
	l, err := New(Options{App: apps.Wish(), Scale: 0.02, Features: &baseline})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	full, err := New(Options{App: apps.Wish(), Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if len(l.Graph.Deps) >= len(full.Graph.Deps) {
		t.Fatalf("baseline deps %d >= full deps %d", len(l.Graph.Deps), len(full.Graph.Deps))
	}
}

func TestDeviceEndToEnd(t *testing.T) {
	l, err := New(Options{App: apps.Postmates(), Scale: 0.02, Prefetch: false})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d, err := l.NewDevice("labuser")
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	m, err := d.Launch()
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if m.Transactions == 0 || m.Bytes == 0 {
		t.Fatalf("launch measured nothing: %+v", m)
	}
}

func TestRTTOverrideChangesLatency(t *testing.T) {
	run := func(rtt time.Duration) time.Duration {
		l, err := New(Options{App: apps.Postmates(), Scale: 0.1, Prefetch: false, ProxyOriginRTT: rtt})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		d, err := l.NewDevice("u")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Launch(); err != nil {
			t.Fatal(err)
		}
		m, err := d.TapMain(0)
		if err != nil {
			t.Fatal(err)
		}
		return m.Network
	}
	if fast, slow := run(10*time.Millisecond), run(300*time.Millisecond); slow <= fast {
		t.Fatalf("RTT override ineffective: fast=%v slow=%v", fast, slow)
	}
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n.Add(int64(n))
	return n, err
}

// TestOriginBytesAreTheNumerator pins data_usage_x's numerator to the wire:
// the body bytes the app's origin handler writes, counted inside the origin,
// are exactly the proxy's ForwardedBytes + PrefetchedBytes. Three users open
// the same screens one after another, so later users' prefetches of the
// images the first holds are revalidated, and the sum covers the origin's
// 200s and its bodiless 304s alike.
func TestOriginBytesAreTheNumerator(t *testing.T) {
	app := *apps.Postmates()
	var wire atomic.Int64
	handler := app.Handler
	app.Handler = func(scale float64) http.Handler {
		h := handler(scale)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(countingWriter{w, &wire}, r)
		})
	}
	l, err := New(Options{App: &app, Scale: 0.02, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, user := range []string{"u1", "u2", "u3"} {
		d, err := l.NewDevice(user)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Launch(); err != nil {
			t.Fatalf("%s launch: %v", user, err)
		}
		if _, err := d.TapMain(0); err != nil {
			t.Fatalf("%s main: %v", user, err)
		}
		l.Proxy.Drain()
	}
	// A forwarded miss books its bytes once its pump is done, which may be
	// just after its client has the whole response.
	snap := l.Proxy.Stats().Snapshot()
	for deadline := time.Now().Add(5 * time.Second); snap.ForwardedBytes+snap.PrefetchedBytes != wire.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		snap = l.Proxy.Stats().Snapshot()
	}
	if got := snap.ForwardedBytes + snap.PrefetchedBytes; got != wire.Load() {
		t.Fatalf("forwarded %d + prefetched %d = %d bytes; the origin wrote %d", snap.ForwardedBytes, snap.PrefetchedBytes, got, wire.Load())
	}
	if snap.NotModified == 0 || snap.RevalidatedPrefetchBytes == 0 {
		t.Fatalf("no revalidation answered 304 (%d 304s, %d full answers)", snap.NotModified, snap.Modified)
	}
	t.Logf("%d origin body bytes; %d 304s stood for %d more", wire.Load(), snap.NotModified, snap.RevalidatedPrefetchBytes+snap.RevalidatedForwardBytes)
}
