package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced time source.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreakers(clock *fakeClock) *Breakers {
	return NewBreakers(BreakerOptions{
		FailureThreshold: 3,
		OpenTimeout:      10 * time.Second,
		Now:              clock.Now,
	})
}

func TestBreakerClosedUntilThreshold(t *testing.T) {
	clock := newFakeClock()
	bs := newTestBreakers(clock)
	for i := 0; i < 2; i++ {
		bs.ReportFailure("h")
	}
	if got := bs.State("h"); got != Closed {
		t.Fatalf("state after 2/3 failures = %v, want closed", got)
	}
	// A success resets the streak.
	bs.ReportSuccess("h")
	bs.ReportFailure("h")
	bs.ReportFailure("h")
	if got := bs.State("h"); got != Closed {
		t.Fatalf("state after reset + 2 failures = %v, want closed", got)
	}
	bs.ReportFailure("h")
	if got := bs.State("h"); got != Open {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	if bs.Allow("h") {
		t.Fatal("open breaker allowed a request")
	}
	if bs.Ready("h") {
		t.Fatal("open breaker reported ready")
	}
}

func TestBreakerOpenToHalfOpenAfterTimeout(t *testing.T) {
	clock := newFakeClock()
	bs := newTestBreakers(clock)
	for i := 0; i < 3; i++ {
		bs.ReportFailure("h")
	}
	clock.Advance(9 * time.Second)
	if bs.Allow("h") {
		t.Fatal("allowed before OpenTimeout elapsed")
	}
	clock.Advance(time.Second)
	if !bs.Ready("h") {
		t.Fatal("not ready after OpenTimeout")
	}
	if !bs.Allow("h") {
		t.Fatal("half-open breaker rejected the first probe")
	}
	if got := bs.State("h"); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	// Only one probe may be in flight.
	if bs.Allow("h") {
		t.Fatal("second concurrent probe admitted")
	}
}

func TestBreakerHalfOpenSuccessCloses(t *testing.T) {
	clock := newFakeClock()
	bs := newTestBreakers(clock)
	for i := 0; i < 3; i++ {
		bs.ReportFailure("h")
	}
	clock.Advance(10 * time.Second)
	// One successful probe closes the circuit.
	if !bs.Allow("h") {
		t.Fatal("probe rejected")
	}
	if got := bs.State("h"); got != HalfOpen {
		t.Fatalf("state while probing = %v, want half-open", got)
	}
	bs.ReportSuccess("h")
	if got := bs.State("h"); got != Closed {
		t.Fatalf("state after a probe success = %v, want closed", got)
	}
	// Closed clean: the failure streak starts over.
	bs.ReportFailure("h")
	bs.ReportFailure("h")
	if got := bs.State("h"); got != Closed {
		t.Fatalf("state after 2/3 failures = %v, want closed", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := newFakeClock()
	bs := newTestBreakers(clock)
	for i := 0; i < 3; i++ {
		bs.ReportFailure("h")
	}
	clock.Advance(10 * time.Second)
	if !bs.Allow("h") {
		t.Fatal("probe rejected")
	}
	bs.ReportFailure("h")
	if got := bs.State("h"); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// The open timer restarted: still open 9s later, half-open at 10s.
	clock.Advance(9 * time.Second)
	if bs.Allow("h") {
		t.Fatal("reopened breaker admitted traffic early")
	}
	clock.Advance(time.Second)
	if !bs.Allow("h") {
		t.Fatal("reopened breaker never re-probed")
	}
}

func TestBreakerHostsIndependent(t *testing.T) {
	clock := newFakeClock()
	bs := newTestBreakers(clock)
	for i := 0; i < 3; i++ {
		bs.ReportFailure("sick")
	}
	if !bs.Allow("healthy") {
		t.Fatal("healthy host affected by sick host's breaker")
	}
	snap := bs.Snapshot()
	if snap["sick"].State != Open {
		t.Fatalf("snapshot sick = %+v, want open", snap["sick"])
	}
	if snap["healthy"].State != Closed {
		t.Fatalf("snapshot healthy = %+v, want closed", snap["healthy"])
	}
}

func TestBreakerSnapshotOpenFor(t *testing.T) {
	clock := newFakeClock()
	bs := newTestBreakers(clock)
	for i := 0; i < 3; i++ {
		bs.ReportFailure("h")
	}
	clock.Advance(4 * time.Second)
	if got := bs.Snapshot()["h"].OpenFor; got != 4*time.Second {
		t.Fatalf("OpenFor = %v, want 4s", got)
	}
}

// TestBreakerHalfOpenProbeRace: when an open breaker's timeout elapses,
// many concurrent callers race Allow — exactly one may win the half-open
// probe slot per window, no matter the interleaving. Run under -race this
// also checks the slot reservation itself is properly synchronized.
func TestBreakerHalfOpenProbeRace(t *testing.T) {
	clock := newFakeClock()
	bs := newTestBreakers(clock)
	trip := func() {
		for i := 0; i < 3; i++ {
			bs.ReportFailure("h")
		}
	}
	race := func() (admitted int32) {
		const racers = 32
		var wg sync.WaitGroup
		var n int32
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if bs.Allow("h") {
					atomic.AddInt32(&n, 1)
				}
			}()
		}
		wg.Wait()
		return n
	}

	trip()
	clock.Advance(11 * time.Second)
	if got := race(); got != 1 {
		t.Fatalf("half-open window admitted %d probes, want exactly 1", got)
	}
	// The losing racers must not have consumed anything: a failed probe
	// reopens, and the next window again admits exactly one.
	bs.ReportFailure("h")
	if got := bs.State("h"); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	clock.Advance(11 * time.Second)
	if got := race(); got != 1 {
		t.Fatalf("second half-open window admitted %d probes, want exactly 1", got)
	}
	// One successful probe closes the circuit, and a closed breaker admits
	// every racer.
	bs.ReportSuccess("h")
	if got := bs.State("h"); got != Closed {
		t.Fatalf("state after a probe success = %v, want closed", got)
	}
	if got := race(); got != 32 {
		t.Fatalf("closed breaker admitted %d of 32 racers", got)
	}

	// A closed breaker under concurrent traffic: all callers admitted, all
	// report, state stays consistent. Material for the race detector more
	// than for the assertions.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if bs.Allow("h") {
					if k%8 == 0 && j%50 == 49 {
						bs.ReportFailure("h")
					} else {
						bs.ReportSuccess("h")
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if got := bs.State("h"); got != Closed && got != Open && got != HalfOpen {
		t.Fatalf("breaker in impossible state %v", got)
	}
}
