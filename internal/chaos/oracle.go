package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"appx/internal/netem"
	"appx/internal/persist"
)

// Violation is one broken invariant with enough detail to chase it.
type Violation struct {
	Invariant string
	Detail    string
}

// Report is the outcome of one schedule run: workload tallies, cluster
// counters, and every oracle violation (empty means the run held).
type Report struct {
	Schedule  string
	Seed      int64
	Instances int
	Batches   int
	Events    []string

	Requests, OK, Sheds, Failures int
	// Availability is OK / (Requests - Sheds): sheds are the admission gate
	// doing its job and are budgeted separately from failures.
	Availability float64
	P50Ms, P99Ms float64
	// FillP99Ms is the worst per-instance peer-fill p99 — the number hedging
	// is supposed to hold down when a peer turns slow.
	FillP99Ms float64

	Origin           int64
	Forwarded        int64
	ForwardFallbacks int64
	PeerFillHits     int64
	Rebalances       int64
	HedgesLaunched   int64
	HedgeWins        int64
	HedgesSuppressed int64
	WarmRestores     int
	// DiskFaultsInjected counts torn, corrupted, and failed writes the disk
	// injectors actually produced (proof the diskfault schedule bit).
	DiskFaultsInjected int64

	Violations []Violation
}

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (r *Report) violate(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// Run replays one schedule against a fresh fleet and checks the oracle.
//
// The invariants, in the order checked:
//
//  1. no-foreground-failures: a live instance never answers a foreground
//     request with a non-shed 5xx or a transport error, whatever the
//     cluster links are doing. Sheds (503 + Retry-After) are counted
//     separately and excluded.
//  2. no-forward-loops: no relayed request ever bounced through a second
//     hop, even with partitioned, divergent ring views.
//  3. span-accounting: every recorded request span's per-stage time sums to
//     at most its wall time — chaos must not corrupt attribution.
//  4. state-decodes: after the run, every persisted artifact (snapshot
//     ladder rungs, disk-tier entries) either decodes cleanly or fails as
//     typed corruption — never as undecodable garbage or a crash.
//  5. no-goroutine-leak: after the fleet closes, the process settles back
//     to its baseline goroutine count — no probe, hedge, drip, or relay
//     goroutine outlives its instance.
func Run(opts Options, sched Schedule) (*Report, error) {
	opts = opts.withDefaults()
	if sched.Persist && opts.StateRoot == "" {
		return nil, fmt.Errorf("chaos: schedule %q needs Options.StateRoot", sched.Name)
	}
	if !sched.Persist {
		opts.StateRoot = "" // keep non-persist runs identical with or without a root
	}
	baseline := runtime.NumGoroutine()

	h, err := newHarness(opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{Schedule: sched.Name, Seed: opts.Seed, Instances: opts.Instances, Batches: sched.Batches}

	// One live asset request teaches the first exemplar; later users'
	// exemplars ride their own first miss.
	if err := h.get(h.users[0], "/asset", "seed"); err != nil {
		h.close()
		return nil, err
	}
	for b := 0; b < sched.Batches; b++ {
		for _, ev := range sched.Events {
			if ev.Batch == b {
				ev.Apply(h)
				rep.Events = append(rep.Events, fmt.Sprintf("b%d:%s", b, ev.Name))
			}
		}
		// Drive immediately — the first requests after an event race the
		// fault before probes have noticed, which is exactly the window the
		// invariants must cover. The settle afterwards lets the ring
		// converge before the next event lands.
		drive := h.driveBatch
		if sched.Drive != nil {
			drive = func() error { return sched.Drive(h) }
		}
		if err := drive(); err != nil {
			h.close()
			return nil, err
		}
		time.Sleep(settleDelay)
	}
	h.Heal()
	time.Sleep(settleDelay)

	// Live-fleet collection and checks, then teardown, then post checks.
	h.collect(rep)
	checkFailures(rep, h)
	checkForwardLoops(rep, h)
	checkSpans(rep, h)
	stateDirs := make([]string, 0, len(h.nodes))
	for _, n := range h.nodes {
		if n != nil && n.dir != "" {
			stateDirs = append(stateDirs, n.dir)
		}
	}
	h.close()
	checkStateDecodes(rep, stateDirs)
	checkGoroutines(rep, baseline)
	return rep, nil
}

func checkFailures(rep *Report, h *Harness) {
	if rep.Failures > 0 {
		detail := h.failureDetail
		if len(detail) > 5 {
			detail = detail[:5]
		}
		rep.violate("no-foreground-failures", "%d of %d requests failed (first: %s)",
			rep.Failures, rep.Requests, strings.Join(detail, "; "))
	}
}

func checkForwardLoops(rep *Report, h *Harness) {
	if loops := h.forwardLoops(); loops > 0 {
		rep.violate("no-forward-loops", "%d relayed requests bounced through a second hop", loops)
	}
}

func checkSpans(rep *Report, h *Harness) {
	for _, sp := range h.spans() {
		if sum := sp.StageSum(); sum > sp.Wall {
			rep.violate("span-accounting", "span %d (%s): stage sum %v > wall %v", sp.ID, sp.SigID, sum, sp.Wall)
			return // one example is enough; the rest would repeat it
		}
	}
}

// checkStateDecodes walks each instance's state directory after teardown:
// snapshot rungs and disk-tier entries must decode or fail as typed
// corruption (persist.IsCorrupt) — the damage model disk faults are allowed
// to produce. Anything else means a writer produced garbage the recovery
// ladder cannot even classify.
func checkStateDecodes(rep *Report, stateDirs []string) {
	for _, dir := range stateDirs {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				rep.violate("state-decodes", "%s: unreadable: %v", path, rerr)
				return nil
			}
			var derr error
			switch {
			case strings.HasSuffix(d.Name(), ".ent"):
				_, derr = persist.DecodeEntry(data)
			case strings.HasPrefix(d.Name(), "snapshot.appx"):
				_, derr = persist.DecodeSnapshot(data)
			default:
				return nil
			}
			if derr != nil && !persist.IsCorrupt(derr) {
				rep.violate("state-decodes", "%s: undecodable and untyped: %v", path, derr)
			}
			return nil
		})
		if err != nil && !os.IsNotExist(err) {
			rep.violate("state-decodes", "walk %s: %v", dir, err)
		}
	}
}

// checkGoroutines waits for the goroutine count to settle back to the
// pre-run baseline (plus scheduler slack) after the fleet is gone.
func checkGoroutines(rep *Report, baseline int) {
	const slack = 8
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			rep.violate("no-goroutine-leak", "goroutines %d, baseline %d (+%d slack) — something outlived the fleet",
				n, baseline, slack)
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// slowReadFault stalls only reads: requests leave promptly, responses crawl.
func slowReadFault(d time.Duration) netem.Fault {
	return netem.Fault{StallProb: 1, StallDelay: d, Dir: netem.DirRead}
}
