package proxy

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"appx/internal/cache"
	"appx/internal/httpmsg"
	"appx/internal/obs"
	"appx/internal/obs/adminv1"
	"appx/internal/persist"
	"appx/internal/proxy/resilience"
)

// Crash-safe persistence wiring (ISSUE 6). When Options.StateDir is set the
// proxy gains two durable surfaces:
//
//   - a disk tier under <state-dir>/cache that the prefetch store spills
//     into write-behind and reads through on miss, and
//   - periodic snapshots of the learned soft state (exemplars, samples,
//     breaker and backoff state) under <state-dir>/snapshot.appx, restored
//     at boot when their graph fingerprint matches the running graph.
//
// Every failure mode degrades to a cold start: the proxy without its state
// directory is merely slow, never wrong.

// Restore outcome values reported by RestoreOutcome and the stats API.
const (
	// RestoreDisabled: no state directory configured.
	RestoreDisabled = "disabled"
	// RestoreCold: persistence on, but no snapshot existed (first boot).
	RestoreCold = "cold"
	// RestoreWarm: a snapshot was decoded and applied.
	RestoreWarm = "restored"
	// RestoreFailed: every snapshot rung was corrupt or incompatible; the
	// proxy started cold and said so.
	RestoreFailed = "failed"
)

// persistState bundles the proxy's persistence members.
type persistState struct {
	mgr  *persist.Manager
	tier *persist.Tier

	// restoreOutcome/restoreDetail are written once during New, before any
	// request goroutine exists, and read-only afterwards.
	restoreOutcome string
	restoreDetail  string
	restoreSource  string

	stop chan struct{}
	done chan struct{}
}

// initPersist opens the disk tier ahead of cache construction (the store
// needs the tier at New time). Any environmental failure disables
// persistence for this process rather than failing the proxy.
func (p *Proxy) initPersist() {
	p.persist.restoreOutcome = RestoreDisabled
	if p.opts.StateDir == "" {
		return
	}
	now := func() time.Time { return p.opts.Now() }
	tier, err := persist.NewTier(filepath.Join(p.opts.StateDir, "cache"), persist.TierOptions{
		Now:    now,
		Faults: p.opts.PersistFaults,
	})
	if err != nil {
		p.persist.restoreOutcome = RestoreFailed
		p.persist.restoreDetail = fmt.Sprintf("open disk tier: %v", err)
		p.restoreFailures.Add(1)
		return
	}
	mgr, err := persist.NewManager(p.opts.StateDir, persist.ManagerOptions{
		Now:    now,
		Faults: p.opts.PersistFaults,
	})
	if err != nil {
		tier.Close()
		p.persist.restoreOutcome = RestoreFailed
		p.persist.restoreDetail = fmt.Sprintf("open snapshot dir: %v", err)
		p.restoreFailures.Add(1)
		return
	}
	p.persist.tier = tier
	p.persist.mgr = mgr
}

// costedTier stamps entries promoted from the disk tier with their
// signature's record (sigState.stamp): the persist envelope carries no miss
// cost, and a restart's view of the origin is the one that counts.
type costedTier struct {
	*persist.Tier
	sigs *sigTable
}

func (t costedTier) Load(scope, key string) (*cache.Entry, bool) {
	e, ok := t.Tier.Load(scope, key)
	if ok {
		t.sigs.byID[e.SigID].stamp(e)
	}
	return e, ok
}

// restorePersist walks the snapshot ladder and applies what it finds. Runs
// once, at the end of New, before the proxy serves anything.
func (p *Proxy) restorePersist() {
	if p.persist.mgr == nil {
		return
	}
	st, source, err := p.persist.mgr.Load()
	switch {
	case err != nil:
		// Corruption on every rung: cold start, counted and described.
		p.restoreFailures.Add(1)
		p.persist.restoreOutcome = RestoreFailed
		p.persist.restoreDetail = err.Error()
		// Spilled cache entries are from the same era as the unusable
		// snapshot; without a fingerprint to vouch for them, drop them too.
		p.persist.tier.Purge()
	case st == nil:
		p.persist.restoreOutcome = RestoreCold
	case st.GraphFingerprint != p.opts.Graph.Fingerprint():
		p.restoreFailures.Add(1)
		p.persist.restoreOutcome = RestoreFailed
		p.persist.restoreDetail = fmt.Sprintf("snapshot graph %s != running graph %s",
			st.GraphFingerprint, p.opts.Graph.Fingerprint())
		p.persist.tier.Purge()
	default:
		p.applyState(st)
		p.persist.restoreOutcome = RestoreWarm
		p.persist.restoreSource = source
	}
}

// startPersistLoop begins periodic snapshots.
func (p *Proxy) startPersistLoop() {
	if p.persist.mgr == nil || p.opts.SnapshotInterval <= 0 {
		return
	}
	p.persist.stop = make(chan struct{})
	p.persist.done = make(chan struct{})
	go func() {
		t := time.NewTicker(p.opts.SnapshotInterval)
		defer t.Stop()
		defer close(p.persist.done)
		for {
			select {
			case <-t.C:
				p.SnapshotNow()
			case <-p.persist.stop:
				return
			}
		}
	}()
}

// stopPersist ends the snapshot loop and the tier's spill worker (draining
// its backlog). Idempotent.
func (p *Proxy) stopPersist() {
	if p.persist.stop != nil {
		select {
		case <-p.persist.stop:
			// already closed
		default:
			close(p.persist.stop)
			<-p.persist.done
		}
	}
	if p.persist.tier != nil {
		p.persist.tier.Close()
	}
}

// SnapshotNow captures and writes a snapshot immediately. No-op (nil) when
// persistence is disabled.
func (p *Proxy) SnapshotNow() error {
	if p.persist.mgr == nil {
		return nil
	}
	return p.persist.mgr.Save(p.exportState())
}

// RestoreOutcome reports what boot-time restore did: "disabled", "cold",
// "restored", or "failed".
func (p *Proxy) RestoreOutcome() string { return p.persist.restoreOutcome }

// RestoreDetail describes a failed restore (empty otherwise).
func (p *Proxy) RestoreDetail() string { return p.persist.restoreDetail }

// RestoreFailures reports counted failed restores (the acceptance
// criterion's restore_failed metric).
func (p *Proxy) RestoreFailures() int64 { return p.restoreFailures.Load() }

// DiskTier exposes the persistence disk tier (nil when disabled) for
// operational tooling, experiments, and tests.
func (p *Proxy) DiskTier() *persist.Tier { return p.persist.tier }

// exportState captures every piece of learned soft state into the persist
// wire format. No two locks are held at once (DESIGN.md, "Proxy state").
func (p *Proxy) exportState() *persist.State {
	now := p.opts.Now()
	st := &persist.State{
		SavedAt:          now,
		GraphFingerprint: p.opts.Graph.Fingerprint(),
		Samples:          map[string]*httpmsg.Request{},
		Breakers:         map[string]persist.BreakerState{},
		SigBackoff:       map[string]persist.BackoffState{},
	}

	p.mu.Lock()
	users := make([]*user, 0, len(p.users))
	for _, u := range p.users {
		users = append(users, u)
		st.Users = append(st.Users, persist.UserState{Key: u.key, LastSeen: u.lastSeen, Exemplars: map[string]persist.ExemplarState{}})
	}
	p.mu.Unlock()

	for i, u := range users {
		us := &st.Users[i]
		u.mu.Lock()
		for id, ex := range u.exemplars {
			es := persist.ExemplarState{
				URIWilds:   append([]string(nil), ex.uriWilds...),
				FieldWilds: map[string][]string{},
				Present:    map[string]bool{},
				Headers:    append([]httpmsg.Field(nil), ex.headers...),
			}
			// A snapshot files a slot under its location, "query:k".
			for i, sl := range p.sigs.byID[id].slots {
				loc := sl.where + ":" + sl.key
				if ex.has(i, slotPresent) {
					es.Present[loc] = true
				}
				if ex.has(i, slotCaptured) {
					es.FieldWilds[loc] = append([]string(nil), ex.captures[sl.at:sl.end]...)
				}
			}
			us.Exemplars[id] = es
		}
		u.mu.Unlock()
	}
	sort.Slice(st.Users, func(i, j int) bool { return st.Users[i].Key < st.Users[j].Key })

	for host, b := range p.breakers.Snapshot() {
		st.Breakers[host] = persist.BreakerState{
			State:               b.State.String(),
			ConsecutiveFailures: b.ConsecutiveFailures,
			OpenForMs:           b.OpenFor.Milliseconds(),
		}
	}

	for _, ss := range p.sigs.all {
		if r := ss.sample.Load(); r != nil {
			st.Samples[ss.sig.ID] = r.Clone()
		}
		if failures, until := ss.backoff(); failures > 0 {
			st.SigBackoff[ss.sig.ID] = persist.BackoffState{
				Consecutive: failures,
				RemainingMs: max(until.Sub(now), 0).Milliseconds(),
			}
		}
	}
	return st
}

// applyState reinstates a decoded snapshot. Only called before the proxy
// serves traffic, so locks are taken purely for form. State filed under a
// signature the graph no longer carries is dropped; fingerprint equality
// makes that a no-op today, but applyState must stay safe if the gate ever
// loosens.
func (p *Proxy) applyState(st *persist.State) {
	now := p.opts.Now()

	// Least recently seen first, so adding them in turn rebuilds the recency
	// order; past maxUsers, the users most likely to return are kept.
	sort.SliceStable(st.Users, func(i, j int) bool { return st.Users[i].LastSeen.Before(st.Users[j].LastSeen) })
	p.mu.Lock()
	for _, us := range st.Users[max(0, len(st.Users)-maxUsers):] {
		u := p.addUserLocked(us.Key)
		u.lastSeen = us.LastSeen
		for id, es := range us.Exemplars {
			ss := p.sigs.byID[id]
			if ss == nil {
				continue
			}
			ex := ss.newExemplar(append([]httpmsg.Field(nil), es.Headers...))
			ex.uriWilds = append([]string(nil), es.URIWilds...)
			// Captures of a length the slot's pattern cannot have are
			// dropped, as a value it does not match would be.
			for i, sl := range ss.slots {
				loc := sl.where + ":" + sl.key
				if es.Present[loc] {
					ex.seen[i] |= slotPresent
				}
				if w, ok := es.FieldWilds[loc]; ok && len(w) == sl.end-sl.at {
					copy(ex.captures[sl.at:sl.end], w)
					ex.seen[i] |= slotCaptured
				}
			}
			u.exemplars[id] = ex
		}
	}
	p.mu.Unlock()
	for id, r := range st.Samples {
		if ss := p.sigs.byID[id]; ss != nil && r != nil {
			ss.sample.Store(r)
		}
	}

	if len(st.Breakers) > 0 {
		snap := make(map[string]resilience.BreakerSnapshot, len(st.Breakers))
		for host, b := range st.Breakers {
			s := resilience.BreakerSnapshot{ConsecutiveFailures: b.ConsecutiveFailures}
			switch b.State {
			case resilience.Open.String():
				s.State = resilience.Open
				s.OpenFor = time.Duration(b.OpenForMs) * time.Millisecond
			case resilience.HalfOpen.String():
				s.State = resilience.HalfOpen
			default:
				s.State = resilience.Closed
			}
			snap[host] = s
		}
		p.breakers.Restore(snap)
	}

	for id, b := range st.SigBackoff {
		if ss := p.sigs.byID[id]; ss != nil {
			var until time.Time
			if b.RemainingMs > 0 {
				until = now.Add(time.Duration(b.RemainingMs) * time.Millisecond)
			}
			ss.setBackoff(b.Consecutive, until)
		}
	}
}

// registerPersistBridges exposes the persistence counters on the metrics
// registry. Registered even when persistence is disabled, so dashboards see
// stable zero series instead of absent ones.
func (p *Proxy) registerPersistBridges(reg *obs.Registry) {
	reg.CounterFunc("appx_persist_snapshots_total", "Snapshots written successfully.",
		func() int64 {
			if p.persist.mgr == nil {
				return 0
			}
			return p.persist.mgr.Snapshots()
		})
	reg.CounterFunc("appx_persist_snapshot_failures_total", "Snapshot writes that failed.",
		func() int64 {
			if p.persist.mgr == nil {
				return 0
			}
			return p.persist.mgr.Failures()
		})
	reg.GaugeFunc("appx_persist_snapshot_age_seconds", "Seconds since the last successful snapshot (-1 when none).",
		func() float64 {
			if p.persist.mgr == nil {
				return -1
			}
			age := p.persist.mgr.Age()
			if age < 0 {
				return -1
			}
			return age.Seconds()
		})
	reg.CounterFunc(`appx_persist_restores_total{outcome="restored"}`, "Boot-time restores by outcome.",
		func() int64 { return boolCounter(p.persist.restoreOutcome == RestoreWarm) })
	reg.CounterFunc(`appx_persist_restores_total{outcome="cold"}`, "Boot-time restores by outcome.",
		func() int64 { return boolCounter(p.persist.restoreOutcome == RestoreCold) })
	reg.CounterFunc(`appx_persist_restores_total{outcome="failed"}`, "Boot-time restores by outcome.",
		func() int64 { return boolCounter(p.persist.restoreOutcome == RestoreFailed) })
	reg.CounterFunc("appx_persist_restore_failures_total", "Failed restore attempts (corrupt or incompatible snapshots).",
		p.restoreFailures.Load)
	reg.GaugeFunc("appx_disk_tier_bytes", "Bytes resident in the persistence disk tier.",
		func() float64 {
			if p.persist.tier == nil {
				return 0
			}
			return float64(p.persist.tier.Metrics().Bytes)
		})
	reg.CounterFunc("appx_disk_tier_hits_total", "Misses answered by the disk tier.",
		func() int64 {
			if p.persist.tier == nil {
				return 0
			}
			return p.persist.tier.Metrics().Hits
		})
	reg.CounterFunc("appx_disk_tier_spilled_total", "Entries spilled to the disk tier.",
		func() int64 {
			if p.persist.tier == nil {
				return 0
			}
			return p.persist.tier.Metrics().Spilled
		})
	reg.CounterFunc("appx_disk_tier_load_errors_total", "Disk-tier loads that hit corrupt or mismatched files.",
		func() int64 {
			if p.persist.tier == nil {
				return 0
			}
			return p.persist.tier.Metrics().LoadErrors
		})
}

func boolCounter(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// persistV1 assembles the Persist block of /appx/v1/stats.
func (p *Proxy) persistV1() adminv1.Persist {
	out := adminv1.Persist{
		Enabled:         p.persist.mgr != nil,
		RestoreOutcome:  p.persist.restoreOutcome,
		RestoreSource:   p.persist.restoreSource,
		RestoreDetail:   p.persist.restoreDetail,
		RestoreFailures: p.restoreFailures.Load(),
		SnapshotAgeMs:   -1,
	}
	if p.persist.mgr != nil {
		out.Snapshots = p.persist.mgr.Snapshots()
		out.SnapshotFailures = p.persist.mgr.Failures()
		if age := p.persist.mgr.Age(); age >= 0 {
			out.SnapshotAgeMs = age.Milliseconds()
		}
	}
	if p.persist.tier != nil {
		tm := p.persist.tier.Metrics()
		out.DiskEntries = tm.Entries
		out.DiskBytes = tm.Bytes
		out.DiskHits = tm.Hits
		out.DiskLoads = tm.Loads
		out.DiskLoadErrors = tm.LoadErrors
		out.DiskSpilled = tm.Spilled
		out.DiskSpillDropped = tm.SpillDropped
		out.DiskSpillErrors = tm.SpillErrors
		out.DiskEvictions = tm.Evicted
	}
	return out
}
