package policy

import (
	"math"
	"sort"
	"sync"
	"time"

	"appx/internal/persist"
)

// Markov defaults.
const (
	// DefaultHalfLife is the transition-count decay half-life: after one
	// half-life without reinforcement, a count contributes half its weight.
	DefaultHalfLife = 10 * time.Minute
	// DefaultSessionGap is the largest gap between two hits that still
	// counts as a transition; beyond it the user started a new session.
	DefaultSessionGap = 30 * time.Minute
	// DefaultMaxUsers bounds tracked per-user models.
	DefaultMaxUsers = 10000
	// defaultMaxRowsPerUser bounds transition rows per user (distinct
	// "from" signatures).
	defaultMaxRowsPerUser = 128
	// defaultMaxSuccessorsPerRow bounds successors tracked per row.
	defaultMaxSuccessorsPerRow = 32
	// defaultAlpha is the Laplace smoothing constant of the global prior.
	defaultAlpha = 0.5
	// defaultPriorStrength is how many observations the global prior is
	// worth against a user's own evidence.
	defaultPriorStrength = 4
	// defaultMinSamples is the (decayed) evidence mass required before the
	// model is confident enough to prune a candidate.
	defaultMinSamples = 3
	// defaultPruneFraction prunes candidates whose estimated transition
	// probability falls below this fraction of the uniform baseline 1/K.
	defaultPruneFraction = 0.5
	// minCount is the decayed weight below which a count is dropped.
	minCount = 0.01
)

// MarkovConfig tunes the history model. Zero values take the defaults
// above.
type MarkovConfig struct {
	// HalfLife is the exponential-decay half-life of transition counts.
	HalfLife time.Duration
	// SessionGap bounds the inter-hit gap that still forms a transition.
	SessionGap time.Duration
	// MaxUsers bounds per-user models; the least recently seen user is
	// evicted beyond it.
	MaxUsers int
	// Now supplies time for Rank-side decay; defaults to time.Now.
	// (Observe receives its timestamp from the caller.)
	Now func() time.Time
}

// markovRow holds the decayed successor counts observed after one "from"
// signature. at stamps when the counts were last physically decayed.
type markovRow struct {
	counts map[string]float64
	total  float64
	at     time.Time
}

// markovUser is one user's model: transition rows plus the last hit, which
// seeds the next transition.
type markovUser struct {
	rows    map[string]*markovRow
	lastSig string
	lastAt  time.Time
	seen    time.Time
}

// Markov is the history-aware prefetch policy: a first-order per-user
// transition model (signature → signature counts with Laplace smoothing and
// exponential decay) layered over a cross-user global table that seeds
// priors for users with thin history. Rank reorders candidates by estimated
// transition probability and prunes those the evidence says are unlikely;
// the depth ceiling is identical to Static.
//
// Decay is applied two ways: physically at Observe time (counts are scaled
// down before new evidence lands, keeping the stored mass bounded), and
// virtually at Rank time (a read-only scale factor), so stale user evidence
// smoothly defers to the global prior without Rank mutating anything.
type Markov struct {
	hooks Hooks
	cfg   MarkovConfig

	mu     sync.Mutex
	users  map[string]*markovUser
	global map[string]*markovRow

	// Bookkeeping maintained incrementally so Stats never walks the maps.
	rowCount   int // rows across users + global
	transCount int // (from, to) pairs across users + global

	observations int64
	rankCalls    int64
	pruned       int64
	reordered    int64
}

// NewMarkov builds the markov policy.
func NewMarkov(hooks Hooks, cfg MarkovConfig) *Markov {
	if cfg.HalfLife <= 0 {
		cfg.HalfLife = DefaultHalfLife
	}
	if cfg.SessionGap <= 0 {
		cfg.SessionGap = DefaultSessionGap
	}
	if cfg.MaxUsers <= 0 {
		cfg.MaxUsers = DefaultMaxUsers
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Markov{
		hooks:  hooks,
		cfg:    cfg,
		users:  map[string]*markovUser{},
		global: map[string]*markovRow{},
	}
}

// Name implements Policy.
func (m *Markov) Name() string { return "markov" }

// factor is the virtual decay multiplier for a row last touched at `at`.
func (m *Markov) factor(at, now time.Time) float64 {
	dt := now.Sub(at)
	if dt <= 0 {
		return 1
	}
	return math.Exp2(-float64(dt) / float64(m.cfg.HalfLife))
}

// Observe implements Policy: fold one live hit into the user's model. A hit
// within SessionGap of the previous one records a lastSig → sigID
// transition (self-transitions are skipped — refreshes of the same page are
// not navigation evidence).
func (m *Markov) Observe(user, sigID string, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observations++
	u := m.users[user]
	if u == nil {
		if len(m.users) >= m.cfg.MaxUsers {
			m.evictOldestUserLocked()
		}
		u = &markovUser{rows: map[string]*markovRow{}}
		m.users[user] = u
	}
	u.seen = now
	if u.lastSig != "" && u.lastSig != sigID && now.Sub(u.lastAt) <= m.cfg.SessionGap {
		m.recordLocked(u.rows, u.lastSig, sigID, now, defaultMaxRowsPerUser)
		m.recordLocked(m.global, u.lastSig, sigID, now, 0)
	}
	u.lastSig = sigID
	u.lastAt = now
}

// recordLocked adds one from→to observation to a row table, decaying the
// row first and enforcing the per-row successor cap and (when maxRows > 0)
// the table's row cap.
func (m *Markov) recordLocked(rows map[string]*markovRow, from, to string, now time.Time, maxRows int) {
	row := rows[from]
	if row == nil {
		if maxRows > 0 && len(rows) >= maxRows {
			m.evictOldestRowLocked(rows)
		}
		row = &markovRow{counts: map[string]float64{}, at: now}
		rows[from] = row
		m.rowCount++
	}
	m.decayRowLocked(row, now)
	if _, ok := row.counts[to]; !ok {
		if len(row.counts) >= defaultMaxSuccessorsPerRow {
			m.evictSmallestCountLocked(row)
		}
		m.transCount++
	}
	row.counts[to]++
	row.total++
}

// decayRowLocked physically scales a row's counts down to now, dropping
// negligible ones.
func (m *Markov) decayRowLocked(row *markovRow, now time.Time) {
	f := m.factor(row.at, now)
	if f >= 1 {
		row.at = now
		return
	}
	total := 0.0
	for k, c := range row.counts {
		c *= f
		if c < minCount {
			delete(row.counts, k)
			m.transCount--
			continue
		}
		row.counts[k] = c
		total += c
	}
	row.total = total
	row.at = now
}

// evictOldestUserLocked drops the least recently seen user model.
func (m *Markov) evictOldestUserLocked() {
	var oldestKey string
	var oldest time.Time
	for k, u := range m.users {
		if oldestKey == "" || u.seen.Before(oldest) {
			oldestKey, oldest = k, u.seen
		}
	}
	if oldestKey == "" {
		return
	}
	u := m.users[oldestKey]
	for _, row := range u.rows {
		m.rowCount--
		m.transCount -= len(row.counts)
	}
	delete(m.users, oldestKey)
}

// evictOldestRowLocked drops the least recently touched row of a table.
func (m *Markov) evictOldestRowLocked(rows map[string]*markovRow) {
	var oldestKey string
	var oldest time.Time
	for k, row := range rows {
		if oldestKey == "" || row.at.Before(oldest) {
			oldestKey, oldest = k, row.at
		}
	}
	if oldestKey == "" {
		return
	}
	m.rowCount--
	m.transCount -= len(rows[oldestKey].counts)
	delete(rows, oldestKey)
}

// evictSmallestCountLocked drops a row's weakest successor to make room.
func (m *Markov) evictSmallestCountLocked(row *markovRow) {
	var minKey string
	min := math.Inf(1)
	for k, c := range row.counts {
		if c < min {
			minKey, min = k, c
		}
	}
	if minKey != "" {
		row.total -= row.counts[minKey]
		delete(row.counts, minKey)
		m.transCount--
	}
}

// Rank implements Policy. The depth ceiling applies exactly as in Static; on
// top of it, when transition context exists (from != "" and the model holds
// evidence for it), candidates are scored by estimated transition
// probability — user evidence shrunk toward the Laplace-smoothed global row
// — then stably reordered best-first, and confidently-unlikely ones are
// dropped (Keep=false, ReasonUnlikely). With no evidence at all the input
// order is returned untouched, so a cold markov behaves exactly like static.
func (m *Markov) Rank(user, from string, cands []Candidate) []Decision {
	ds := make([]Decision, len(cands))
	for i, c := range cands {
		ds[i] = m.hooks.decide(c)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rankCalls++
	if from == "" || len(cands) < 1 {
		return ds
	}
	now := m.cfg.Now()
	var uRow, gRow *markovRow
	if u := m.users[user]; u != nil {
		uRow = u.rows[from]
	}
	gRow = m.global[from]
	tU, tG, uf, gf := 0.0, 0.0, 1.0, 1.0
	if uRow != nil {
		uf = m.factor(uRow.at, now)
		tU = uRow.total * uf
	}
	if gRow != nil {
		gf = m.factor(gRow.at, now)
		tG = gRow.total * gf
	}
	if tU == 0 && tG == 0 {
		return ds
	}
	// K is the support size of the smoothed distribution: at least the
	// candidate set, grown by the successors the fleet has actually seen.
	k := len(cands)
	if gRow != nil && len(gRow.counts)+1 > k {
		k = len(gRow.counts) + 1
	}
	for i := range ds {
		cU, cG := 0.0, 0.0
		if uRow != nil {
			cU = uRow.counts[ds[i].SigID] * uf
		}
		if gRow != nil {
			cG = gRow.counts[ds[i].SigID] * gf
		}
		g := (cG + defaultAlpha) / (tG + defaultAlpha*float64(k))
		est := (cU + defaultPriorStrength*g) / (tU + defaultPriorStrength)
		ds[i].Score = est
		if ds[i].Keep && tU+tG >= defaultMinSamples && est < defaultPruneFraction/float64(k) {
			ds[i].Keep = false
			ds[i].KeepReason = ReasonUnlikely
			m.pruned++
		}
	}
	// Only an order that actually changed pays for a sort (and counts as a
	// reorder); equal scores keep input order, so a uniform estimate — no
	// discriminating evidence — leaves the static order intact.
	for i := 1; i < len(ds); i++ {
		if ds[i].Score > ds[i-1].Score {
			sort.SliceStable(ds, func(a, b int) bool { return ds[a].Score > ds[b].Score })
			m.reordered++
			break
		}
	}
	return ds
}

// Stats implements Policy.
func (m *Markov) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Users:       len(m.users),
		Rows:        m.rowCount,
		Transitions: m.transCount,
		// Footprint estimate: map-header + key overhead per user, per row,
		// and per (from, to) pair.
		TableBytes:   int64(len(m.users))*96 + int64(m.rowCount)*112 + int64(m.transCount)*64,
		Observations: m.observations,
		RankCalls:    m.rankCalls,
		Pruned:       m.pruned,
		Reordered:    m.reordered,
	}
}

// Export snapshots the model for persistence. Output is deterministic
// (users sorted by key, rows by "from" signature, counts by successor) so
// byte-identical state produces byte-identical snapshots.
func (m *Markov) Export() *persist.PolicyState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &persist.PolicyState{Name: m.Name()}
	for key, u := range m.users {
		pu := persist.PolicyUser{
			Key:      key,
			LastSig:  u.lastSig,
			LastAt:   u.lastAt,
			LastSeen: u.seen,
			Rows:     exportRows(u.rows),
		}
		st.Users = append(st.Users, pu)
	}
	sort.Slice(st.Users, func(a, b int) bool { return st.Users[a].Key < st.Users[b].Key })
	st.Global = exportRows(m.global)
	return st
}

func exportRows(rows map[string]*markovRow) []persist.PolicyRow {
	out := make([]persist.PolicyRow, 0, len(rows))
	for from, row := range rows {
		pr := persist.PolicyRow{From: from, Total: row.total, At: row.at}
		for sig, n := range row.counts {
			pr.To = append(pr.To, persist.PolicyCount{Sig: sig, N: n})
		}
		sort.Slice(pr.To, func(a, b int) bool { return pr.To[a].Sig < pr.To[b].Sig })
		out = append(out, pr)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].From < out[b].From })
	return out
}

// Restore replaces the model with a persisted one (warm restart). Counters
// are not part of the snapshot; bookkeeping is recomputed.
func (m *Markov) Restore(st *persist.PolicyState) {
	if st == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.users = map[string]*markovUser{}
	m.global = map[string]*markovRow{}
	m.rowCount, m.transCount = 0, 0
	for _, pu := range st.Users {
		u := &markovUser{
			rows:    m.restoreRows(pu.Rows),
			lastSig: pu.LastSig,
			lastAt:  pu.LastAt,
			seen:    pu.LastSeen,
		}
		m.users[pu.Key] = u
	}
	m.global = m.restoreRows(st.Global)
}

func (m *Markov) restoreRows(prs []persist.PolicyRow) map[string]*markovRow {
	rows := make(map[string]*markovRow, len(prs))
	for _, pr := range prs {
		row := &markovRow{counts: make(map[string]float64, len(pr.To)), total: pr.Total, at: pr.At}
		for _, pc := range pr.To {
			row.counts[pc.Sig] = pc.N
			m.transCount++
		}
		rows[pr.From] = row
		m.rowCount++
	}
	return rows
}
