package persist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"appx/internal/httpmsg"
)

// State is the snapshot payload: every piece of learned soft state the
// proxy would otherwise lose on restart. It deliberately uses plain data
// types (no proxy/resilience imports) so the wire format is owned here and
// the proxy adapts to it, not vice versa.
type State struct {
	// SavedAt anchors relative times (backoff windows, breaker open-for).
	SavedAt time.Time `json:"savedAt"`
	// GraphFingerprint identifies the signature graph this state was learned
	// against. A restored snapshot is only applied when it matches the
	// running graph — learned exemplars are meaningless against different
	// signatures.
	GraphFingerprint string `json:"graphFingerprint"`

	Users   []UserState                 `json:"users,omitempty"`
	Samples map[string]*httpmsg.Request `json:"samples,omitempty"`

	Breakers   map[string]BreakerState `json:"breakers,omitempty"`
	SigBackoff map[string]BackoffState `json:"sigBackoff,omitempty"`
}

// UserState is one user's learned context.
type UserState struct {
	Key       string                   `json:"key"`
	LastSeen  time.Time                `json:"lastSeen"`
	Exemplars map[string]ExemplarState `json:"exemplars,omitempty"`
}

// ExemplarState is the serialized form of a learner exemplar: the captured
// run-time values of the most recent live instance of a signature.
type ExemplarState struct {
	URIWilds   []string            `json:"uriWilds,omitempty"`
	FieldWilds map[string][]string `json:"fieldWilds,omitempty"`
	Present    map[string]bool     `json:"present,omitempty"`
	Headers    []httpmsg.Field     `json:"headers,omitempty"`
}

// BreakerState is one origin host's circuit-breaker state. State uses the
// resilience package's string names ("closed", "open", "half-open").
type BreakerState struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutiveFailures,omitempty"`
	// OpenForMs is how long the breaker had been open at SavedAt, so the
	// restored breaker resumes its timeout mid-count instead of restarting.
	OpenForMs int64 `json:"openForMs,omitempty"`
}

// BackoffState is one signature's prefetch-failure backoff.
type BackoffState struct {
	Consecutive int `json:"consecutive"`
	// RemainingMs is how much suspension remained at SavedAt.
	RemainingMs int64 `json:"remainingMs,omitempty"`
}

// EncodeSnapshot envelopes a state for disk.
func EncodeSnapshot(st *State) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	return Encode(MagicSnapshot, payload), nil
}

// DecodeSnapshot validates and parses an enveloped snapshot. Malformed
// input of any shape returns a *DecodeError, never a panic. Unknown keys
// are ignored, so a snapshot carrying a section this version dropped (an
// older proxy's "policy" tables) still restores.
func DecodeSnapshot(data []byte) (*State, error) {
	payload, err := Decode(MagicSnapshot, data)
	if err != nil {
		return nil, err
	}
	var st State
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, decodeErr("bad-payload", err)
	}
	return &st, nil
}

// Snapshot file names under the state directory.
const (
	SnapshotFile     = "snapshot.appx"
	SnapshotPrevFile = "snapshot.appx.prev"
	snapshotNewFile  = "snapshot.appx.new"
)

// ManagerOptions configures a snapshot Manager.
type ManagerOptions struct {
	// Now supplies time; defaults to time.Now.
	Now func() time.Time
	// Faults optionally injects disk faults into snapshot writes.
	Faults *Faults
}

// Manager owns the snapshot ladder in one state directory: Save rotates
// current → previous before installing the new snapshot, Load walks
// current → previous → cold. All methods are safe for concurrent use.
type Manager struct {
	dir  string
	opts ManagerOptions

	snapshots, failures atomic.Int64
	// lastSaved is the unix-nano time of the last successful Save (0 never).
	lastSaved atomic.Int64
}

// NewManager opens a snapshot manager rooted at dir.
func NewManager(dir string, opts ManagerOptions) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Manager{dir: dir, opts: opts}, nil
}

// Save writes a new snapshot, keeping the previous one as the ladder's
// second rung. The sequence — stage new, demote current to prev, promote
// new to current — means a crash at any instant leaves at least one
// complete snapshot reachable.
func (m *Manager) Save(st *State) error {
	data, err := EncodeSnapshot(st)
	if err != nil {
		m.failures.Add(1)
		return err
	}
	newPath := filepath.Join(m.dir, snapshotNewFile)
	curPath := filepath.Join(m.dir, SnapshotFile)
	prevPath := filepath.Join(m.dir, SnapshotPrevFile)
	if err := writeAtomic(newPath, data, m.opts.Faults); err != nil {
		m.failures.Add(1)
		return err
	}
	// Demote current; a missing current (first save, or a prior crash
	// between the renames) is fine.
	if err := os.Rename(curPath, prevPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		m.failures.Add(1)
		os.Remove(newPath)
		return err
	}
	if err := os.Rename(newPath, curPath); err != nil {
		m.failures.Add(1)
		os.Remove(newPath)
		return err
	}
	m.snapshots.Add(1)
	m.lastSaved.Store(m.opts.Now().UnixNano())
	return nil
}

// Load walks the recovery ladder: the current snapshot, then the previous
// one. Source names the rung that answered ("current", "prev"); a state
// directory with no snapshot at all returns (nil, "", nil) — a clean cold
// start, not an error. A corrupt current with an intact previous returns
// the previous and the current's error is folded into the walk (the caller
// sees source "prev" and err nil). Only when every rung is corrupt does
// Load return the first corruption error.
func (m *Manager) Load() (st *State, source string, err error) {
	var firstErr error
	for _, rung := range []struct {
		file, name string
	}{
		{SnapshotFile, "current"},
		{SnapshotPrevFile, "prev"},
	} {
		data, rerr := os.ReadFile(filepath.Join(m.dir, rung.file))
		if rerr != nil {
			continue
		}
		s, derr := DecodeSnapshot(data)
		if derr != nil {
			if firstErr == nil {
				firstErr = derr
			}
			continue
		}
		return s, rung.name, nil
	}
	return nil, "", firstErr
}

// Snapshots reports successful Save calls.
func (m *Manager) Snapshots() int64 { return m.snapshots.Load() }

// Failures reports failed Save calls.
func (m *Manager) Failures() int64 { return m.failures.Load() }

// LastSaved returns the time of the last successful Save (zero time when
// none has happened this process).
func (m *Manager) LastSaved() time.Time {
	n := m.lastSaved.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// Age reports time since the last successful Save, or -1 when none.
func (m *Manager) Age() time.Duration {
	ls := m.LastSaved()
	if ls.IsZero() {
		return -1
	}
	return m.opts.Now().Sub(ls)
}
