package persist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"appx/internal/cache"
	"appx/internal/httpmsg"
)

var frozen = time.Unix(1_700_000_000, 0)

func testEntry(body string, expires time.Time) *cache.Entry {
	return &cache.Entry{
		Resp:    &httpmsg.Response{Status: 200, Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}}, Body: []byte(body)},
		SigID:   "t:sig#1",
		Expires: expires,
	}
}

// --- envelope ---

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte(`{"hello":"world"}`)
	enc := Encode(MagicSnapshot, payload)
	got, err := Decode(MagicSnapshot, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload round trip: got %q", got)
	}
}

// TestEnvelopeCorruptionModes: every way a file can be damaged decodes to a
// *DecodeError with a stable reason — never a panic, never bad data.
func TestEnvelopeCorruptionModes(t *testing.T) {
	enc := Encode(MagicSnapshot, []byte(`{"a":1}`))
	cases := []struct {
		name   string
		mut    func([]byte) []byte
		reason string
	}{
		{"empty", func(b []byte) []byte { return nil }, "short-header"},
		{"truncated-header", func(b []byte) []byte { return b[:10] }, "short-header"},
		{"wrong-magic", func(b []byte) []byte { b[0] = 'Z'; return b }, "bad-magic"},
		{"entry-magic-on-snapshot", func(b []byte) []byte {
			copy(b[0:8], MagicEntry[:])
			return b
		}, "bad-magic"},
		{"future-version", func(b []byte) []byte { b[11] = 99; return b }, "bad-version"},
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-3] }, "bad-length"},
		{"inflated-length", func(b []byte) []byte { b[19] += 7; return b }, "bad-length"},
		{"huge-length", func(b []byte) []byte {
			for i := 12; i < 20; i++ {
				b[i] = 0xff
			}
			return b
		}, "bad-length"},
		{"flipped-payload-byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, "bad-checksum"},
		{"flipped-checksum-byte", func(b []byte) []byte { b[25] ^= 0xff; return b }, "bad-checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mut(append([]byte(nil), enc...))
			_, err := Decode(MagicSnapshot, data)
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("err = %v, want *DecodeError", err)
			}
			if de.Reason != tc.reason {
				t.Fatalf("reason = %q, want %q", de.Reason, tc.reason)
			}
			if !IsCorrupt(err) {
				t.Fatalf("IsCorrupt(%v) = false", err)
			}
		})
	}
}

func TestDecodeSnapshotBadJSON(t *testing.T) {
	enc := Encode(MagicSnapshot, []byte(`{"users": [`)) // valid envelope, broken payload
	_, err := DecodeSnapshot(enc)
	var de *DecodeError
	if !errors.As(err, &de) || de.Reason != "bad-payload" {
		t.Fatalf("err = %v, want bad-payload DecodeError", err)
	}
}

// --- disk tier ---

func newTestTier(t *testing.T, opts TierOptions) *Tier {
	t.Helper()
	if opts.Now == nil {
		opts.Now = func() time.Time { return frozen }
	}
	tier, err := NewTier(filepath.Join(t.TempDir(), "cache"), opts)
	if err != nil {
		t.Fatalf("NewTier: %v", err)
	}
	t.Cleanup(tier.Close)
	return tier
}

func TestTierSpillLoadRoundTrip(t *testing.T) {
	tier := newTestTier(t, TierOptions{})
	e := testEntry(`{"v":1}`, frozen.Add(time.Hour))
	tier.Spill("user-a", "GET|api.example/x", e)
	tier.Flush()

	got, ok := tier.Load("user-a", "GET|api.example/x")
	if !ok {
		t.Fatal("Load miss after Spill+Flush")
	}
	if string(got.Resp.Body) != `{"v":1}` || got.SigID != "t:sig#1" || !got.Expires.Equal(e.Expires) {
		t.Fatalf("loaded entry mismatch: %+v", got)
	}
	m := tier.Metrics()
	if m.Spilled != 1 || m.Hits != 1 || m.Entries != 1 || m.Bytes <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestTierRecordFormat: a record written while entries still carried their
// request and a refresh mark loads with its body, signature and expiry, and
// a record spilled now carries neither key.
func TestTierRecordFormat(t *testing.T) {
	tier := newTestTier(t, TierOptions{})
	const old = `{"scope":"user-a","key":"GET|api.example/x","sig":"t:sig#1",` +
		`"expires":"2023-11-14T23:13:20Z","refreshed":true,` +
		`"resp":{"Status":200,"Header":[{"k":"Content-Type","v":"application/json"}],"Body":"eyJ2IjoxfQ=="},` +
		`"req":{"Method":"GET","Scheme":"http","Host":"api.example","Path":"/x","Query":null,"Header":null,` +
		`"BodyKind":0,"BodyForm":null,"BodyJSON":null,"BodyRaw":null}}`
	path := tier.entryPath("user-a", "GET|api.example/x")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, Encode(MagicEntry, []byte(old)), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := tier.Load("user-a", "GET|api.example/x")
	if !ok {
		t.Fatal("an older record did not load")
	}
	if string(got.Resp.Body) != `{"v":1}` || got.SigID != "t:sig#1" || !got.Expires.Equal(frozen.Add(time.Hour)) {
		t.Fatalf("older record loaded as %+v (body %q)", got, got.Resp.Body)
	}

	tier.Spill("user-b", "k", testEntry(`{"v":2}`, frozen.Add(time.Hour)))
	tier.Flush()
	data, err := os.ReadFile(tier.entryPath("user-b", "k"))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := Decode(MagicEntry, data)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(payload, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"req", "refreshed"} {
		if _, ok := keys[k]; ok {
			t.Fatalf("spilled record carries %q: %s", k, payload)
		}
	}
}

func TestTierLoadExpired(t *testing.T) {
	tier := newTestTier(t, TierOptions{})
	tier.Spill("u", "k", testEntry("x", frozen.Add(-time.Second)))
	tier.Flush()
	if _, ok := tier.Load("u", "k"); ok {
		t.Fatal("expired entry served from disk")
	}
	if m := tier.Metrics(); m.Stale != 1 || m.Entries != 0 {
		t.Fatalf("stale file not deleted: %+v", m)
	}
}

func TestTierCorruptFileIsMissAndDeleted(t *testing.T) {
	tier := newTestTier(t, TierOptions{})
	tier.Spill("u", "k", testEntry("x", frozen.Add(time.Hour)))
	tier.Flush()
	path := tier.entryPath("u", "k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry file: %v", err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt entry file: %v", err)
	}
	if _, ok := tier.Load("u", "k"); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt file not deleted after failed load")
	}
	if m := tier.Metrics(); m.LoadErrors != 1 {
		t.Fatalf("load error not counted: %+v", m)
	}
}

func TestTierScopeKeyMismatchNeverServed(t *testing.T) {
	tier := newTestTier(t, TierOptions{})
	tier.Spill("u", "k1", testEntry("x", frozen.Add(time.Hour)))
	tier.Flush()
	// Copy the file where another key's hash would live — a simulated hash
	// collision / misplaced file.
	src := tier.entryPath("u", "k1")
	dst := tier.entryPath("u", "k2")
	data, _ := os.ReadFile(src)
	os.MkdirAll(filepath.Dir(dst), 0o755)
	os.WriteFile(dst, data, 0o644)
	if _, ok := tier.Load("u", "k2"); ok {
		t.Fatal("entry served under the wrong key")
	}
}

func TestTierDropScope(t *testing.T) {
	tier := newTestTier(t, TierOptions{})
	tier.Spill("u1", "k", testEntry("a", frozen.Add(time.Hour)))
	tier.Spill("u2", "k", testEntry("b", frozen.Add(time.Hour)))
	tier.Flush()
	tier.Drop("u1")
	if _, ok := tier.Load("u1", "k"); ok {
		t.Fatal("dropped scope still served")
	}
	if _, ok := tier.Load("u2", "k"); !ok {
		t.Fatal("unrelated scope lost")
	}
	if m := tier.Metrics(); m.Dropped != 1 || m.Entries != 1 {
		t.Fatalf("metrics after drop: %+v", m)
	}
}

func TestTierBudgetEviction(t *testing.T) {
	tier := newTestTier(t, TierOptions{MaxBytes: 2048})
	big := make([]byte, 700)
	for i := 0; i < 6; i++ {
		tier.Spill("u", string(rune('a'+i)), testEntry(string(big), frozen.Add(time.Hour)))
		tier.Flush()
		// Distinct mtimes so oldest-first eviction is deterministic.
		time.Sleep(5 * time.Millisecond)
	}
	m := tier.Metrics()
	if m.Bytes > 2048 {
		t.Fatalf("over budget after eviction: %d bytes", m.Bytes)
	}
	if m.Evicted == 0 {
		t.Fatal("no evictions counted despite exceeding budget")
	}
	// The most recent entry must have survived.
	if _, ok := tier.Load("u", "f"); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestTierQueueOverflowDropsNotBlocks(t *testing.T) {
	tier := newTestTier(t, TierOptions{QueueLen: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tier.Spill("u", "k", testEntry("x", frozen.Add(time.Hour)))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Spill blocked on a full queue")
	}
	tier.Flush()
	m := tier.Metrics()
	if m.Spilled+m.SpillDropped != 100 {
		t.Fatalf("spilled %d + dropped %d != 100", m.Spilled, m.SpillDropped)
	}
}

// TestTierFaultsDegradeToMiss: torn and corrupted writes report success at
// write time but must degrade to a clean miss at read time; ENOSPC fails
// the write and is counted. No mode panics or serves damaged bytes.
func TestTierFaultsDegradeToMiss(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Faults)
	}{
		{"torn", func(f *Faults) { f.TornWriteProb = 1 }},
		{"corrupt", func(f *Faults) { f.CorruptProb = 1 }},
		{"enospc", func(f *Faults) { f.WriteErrProb = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFaults(42)
			tc.set(f)
			tier := newTestTier(t, TierOptions{Faults: f})
			tier.Spill("u", "k", testEntry(`{"big":"payload with enough bytes to tear"}`, frozen.Add(time.Hour)))
			tier.Flush()
			if e, ok := tier.Load("u", "k"); ok {
				// A torn write may truncate zero bytes (Intn can return
				// len); only identical bytes may ever be served.
				if string(e.Resp.Body) != `{"big":"payload with enough bytes to tear"}` {
					t.Fatalf("damaged entry served: %q", e.Resp.Body)
				}
			}
			fs := f.Stats()
			if fs.Torn+fs.Corrupted+fs.Failed == 0 {
				t.Fatal("fault injector never fired")
			}
			if tc.name == "enospc" {
				if m := tier.Metrics(); m.SpillErrors == 0 {
					t.Fatalf("ENOSPC not counted as spill error: %+v", m)
				}
			}
		})
	}
}

// --- store + tier integration ---

func TestStoreReadThroughPromotion(t *testing.T) {
	tier := newTestTier(t, TierOptions{})
	store := cache.New(cache.Options{Now: func() time.Time { return frozen }, Tier: tier})
	defer store.Close()

	store.Put("u", "k", testEntry(`{"v":1}`, frozen.Add(time.Hour)))
	tier.Flush()

	// A second store over the same tier simulates a restarted process:
	// memory empty, disk warm.
	store2 := cache.New(cache.Options{Now: func() time.Time { return frozen }, Tier: tier})
	defer store2.Close()
	e, fresh := store2.Get("u", "k")
	if !fresh || e == nil || string(e.Resp.Body) != `{"v":1}` {
		t.Fatalf("read-through miss: e=%v fresh=%v", e, fresh)
	}
	if m := store2.Metrics(); m.Hits != 1 || m.Misses != 0 {
		t.Fatalf("promotion not counted as hit: %+v", m)
	}
	// Promotion must not have re-spilled: still exactly one write.
	tier.Flush()
	if m := tier.Metrics(); m.Spilled != 1 {
		t.Fatalf("promotion echoed back to disk: %+v", m)
	}
	// And the promoted entry now serves from memory (no further tier loads).
	loadsBefore := tier.Metrics().Loads
	if _, fresh := store2.Get("u", "k"); !fresh {
		t.Fatal("promoted entry not in memory")
	}
	if tier.Metrics().Loads != loadsBefore {
		t.Fatal("memory hit still probed the disk tier")
	}
}

func TestStoreDropScopePropagatesToTier(t *testing.T) {
	tier := newTestTier(t, TierOptions{})
	store := cache.New(cache.Options{Now: func() time.Time { return frozen }, Tier: tier})
	defer store.Close()
	store.Put("u", "k", testEntry("x", frozen.Add(time.Hour)))
	tier.Flush()
	store.DropScope("u")
	if _, ok := tier.Load("u", "k"); ok {
		t.Fatal("dropped scope survived on disk")
	}
}

// --- snapshot manager ---

func testState() *State {
	return &State{
		SavedAt:          frozen,
		GraphFingerprint: "fp123",
		Users: []UserState{{
			Key:      "10.0.0.1",
			LastSeen: frozen,
			Exemplars: map[string]ExemplarState{
				"t:sig#1": {
					URIWilds:   []string{"api.example"},
					FieldWilds: map[string][]string{"query:v": {"7"}},
					Present:    map[string]bool{"query:v": true},
					Headers:    []httpmsg.Field{{Key: "User-Agent", Value: "test/1"}},
				},
			},
		}},
		Samples:    map[string]*httpmsg.Request{"t:sig#1": {Method: "GET", Scheme: "http", Host: "api.example", Path: "/x"}},
		Breakers:   map[string]BreakerState{"api.example": {State: "open", ConsecutiveFailures: 5, OpenForMs: 2000}},
		SigBackoff: map[string]BackoffState{"t:sig#2": {Consecutive: 3, RemainingMs: 1500}},
	}
}

func newTestManager(t *testing.T, opts ManagerOptions) *Manager {
	t.Helper()
	if opts.Now == nil {
		opts.Now = func() time.Time { return frozen }
	}
	m, err := NewManager(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	m := newTestManager(t, ManagerOptions{})
	if err := m.Save(testState()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	st, source, err := m.Load()
	if err != nil || st == nil || source != "current" {
		t.Fatalf("Load = (%v, %q, %v)", st, source, err)
	}
	if st.GraphFingerprint != "fp123" || len(st.Users) != 1 {
		t.Fatalf("state mismatch: %+v", st)
	}
	ex := st.Users[0].Exemplars["t:sig#1"]
	if len(ex.URIWilds) != 1 || ex.FieldWilds["query:v"][0] != "7" || !ex.Present["query:v"] {
		t.Fatalf("exemplar mismatch: %+v", ex)
	}
	if st.Breakers["api.example"].OpenForMs != 2000 || st.SigBackoff["t:sig#2"].Consecutive != 3 {
		t.Fatalf("resilience state mismatch: %+v", st)
	}
	if m.Snapshots() != 1 || m.Failures() != 0 {
		t.Fatalf("counters: %d/%d", m.Snapshots(), m.Failures())
	}
}

func TestSnapshotColdWhenEmpty(t *testing.T) {
	m := newTestManager(t, ManagerOptions{})
	st, source, err := m.Load()
	if st != nil || source != "" || err != nil {
		t.Fatalf("empty dir should be a clean cold start, got (%v, %q, %v)", st, source, err)
	}
}

// TestSnapshotLadder: a corrupt current snapshot falls back to the
// previous one; when both rungs are corrupt, Load reports the corruption
// so the caller can count restore_failed and start cold.
func TestSnapshotLadder(t *testing.T) {
	m := newTestManager(t, ManagerOptions{})
	first := testState()
	first.GraphFingerprint = "older"
	if err := m.Save(first); err != nil {
		t.Fatalf("Save 1: %v", err)
	}
	if err := m.Save(testState()); err != nil {
		t.Fatalf("Save 2: %v", err)
	}

	cur := filepath.Join(m.dir, SnapshotFile)
	data, _ := os.ReadFile(cur)
	data[len(data)-1] ^= 0xff
	os.WriteFile(cur, data, 0o644)

	st, source, err := m.Load()
	if err != nil || st == nil || source != "prev" {
		t.Fatalf("ladder fallback = (%v, %q, %v), want prev", st, source, err)
	}
	if st.GraphFingerprint != "older" {
		t.Fatalf("prev rung content wrong: %q", st.GraphFingerprint)
	}

	prev := filepath.Join(m.dir, SnapshotPrevFile)
	os.WriteFile(prev, []byte("garbage"), 0o644)
	st, _, err = m.Load()
	if st != nil || !IsCorrupt(err) {
		t.Fatalf("all-corrupt ladder = (%v, %v), want corrupt error", st, err)
	}
}

// TestSnapshotTruncatedFile: a truncation at any byte boundary (a torn
// write surviving a crash) decodes to an error, never a panic.
func TestSnapshotTruncatedFile(t *testing.T) {
	data, err := EncodeSnapshot(testState())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n += 7 {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", n, len(data))
		}
	}
}

func TestSnapshotFaultInjection(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Faults)
	}{
		{"torn", func(f *Faults) { f.TornWriteProb = 1 }},
		{"corrupt", func(f *Faults) { f.CorruptProb = 1 }},
		{"enospc", func(f *Faults) { f.WriteErrProb = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFaults(7)
			tc.set(f)
			m := newTestManager(t, ManagerOptions{Faults: f})
			err := m.Save(testState())
			if tc.name == "enospc" {
				if err == nil || !errors.Is(err, ErrNoSpace) {
					t.Fatalf("Save under ENOSPC = %v", err)
				}
				if m.Failures() != 1 {
					t.Fatalf("failure not counted: %d", m.Failures())
				}
				return
			}
			// Torn/corrupt report success; damage must surface at Load as a
			// recoverable corruption (or, for a zero-byte tear, luck out
			// with an intact file — either is acceptable, crashing is not).
			st, _, lerr := m.Load()
			if lerr != nil && !IsCorrupt(lerr) {
				t.Fatalf("Load error not recoverable corruption: %v", lerr)
			}
			if st != nil && st.GraphFingerprint != "fp123" {
				t.Fatalf("damaged state served: %+v", st)
			}
		})
	}
}

// TestSnapshotAtomicity: a Save that fails (injected ENOSPC) must leave the
// previous snapshot untouched and readable.
func TestSnapshotAtomicity(t *testing.T) {
	f := NewFaults(11)
	m := newTestManager(t, ManagerOptions{Faults: f})
	if err := m.Save(testState()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	f.WriteErrProb = 1
	next := testState()
	next.GraphFingerprint = "newer"
	if err := m.Save(next); err == nil {
		t.Fatal("Save should fail under ENOSPC")
	}
	st, source, err := m.Load()
	if err != nil || st == nil || st.GraphFingerprint != "fp123" || source != "current" {
		t.Fatalf("previous snapshot damaged by failed save: (%v, %q, %v)", st, source, err)
	}
}

func TestManagerAge(t *testing.T) {
	now := frozen
	m := newTestManager(t, ManagerOptions{Now: func() time.Time { return now }})
	if m.Age() != -1 {
		t.Fatalf("age before any save = %v, want -1", m.Age())
	}
	if err := m.Save(testState()); err != nil {
		t.Fatal(err)
	}
	now = now.Add(90 * time.Second)
	if m.Age() != 90*time.Second {
		t.Fatalf("age = %v, want 90s", m.Age())
	}
}
