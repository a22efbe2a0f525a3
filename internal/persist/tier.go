package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/cache"
	"appx/internal/httpmsg"
)

// EntryRecord is the on-disk form of one spilled cache entry. Scope and Key
// are stored redundantly (the file path already encodes their hashes) so a
// hash collision or a misplaced file can never serve the wrong payload:
// Load verifies them against the request before returning anything.
//
// Records written before entries stopped carrying their request hold "req"
// and "refreshed" keys as well; decoding ignores them.
type EntryRecord struct {
	Scope   string            `json:"scope"`
	Key     string            `json:"key"`
	SigID   string            `json:"sig,omitempty"`
	Expires time.Time         `json:"expires"`
	Resp    *httpmsg.Response `json:"resp"`
}

// EncodeEntry envelopes an entry record for disk.
func EncodeEntry(rec *EntryRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return Encode(MagicEntry, payload), nil
}

// DecodeEntry validates and parses an enveloped entry file. Malformed input
// of any shape returns a *DecodeError, never a panic.
func DecodeEntry(data []byte) (*EntryRecord, error) {
	payload, err := Decode(MagicEntry, data)
	if err != nil {
		return nil, err
	}
	var rec EntryRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, decodeErr("bad-payload", err)
	}
	if rec.Resp == nil {
		return nil, decodeErr("bad-payload", errNoResponse)
	}
	return &rec, nil
}

var errNoResponse = jsonError("entry record has no response")

type jsonError string

func (e jsonError) Error() string { return string(e) }

// TierOptions configures a disk tier.
type TierOptions struct {
	// MaxBytes is the disk budget (default 1 GiB); exceeding it deletes the
	// oldest entry files. <0 disables the budget.
	MaxBytes int64
	// QueueLen bounds the write-behind spill queue (default 1024). A full
	// queue drops the spill (counted) — the memory tier is never blocked on
	// the disk.
	QueueLen int
	// Now supplies time; defaults to time.Now.
	Now func() time.Time
	// Faults optionally injects disk faults (tests and drills).
	Faults *Faults
}

func (o TierOptions) filled() TierOptions {
	if o.MaxBytes == 0 {
		o.MaxBytes = 1 << 30
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// spillOp is one queued write-behind operation: either an entry to write
// or a Flush fence (closed by the worker when every earlier op is done).
type spillOp struct {
	rec   *EntryRecord
	fence chan struct{}
}

// Tier is the file-backed cache level below the in-memory store. Writes are
// write-behind (Spill enqueues; a single worker encodes, checksums, and
// atomically writes), reads are read-through (Load verifies and decodes, so
// corruption degrades to a miss). It implements cache.Tier.
//
// Layout: dir/<scopeHash>/<keyHash>.ent — one file per entry, one directory
// per scope, so dropping a user's scope is one RemoveAll.
type Tier struct {
	dir  string
	opts TierOptions

	q    chan spillOp
	stop chan struct{}
	done chan struct{}

	// closed gates Spill/Drop so late callers after Close are no-ops
	// instead of panics on the closed channel.
	closed atomic.Bool

	bytes atomic.Int64

	// Counters.
	spilled, spillDropped, spillErrors atomic.Int64
	loads, hits, loadErrors            atomic.Int64
	stale, evicted, dropped            atomic.Int64

	// evictMu serializes budget sweeps; bytes accounting itself is atomic.
	evictMu sync.Mutex
}

// NewTier opens (or creates) a disk tier rooted at dir, recovers the
// resident-byte count from the existing files, and starts the spill worker.
func NewTier(dir string, opts TierOptions) (*Tier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &Tier{
		dir:  dir,
		opts: opts.filled(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	t.q = make(chan spillOp, t.opts.QueueLen)
	t.bytes.Store(t.walkBytes())
	go t.worker()
	return t, nil
}

// walkBytes sums the size of all entry files under the tier root.
func (t *Tier) walkBytes() int64 {
	var total int64
	filepath.WalkDir(t.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".ent" {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

func hashHex(s string, n int) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:n]
}

// entryPath maps scope/key to the entry file path.
func (t *Tier) entryPath(scope, key string) string {
	return filepath.Join(t.dir, hashHex(scope, 16), hashHex(scope+"\x00"+key, 24)+".ent")
}

// Spill enqueues a write-behind copy of the entry. It never blocks: when
// the queue is full (the disk cannot keep up) the spill is dropped and
// counted — losing a disk copy costs a future cold fetch, never latency
// now. Implements cache.Tier.
func (t *Tier) Spill(scope, key string, e *cache.Entry) {
	if t.closed.Load() || e == nil || e.Resp == nil {
		return
	}
	rec := &EntryRecord{Scope: scope, Key: key, SigID: e.SigID, Expires: e.Expires, Resp: e.Resp}
	select {
	case t.q <- spillOp{rec: rec}:
	default:
		t.spillDropped.Add(1)
	}
}

// Load reads scope/key through the disk tier. It returns (entry, true) only
// for an intact, unexpired record whose stored scope and key match the
// request; corrupt files are deleted and counted, stale files are deleted,
// and every failure mode is a miss, never an error to the caller.
// Implements cache.Tier.
func (t *Tier) Load(scope, key string) (*cache.Entry, bool) {
	t.loads.Add(1)
	path := t.entryPath(scope, key)
	info, err := os.Stat(path)
	if err != nil {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.loadErrors.Add(1)
		return nil, false
	}
	rec, err := DecodeEntry(data)
	if err != nil {
		// Corrupt on disk: delete so the damage is paid for once.
		t.loadErrors.Add(1)
		t.removeFile(path, info.Size())
		return nil, false
	}
	if rec.Scope != scope || rec.Key != key {
		// Hash collision or a copied file: never serve it.
		t.loadErrors.Add(1)
		return nil, false
	}
	if !t.opts.Now().Before(rec.Expires) {
		t.stale.Add(1)
		t.removeFile(path, info.Size())
		return nil, false
	}
	t.hits.Add(1)
	return &cache.Entry{Resp: rec.Resp, SigID: rec.SigID, Expires: rec.Expires}, true
}

// Drop removes a scope's directory — called when the memory tier evicts a
// user, so their spilled responses do not outlive them. Synchronous: user
// eviction is a privacy boundary, not a best-effort optimization.
// Implements cache.Tier.
func (t *Tier) Drop(scope string) {
	dir := filepath.Join(t.dir, hashHex(scope, 16))
	var freed int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			freed += info.Size()
		}
		t.dropped.Add(1)
		return nil
	})
	if err := os.RemoveAll(dir); err == nil {
		t.bytes.Add(-freed)
	}
}

// removeFile deletes one entry file and credits its bytes.
func (t *Tier) removeFile(path string, size int64) {
	if err := os.Remove(path); err == nil {
		t.bytes.Add(-size)
	}
}

// worker drains the spill queue: encode, checksum, write atomically,
// enforce the disk budget. One goroutine, so entry files are never written
// concurrently with themselves.
func (t *Tier) worker() {
	defer close(t.done)
	handle := func(op spillOp) {
		if op.fence != nil {
			close(op.fence)
			return
		}
		t.writeEntry(op.rec)
	}
	for {
		select {
		case op := <-t.q:
			handle(op)
		case <-t.stop:
			// Drain what was queued before Close so a graceful shutdown
			// flushes the write-behind backlog.
			for {
				select {
				case op := <-t.q:
					handle(op)
				default:
					return
				}
			}
		}
	}
}

// writeEntry performs one spill: envelope + atomic write + accounting.
func (t *Tier) writeEntry(rec *EntryRecord) {
	data, err := EncodeEntry(rec)
	if err != nil {
		t.spillErrors.Add(1)
		return
	}
	path := t.entryPath(rec.Scope, rec.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.spillErrors.Add(1)
		return
	}
	var old int64
	if info, err := os.Stat(path); err == nil {
		old = info.Size()
	}
	if err := writeAtomic(path, data, t.opts.Faults); err != nil {
		t.spillErrors.Add(1)
		return
	}
	// A fault injector may have torn the payload; account what actually
	// landed, not what we meant to write.
	written := int64(len(data))
	if info, err := os.Stat(path); err == nil {
		written = info.Size()
	}
	t.bytes.Add(written - old)
	t.spilled.Add(1)
	if t.opts.MaxBytes > 0 && t.bytes.Load() > t.opts.MaxBytes {
		t.evictOldest()
	}
}

// evictOldest deletes entry files oldest-modified-first until the tier is
// back under budget. Runs on the spill worker (or a test); the scan is
// O(files) but only triggered on budget breach.
func (t *Tier) evictOldest() {
	t.evictMu.Lock()
	defer t.evictMu.Unlock()
	type fileAge struct {
		path string
		size int64
		mod  time.Time
	}
	var files []fileAge
	filepath.WalkDir(t.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".ent" {
			return nil
		}
		if info, err := d.Info(); err == nil {
			files = append(files, fileAge{path: path, size: info.Size(), mod: info.ModTime()})
		}
		return nil
	})
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, f := range files {
		if t.bytes.Load() <= t.opts.MaxBytes {
			return
		}
		t.removeFile(f.path, f.size)
		t.evicted.Add(1)
	}
}

// Flush blocks until every spill enqueued before the call has been written.
// The fence rides the queue itself: a single FIFO worker closing it proves
// all earlier ops completed. Tests (and the kill/restart experiment) use
// it to make write-behind deterministic.
func (t *Tier) Flush() {
	if t.closed.Load() {
		return
	}
	fence := make(chan struct{})
	select {
	case t.q <- spillOp{fence: fence}:
	case <-t.stop:
		return
	}
	select {
	case <-fence:
	case <-t.done:
	}
}

// Close stops the spill worker after draining the queued backlog. The tier
// stays readable (Load) — Close only ends background writes.
func (t *Tier) Close() {
	if t.closed.CompareAndSwap(false, true) {
		close(t.stop)
		<-t.done
	}
}

// TierMetrics is an immutable snapshot of the tier's counters.
type TierMetrics struct {
	// Bytes is the resident on-disk footprint; Entries counts entry files.
	Bytes   int64
	Entries int
	// Spilled counts entries written; SpillDropped counts spills lost to a
	// full queue; SpillErrors counts write failures (ENOSPC, IO).
	Spilled, SpillDropped, SpillErrors int64
	// Loads counts read-through probes; Hits the ones that returned an
	// entry; LoadErrors corrupt or mismatched files; Stale expired files
	// deleted at read; Evicted budget deletions; Dropped scope deletions.
	Loads, Hits, LoadErrors int64
	Stale, Evicted, Dropped int64
}

// Metrics snapshots the tier's counters. Entries is counted by walking the
// directory (scrape-time only, not on any hot path).
func (t *Tier) Metrics() TierMetrics {
	entries := 0
	filepath.WalkDir(t.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".ent" {
			entries++
		}
		return nil
	})
	return TierMetrics{
		Bytes:        t.bytes.Load(),
		Entries:      entries,
		Spilled:      t.spilled.Load(),
		SpillDropped: t.spillDropped.Load(),
		SpillErrors:  t.spillErrors.Load(),
		Loads:        t.loads.Load(),
		Hits:         t.hits.Load(),
		LoadErrors:   t.loadErrors.Load(),
		Stale:        t.stale.Load(),
		Evicted:      t.evicted.Load(),
		Dropped:      t.dropped.Load(),
	}
}

// Purge deletes every entry file (used when a restored snapshot proves
// incompatible with the running graph: stale spilled state must not outlive
// the decision to cold-start).
func (t *Tier) Purge() {
	t.evictMu.Lock()
	defer t.evictMu.Unlock()
	names, err := os.ReadDir(t.dir)
	if err != nil {
		return
	}
	for _, d := range names {
		os.RemoveAll(filepath.Join(t.dir, d.Name()))
	}
	t.bytes.Store(0)
}
