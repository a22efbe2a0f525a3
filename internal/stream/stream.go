// Package stream provides the pooled chunked body path for the proxy data
// plane: a sync.Pool-backed fixed-size chunk allocator and a multi-reader
// spool that tees an origin stream to any number of clients while capturing
// a bounded prefix for cache insertion.
//
// Ownership rules (see DESIGN.md §12):
//
//   - Exactly one writer appends to a Spool and must end the stream with
//     CloseWriter. The writer is usually the origin pump goroutine.
//   - Any number of readers attach via ReaderAt; each must Close. Readers
//     never mutate chunks — Append only writes past every reader's view and
//     trim never reclaims a chunk a live reader can still address.
//   - The spool owner (whoever created it) must call Discard exactly once
//     after the writer is done and the capture has been consumed; chunks
//     return to the pool only when the writer is closed, the reader count is
//     zero, and Discard has been called. The pool's Outstanding counter is
//     the leak oracle for tests.
//
// Over-cap bodies: once Size exceeds the capture cap the spool "overflows" —
// the full body can no longer be captured, Bytes reports !ok, and the spool
// degrades to a bounded relay window. Fully-consumed leading chunks are
// trimmed eagerly, and the writer blocks (backpressure) while more than the
// cap is retained and a reader is still attached, so a slow client bounds
// memory instead of the origin filling the heap.
package stream

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultChunkBytes is the chunk size used when a Pool is created with a
// non-positive size. 64 KiB matches the kernel socket buffer ballpark: large
// enough to amortize syscalls, small enough that a pool of them is cheap.
const DefaultChunkBytes = 64 << 10

// maxPoolRetainedBytes bounds how much free memory a Pool keeps around;
// chunks returned beyond the bound are dropped for the GC to reclaim.
const maxPoolRetainedBytes = 16 << 20

// Pool hands out fixed-size byte chunks from a bounded free list and counts
// the chunks currently checked out. A plain mutex-guarded stack (rather than
// sync.Pool) keeps Get/Put allocation-free — boxing a []byte into an
// interface costs one heap allocation per Put, which would defeat the data
// plane's O(1) allocs-per-request budget. The Outstanding counter exists for
// leak tests: every abort path in the proxy must return to Outstanding()==0
// once quiescent.
type Pool struct {
	chunk       int
	maxFree     int
	mu          sync.Mutex
	free        [][]byte
	outstanding atomic.Int64
}

// NewPool returns a pool of chunkBytes-sized chunks.
func NewPool(chunkBytes int) *Pool {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	maxFree := maxPoolRetainedBytes / chunkBytes
	if maxFree < 32 {
		maxFree = 32
	}
	return &Pool{chunk: chunkBytes, maxFree: maxFree}
}

// ChunkBytes reports the fixed chunk size.
func (pl *Pool) ChunkBytes() int { return pl.chunk }

// Get checks a chunk out of the pool. The chunk is full-length (ChunkBytes).
func (pl *Pool) Get() []byte {
	pl.outstanding.Add(1)
	pl.mu.Lock()
	if n := len(pl.free); n > 0 {
		b := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.mu.Unlock()
		return b
	}
	pl.mu.Unlock()
	return make([]byte, pl.chunk)
}

// Put returns a chunk obtained from Get. Foreign slices are rejected so a
// misrouted buffer can never poison the pool.
func (pl *Pool) Put(b []byte) {
	if cap(b) != pl.chunk {
		return
	}
	pl.outstanding.Add(-1)
	pl.mu.Lock()
	if len(pl.free) < pl.maxFree {
		pl.free = append(pl.free, b[:pl.chunk])
	}
	pl.mu.Unlock()
}

// Outstanding reports how many chunks are currently checked out.
func (pl *Pool) Outstanding() int64 { return pl.outstanding.Load() }

// ErrTrimmed is returned by ReaderAt when the requested offset has already
// been reclaimed (possible only after the spool overflowed its capture cap).
var ErrTrimmed = errors.New("stream: data before requested offset already trimmed")

// ErrReleased is returned by ReaderAt after the spool's chunks have been
// recycled.
var ErrReleased = errors.New("stream: spool released")

// Spool is a multi-reader retained body stream. A single writer Appends
// bytes; readers attached with ReaderAt see a consistent prefix and block
// until more data or CloseWriter. Up to cap bytes are retained for capture;
// past that the spool overflows into a bounded relay window.
type Spool struct {
	mu   sync.Mutex
	cond sync.Cond

	pool *Pool
	cap  int64 // capture cap; <=0 means unbounded capture

	chunks [][]byte // chunk-aligned retained window; only the last is partial
	base   int64    // absolute offset of chunks[0][0]
	size   int64    // total bytes ever appended

	overflow  bool
	done      bool
	err       error
	released  bool
	discarded bool

	readers map[*Reader]struct{}

	now       func() time.Time
	firstByte time.Time
	lastByte  time.Time
}

// NewSpool returns a spool drawing from pool, capturing at most captureCap
// bytes (<=0: unbounded). now stamps first/last-byte times; nil uses
// time.Now.
func NewSpool(pool *Pool, captureCap int64, now func() time.Time) *Spool {
	if now == nil {
		now = time.Now
	}
	s := &Spool{pool: pool, cap: captureCap, now: now}
	s.cond.L = &s.mu
	return s
}

// Append copies p into pooled chunks. It may block (backpressure) once the
// spool has overflowed and a slow reader is retaining more than the cap.
// Append must not be called after CloseWriter.
func (s *Spool) Append(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return 0, errors.New("stream: append after CloseWriter")
	}
	if s.firstByte.IsZero() {
		s.firstByte = s.now()
	}
	n := len(p)
	chunk := s.pool.ChunkBytes()
	for len(p) > 0 {
		// Fill the tail of the last chunk, or open a new one.
		off := int(s.size - s.base)
		last := len(s.chunks) - 1
		room := 0
		if last >= 0 {
			room = last*chunk + chunk - off
		}
		if room == 0 {
			s.chunks = append(s.chunks, s.pool.Get())
			room = chunk
			last++
		}
		w := copy(s.chunks[last][off-last*chunk:], p)
		p = p[w:]
		s.size += int64(w)

		if s.cap > 0 && s.size > s.cap {
			s.overflow = true
		}
		s.cond.Broadcast() // wake readers waiting for data
		if s.overflow {
			s.trimLocked()
			// Backpressure: while a reader is attached and the retained
			// window still exceeds the cap, wait for readers to advance.
			for !s.released && len(s.readers) > 0 && s.retainedLocked() > s.windowLocked() {
				s.cond.Wait()
				s.trimLocked()
			}
			if s.released {
				return n - len(p), ErrReleased
			}
		}
	}
	return n, nil
}

// windowLocked is the retained-byte bound once overflowed: at least one
// chunk beyond the cap so progress is always possible.
func (s *Spool) windowLocked() int64 {
	w := s.cap
	if w <= 0 {
		w = int64(s.pool.ChunkBytes())
	}
	if min := int64(2 * s.pool.ChunkBytes()); w < min {
		w = min
	}
	return w
}

func (s *Spool) retainedLocked() int64 { return s.size - s.base }

// trimLocked releases leading chunks that every attached reader has fully
// consumed. Only legal after overflow (before that, the prefix is the
// capture). With no readers attached, an overflowed spool drops everything.
func (s *Spool) trimLocked() {
	if !s.overflow || s.released {
		return
	}
	min := s.size
	for r := range s.readers {
		if r.off < min {
			min = r.off
		}
	}
	chunk := int64(s.pool.ChunkBytes())
	for len(s.chunks) > 1 && s.base+chunk <= min {
		s.pool.Put(s.chunks[0])
		s.chunks[0] = nil
		s.chunks = s.chunks[1:]
		s.base += chunk
	}
	// Drop the final partial chunk too when nothing can ever read it again.
	if s.done && len(s.chunks) == 1 && s.base+int64(len(s.chunks[0])) >= s.size && min >= s.size {
		s.pool.Put(s.chunks[0])
		s.chunks = nil
		s.base = s.size
	}
}

// CloseWriter ends the stream. err!=nil marks the body as failed mid-stream;
// readers observe err after draining buffered bytes.
func (s *Spool) CloseWriter(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	s.done = true
	s.err = err
	s.lastByte = s.now()
	if s.firstByte.IsZero() {
		s.firstByte = s.lastByte
	}
	s.trimLocked()
	s.maybeReleaseLocked()
	s.cond.Broadcast()
}

// Wait blocks until the writer has closed the stream and returns the
// writer's error.
func (s *Spool) Wait() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.done {
		s.cond.Wait()
	}
	return s.err
}

// Complete reports whether the spool holds the whole body as a usable
// capture: writer done, no mid-stream error, no overflow, not yet released.
// It is Bytes' ok without the concatenation.
func (s *Spool) Complete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completeLocked()
}

func (s *Spool) completeLocked() bool {
	return s.done && s.err == nil && !s.overflow && !s.released
}

// Bytes concatenates the captured body into a single slice. ok is false when
// the capture is unusable (see Complete).
func (s *Spool) Bytes() ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.completeLocked() {
		return nil, false
	}
	out := make([]byte, s.size-s.base)
	chunk := s.pool.ChunkBytes()
	for i, c := range s.chunks {
		end := int(s.size-s.base) - i*chunk
		if end > chunk {
			end = chunk
		}
		copy(out[i*chunk:], c[:end])
	}
	return out, true
}

// Discard marks the capture consumed. Chunks are recycled once the writer is
// closed and the last reader detaches. Safe to call more than once.
func (s *Spool) Discard() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.discarded = true
	s.maybeReleaseLocked()
	s.cond.Broadcast()
}

func (s *Spool) maybeReleaseLocked() {
	if s.released || !s.done || !s.discarded || len(s.readers) > 0 {
		return
	}
	for _, c := range s.chunks {
		s.pool.Put(c)
	}
	s.chunks = nil
	s.base = s.size
	s.released = true
}

// Overflowed reports whether the body exceeded the capture cap.
func (s *Spool) Overflowed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overflow
}

// Size reports total bytes appended so far.
func (s *Spool) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Done reports whether the writer has closed the stream.
func (s *Spool) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Err returns the writer's terminal error, if any.
func (s *Spool) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Readers reports the number of attached readers.
func (s *Spool) Readers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.readers)
}

// FirstByte returns the timestamp of the first appended byte (zero until
// then; CloseWriter on an empty body stamps both).
func (s *Spool) FirstByte() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstByte
}

// LastByte returns the CloseWriter timestamp (zero until done).
func (s *Spool) LastByte() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastByte
}

// ReaderAt attaches a reader starting at absolute offset off. It fails with
// ErrTrimmed when off precedes the retained window and ErrReleased after the
// spool has been recycled.
func (s *Spool) ReaderAt(off int64) (*Reader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return nil, ErrReleased
	}
	if off < s.base {
		return nil, ErrTrimmed
	}
	if off < 0 {
		return nil, fmt.Errorf("stream: negative offset %d", off)
	}
	r := &Reader{s: s, off: off, limit: -1}
	if s.readers == nil {
		// Made on first attach: a prefetch worker's own spool often has none.
		s.readers = make(map[*Reader]struct{})
	}
	s.readers[r] = struct{}{}
	return r, nil
}

// Reader is one attached consumer of a Spool. Not safe for concurrent use by
// multiple goroutines (attach one Reader per consumer instead).
type Reader struct {
	s      *Spool
	off    int64
	limit  int64 // remaining byte budget; -1 = unlimited
	closed bool
}

// Limit bounds the reader to n further bytes (for Range responses).
func (r *Reader) Limit(n int64) *Reader { r.limit = n; return r }

// Read implements io.Reader, blocking for more data until CloseWriter.
func (r *Reader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, errors.New("stream: read on closed reader")
	}
	if r.limit == 0 {
		return 0, io.EOF
	}
	if r.limit > 0 && int64(len(p)) > r.limit {
		p = p[:r.limit]
	}
	s := r.s
	s.mu.Lock()
	for {
		if r.off < s.base {
			s.mu.Unlock()
			return 0, ErrTrimmed
		}
		if r.off < s.size {
			break
		}
		if s.done {
			s.mu.Unlock()
			if s.err != nil {
				return 0, s.err
			}
			return 0, io.EOF
		}
		s.cond.Wait()
	}
	chunk := int64(s.pool.ChunkBytes())
	ci := (r.off - s.base) / chunk
	co := (r.off - s.base) % chunk
	avail := s.size - r.off
	c := s.chunks[ci]
	n := copy(p, c[co:min64(chunk, co+avail)])
	r.off += int64(n)
	if r.limit > 0 {
		r.limit -= int64(n)
	}
	s.trimLocked()
	s.cond.Broadcast() // wake a backpressured writer
	s.mu.Unlock()
	return n, nil
}

// WriteTo implements io.WriterTo: it streams the remaining window to w
// without copying through an intermediate buffer. Chunk slices are captured
// under the lock but written outside it; this is safe because trim never
// reclaims chunks at or past this reader's offset, and the offset only
// advances after the write completes.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	if r.closed {
		return 0, errors.New("stream: write-to on closed reader")
	}
	s := r.s
	var total int64
	for {
		if r.limit == 0 {
			return total, nil
		}
		s.mu.Lock()
		for r.off >= s.size && !s.done {
			s.cond.Wait()
		}
		if r.off < s.base {
			s.mu.Unlock()
			return total, ErrTrimmed
		}
		if r.off >= s.size {
			err := s.err
			s.mu.Unlock()
			return total, err
		}
		chunk := int64(s.pool.ChunkBytes())
		ci := (r.off - s.base) / chunk
		co := (r.off - s.base) % chunk
		avail := s.size - r.off
		if r.limit > 0 && avail > r.limit {
			avail = r.limit
		}
		end := co + avail
		if end > chunk {
			end = chunk
		}
		seg := r.s.chunks[ci][co:end]
		s.mu.Unlock()

		n, err := w.Write(seg)
		total += int64(n)
		s.mu.Lock()
		r.off += int64(n)
		if r.limit > 0 {
			r.limit -= int64(n)
		}
		s.trimLocked()
		s.cond.Broadcast()
		s.mu.Unlock()
		if err != nil {
			return total, err
		}
	}
}

// Close detaches the reader, waking any backpressured writer. Idempotent.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	s := r.s
	s.mu.Lock()
	delete(s.readers, r)
	s.trimLocked()
	s.maybeReleaseLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
