// Package stream provides the pooled body path for the proxy data plane: a
// bounded pool of chunks and sized segments, and a multi-reader spool that
// tees an origin stream to any number of clients while capturing a bounded
// prefix for cache insertion.
//
// A body whose length is declared takes one segment of that length
// (Spool.Reserve): the writer reads into it (Spool.ReadFrom), a reader
// writes everything that has arrived in one call, and the capture is that
// segment. A body that arrived whole is adopted as the only segment. A body
// of undeclared length, or longer than the cap, streams through fixed-size
// chunks.
//
// Ownership rules (see DESIGN.md §12):
//
//   - Exactly one writer appends to a Spool and must end the stream with
//     CloseWriter. The writer is usually the origin pump goroutine.
//   - Any number of readers attach via ReaderAt; each must Close. Readers
//     never mutate segments — the writer only writes past every reader's
//     view and trim never reclaims a segment a live reader can still address.
//   - The spool owner (whoever created it) must call Discard exactly once
//     after the writer is done and the capture has been consumed; segments
//     return to the pool only when the writer is closed, the reader count is
//     zero, and Discard has been called. A segment Bytes handed out, or an
//     adopted body, is never recycled. The pool's Outstanding counter is the
//     leak oracle for tests.
//
// Over-cap bodies: once Size exceeds the capture cap the spool "overflows" —
// the full body can no longer be captured, Bytes reports !ok, and the spool
// degrades to a bounded relay window. Fully-consumed leading segments are
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
// buffers returned beyond the bound are dropped for the GC to reclaim.
const maxPoolRetainedBytes = 16 << 20

// Pool hands out byte buffers from a bounded free list and counts the
// buffers currently checked out: fixed-size chunks, and the sized first
// segments of bodies whose length is declared (Spool.Reserve). Free
// buffers, chunks and segments alike, share one list under one retention
// bound; a buffer is reused only at exactly its size, and when the bound is
// reached the buffers freed longest ago go first, so sizes the traffic no
// longer asks for cannot crowd out the ones it does. A plain mutex-guarded
// list (rather than sync.Pool) keeps checkout and return allocation-free —
// boxing a []byte into an interface costs one heap allocation per Put,
// which would defeat the data plane's O(1) allocs-per-request budget. The
// Outstanding counter exists for leak tests: every abort path in the proxy
// must return to Outstanding()==0 once quiescent.
type Pool struct {
	chunk       int
	maxRetained int
	mu          sync.Mutex
	free        [][]byte // oldest first
	retained    int      // bytes held in free
	outstanding atomic.Int64
}

// NewPool returns a pool of chunkBytes-sized chunks.
func NewPool(chunkBytes int) *Pool {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	return &Pool{chunk: chunkBytes, maxRetained: max(maxPoolRetainedBytes, 32*chunkBytes)}
}

// ChunkBytes reports the fixed chunk size.
func (pl *Pool) ChunkBytes() int { return pl.chunk }

// Get checks a chunk out of the pool. The chunk is full-length (ChunkBytes).
func (pl *Pool) Get() []byte { return pl.take(pl.chunk) }

// Put returns a chunk obtained from Get. Foreign slices are rejected so a
// misrouted buffer can never poison the pool.
func (pl *Pool) Put(b []byte) {
	if cap(b) == pl.chunk {
		pl.recycle(b)
	}
}

// Outstanding reports how many buffers are currently checked out.
func (pl *Pool) Outstanding() int64 { return pl.outstanding.Load() }

// take checks out a buffer of length n: the most recently freed one of
// capacity exactly n, else a new one. A checkout never holds more than it
// asked for.
func (pl *Pool) take(n int) []byte {
	pl.outstanding.Add(1)
	pl.mu.Lock()
	for i := len(pl.free) - 1; i >= 0; i-- {
		if b := pl.free[i]; cap(b) == n {
			pl.removeLocked(i)
			pl.mu.Unlock()
			return b[:n]
		}
	}
	pl.mu.Unlock()
	return make([]byte, n)
}

// recycle returns a buffer obtained from take to the free list, dropping
// the oldest free buffers until it fits the retention bound. A buffer
// smaller than a chunk, or larger than the bound, is left to the GC.
func (pl *Pool) recycle(b []byte) {
	pl.outstanding.Add(-1)
	c := cap(b)
	if c < pl.chunk || c > pl.maxRetained {
		return
	}
	pl.mu.Lock()
	for pl.retained+c > pl.maxRetained {
		pl.removeLocked(0)
	}
	pl.free = append(pl.free, b[:c])
	pl.retained += c
	pl.mu.Unlock()
}

// removeLocked takes free[i] off the list, keeping the rest in order.
func (pl *Pool) removeLocked(i int) {
	pl.retained -= cap(pl.free[i])
	last := len(pl.free) - 1
	copy(pl.free[i:], pl.free[i+1:])
	pl.free[last] = nil
	pl.free = pl.free[:last]
}

// forget counts out a buffer that leaves the pool for good: a capture handed
// to the cache, or a body the spool adopted but does not own.
func (pl *Pool) forget() { pl.outstanding.Add(-1) }

// ErrTrimmed is returned by ReaderAt when the requested offset has already
// been reclaimed (possible only after the spool overflowed its capture cap).
var ErrTrimmed = errors.New("stream: data before requested offset already trimmed")

// ErrReleased is returned by ReaderAt after the spool's segments have been
// recycled.
var ErrReleased = errors.New("stream: spool released")

// errWriteAfterClose reports a write by a writer that has already closed.
var errWriteAfterClose = errors.New("stream: write after CloseWriter")

// errAbandoned ends a ReadFrom whose body overflowed the capture cap with no
// reader attached: nobody can read those bytes any more, so reading on would
// buy nothing.
var errAbandoned = errors.New("stream: body abandoned (over the capture cap, no readers)")

// Spool is a multi-reader retained body stream. A single writer Appends
// bytes, or reads them in with ReadFrom; readers attached with ReaderAt see
// a consistent prefix and block until more data or CloseWriter. Up to cap
// bytes are retained for capture; past that the spool overflows into a
// bounded relay window.
//
// The retained window is a list of segments. The first may be sized to the
// body's declared length (Reserve) or be a body that arrived whole (Adopt);
// every later one is a pool chunk, and only the last is partial.
type Spool struct {
	mu   sync.Mutex
	cond sync.Cond

	pool *Pool
	cap  int64 // capture cap; <=0 means unbounded capture

	segs [][]byte // retained window
	base int64    // absolute offset of segs[0][0]
	size int64    // total bytes ever written

	// captured: segs[0] is referenced outside the spool — handed out by
	// Bytes, or adopted — so it never goes back to the pool's free table.
	captured bool

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

// Reserve sizes the first segment to exactly n bytes, the body's declared
// length, so the body arrives in one buffer, a reader sends everything that
// has arrived in one write, and a body that fills it is captured without a
// copy. The segment is checked out at once, before any body byte arrives: a
// flight holds its declared length, at most the cap, however much of it the
// origin has sent. A body one chunk holds, on a flight that will not
// capture it, takes a chunk as usual. Reserve does nothing unless the spool
// has a capture cap, 0 < n <= that cap, and nothing has been written: a
// body of undeclared length, or longer than the cap, streams through
// chunks.
func (s *Spool) Reserve(n int64, capture bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || s.cap <= 0 || n > s.cap || len(s.segs) > 0 || s.done || !capture && n <= int64(s.pool.chunk) {
		return
	}
	s.segs = append(s.segs, s.pool.take(int(n)))
}

// Adopt makes body, which arrived whole, the spool's only segment: readers
// and Bytes are served from it without a copy, and it is never written to
// nor recycled. It is the writer's whole body: the first and only write,
// before CloseWriter.
func (s *Spool) Adopt(body []byte) {
	if len(body) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) > 0 || s.done {
		panic("stream: Adopt after a write or a Reserve")
	}
	s.pool.outstanding.Add(1) // counted like any segment; forgotten on release
	s.segs = append(s.segs, body)
	s.captured = true
	// Nothing to hold back: the body is in memory already, so an over-cap
	// one overflows without backpressure.
	s.firstByte = s.now()
	s.size = int64(len(body))
	s.overflow = s.cap > 0 && s.size > s.cap
	s.cond.Broadcast()
}

// Append copies p into the spool's segments. It may block (backpressure)
// once the spool has overflowed and a slow reader is retaining more than the
// cap. Append must not be called after CloseWriter.
func (s *Spool) Append(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return 0, errWriteAfterClose
	}
	n := len(p)
	for len(p) > 0 {
		tail := s.tailLocked()
		if len(tail) == 0 {
			tail = s.pool.Get()
			s.segs = append(s.segs, tail)
		}
		w := copy(tail, p)
		p = p[w:]
		if err := s.wroteLocked(w); err != nil {
			return n - len(p), err
		}
	}
	return n, nil
}

// ReadFrom reads r to EOF straight into the spool: into the free tail of
// the last segment, then into fresh chunks. The read runs outside the lock;
// readers never look past Size, so the tail is the writer's alone. ReadFrom
// stops early with errAbandoned once the body has overflowed the cap with no
// reader attached. It must not be called after CloseWriter.
func (s *Spool) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.done {
			return total, errWriteAfterClose
		}
		if s.overflow && len(s.readers) == 0 {
			return total, errAbandoned
		}
		tail := s.tailLocked()
		fresh := len(tail) == 0
		if fresh {
			tail = s.pool.Get()
		}
		s.mu.Unlock()
		n, err := r.Read(tail)
		s.mu.Lock()
		switch {
		case n > 0 && fresh:
			s.segs = append(s.segs, tail)
		case fresh:
			s.pool.Put(tail) // the read that found EOF needed no room
		}
		if n > 0 {
			total += int64(n)
			if werr := s.wroteLocked(n); werr != nil {
				return total, werr
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// locateLocked maps an absolute offset at or past base to a segment index
// and an offset inside that segment; the index is len(s.segs) at the end of
// the last segment.
func (s *Spool) locateLocked(off int64) (int, int) {
	rel := off - s.base
	if len(s.segs) == 0 {
		return 0, 0
	}
	first := int64(len(s.segs[0]))
	if rel < first {
		return 0, int(rel)
	}
	chunk := int64(s.pool.chunk)
	rel -= first
	return 1 + int(rel/chunk), int(rel % chunk)
}

// tailLocked is the unwritten rest of the last segment, empty when it is
// full.
func (s *Spool) tailLocked() []byte {
	ci, co := s.locateLocked(s.size)
	if ci == len(s.segs) {
		return nil
	}
	return s.segs[ci][co:]
}

// wroteLocked publishes n bytes the writer has put at the tail: it wakes
// readers and, once the body is past the cap, trims and holds the writer
// back while a reader is attached and the retained window exceeds the cap.
func (s *Spool) wroteLocked(n int) error {
	if s.firstByte.IsZero() {
		s.firstByte = s.now()
	}
	s.size += int64(n)
	if s.cap > 0 && s.size > s.cap {
		s.overflow = true
	}
	s.cond.Broadcast() // wake readers waiting for data
	if !s.overflow {
		return nil
	}
	s.trimLocked()
	for !s.released && len(s.readers) > 0 && s.retainedLocked() > s.windowLocked() {
		s.cond.Wait()
		s.trimLocked()
	}
	if s.released {
		return ErrReleased
	}
	return nil
}

// windowLocked is the retained-byte bound once overflowed: at least one
// chunk beyond the cap so progress is always possible.
func (s *Spool) windowLocked() int64 {
	w := s.cap
	if w <= 0 {
		w = int64(s.pool.chunk)
	}
	return max(w, int64(2*s.pool.chunk))
}

func (s *Spool) retainedLocked() int64 { return s.size - s.base }

// putFirstLocked hands segs[0] back to the pool — only counts it out when
// it is captured — and slides the window past it.
func (s *Spool) putFirstLocked() {
	if s.captured {
		s.pool.forget()
		s.captured = false
	} else {
		s.pool.recycle(s.segs[0])
	}
	s.base += int64(len(s.segs[0]))
	s.segs[0] = nil
	s.segs = s.segs[1:]
}

// trimLocked releases leading segments that every attached reader has fully
// consumed. Only legal after overflow (before that, the prefix is the
// capture). With no readers attached, an overflowed spool drops everything.
func (s *Spool) trimLocked() {
	if !s.overflow || s.released {
		return
	}
	low := s.size
	for r := range s.readers {
		low = min(low, r.off)
	}
	for len(s.segs) > 1 && s.base+int64(len(s.segs[0])) <= low {
		s.putFirstLocked()
	}
	// Drop the final partial segment too when nothing can ever read it again.
	if s.done && len(s.segs) == 1 && low >= s.size {
		s.putFirstLocked()
		s.segs = nil
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
// It is Bytes' ok without the capture.
func (s *Spool) Complete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completeLocked()
}

func (s *Spool) completeLocked() bool {
	return s.done && s.err == nil && !s.overflow && !s.released
}

// Bytes returns the captured body as one slice whose capacity is its
// length. A body held whole by its one segment — a sized segment it filled,
// a chunk it filled, or an adopted body — is returned as it is, and the
// segment is never recycled; any other is copied out. ok is false when the
// capture is unusable (see Complete).
func (s *Spool) Bytes() ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.completeLocked() {
		return nil, false
	}
	n := int(s.size - s.base)
	if len(s.segs) == 1 && len(s.segs[0]) == n {
		s.captured = true
		return s.segs[0][:n:n], true
	}
	out := make([]byte, 0, n)
	for _, seg := range s.segs {
		out = append(out, seg[:min(len(seg), n-len(out))]...)
	}
	return out, true
}

// Discard marks the capture consumed. Segments are recycled once the writer
// is closed and the last reader detaches. Safe to call more than once.
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
	for len(s.segs) > 0 {
		s.putFirstLocked()
	}
	s.segs = nil
	s.base = s.size
	s.released = true
}

// Overflowed reports whether the body exceeded the capture cap.
func (s *Spool) Overflowed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overflow
}

// Size reports total bytes written so far.
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

// FirstByte returns the timestamp of the first written byte (zero until
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
	ci, co := s.locateLocked(r.off)
	seg := s.segs[ci][co:]
	n := copy(p, seg[:min(int64(len(seg)), s.size-r.off)])
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
// without copying through an intermediate buffer, one write per contiguous
// run of arrived bytes. Segment slices are taken under the lock but written
// outside it; this is safe because trim never reclaims a segment at or past
// this reader's offset, and the offset only advances after the write
// completes.
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
		ci, co := s.locateLocked(r.off)
		seg := s.segs[ci][co:]
		avail := s.size - r.off
		if r.limit > 0 {
			avail = min(avail, r.limit)
		}
		if int64(len(seg)) > avail {
			seg = seg[:avail]
		}
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
