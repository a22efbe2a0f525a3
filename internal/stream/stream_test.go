package stream

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*7)
	}
	return b
}

func TestPoolRoundTrip(t *testing.T) {
	p := NewPool(128)
	if p.ChunkBytes() != 128 {
		t.Fatalf("chunk = %d, want 128", p.ChunkBytes())
	}
	a := p.Get()
	b := p.Get()
	if len(a) != 128 || len(b) != 128 {
		t.Fatalf("chunk lengths %d/%d", len(a), len(b))
	}
	if got := p.Outstanding(); got != 2 {
		t.Fatalf("outstanding = %d, want 2", got)
	}
	p.Put(a)
	p.Put(b)
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d, want 0", got)
	}
	// Foreign slices must be rejected, not counted.
	p.Put(make([]byte, 64))
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("outstanding after foreign put = %d, want 0", got)
	}
}

func TestSpoolCaptureSmallBody(t *testing.T) {
	p := NewPool(32)
	s := NewSpool(p, 1<<20, nil)
	body := fill(100, 3) // spans 4 chunks of 32
	for i := 0; i < len(body); i += 7 {
		end := i + 7
		if end > len(body) {
			end = len(body)
		}
		if _, err := s.Append(body[i:end]); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	s.CloseWriter(nil)
	got, ok := s.Bytes()
	if !ok {
		t.Fatal("Bytes: !ok for small complete body")
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("capture mismatch: got %d bytes", len(got))
	}
	s.Discard()
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("leak: %d chunks outstanding after discard", n)
	}
}

func TestSpoolReaderSeesFullStream(t *testing.T) {
	p := NewPool(64)
	s := NewSpool(p, 1<<20, nil)
	body := fill(1000, 9)

	r, err := s.ReaderAt(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, r); err != nil {
			t.Errorf("copy: %v", err)
		}
		r.Close()
		done <- buf.Bytes()
	}()

	for i := 0; i < len(body); i += 33 {
		end := i + 33
		if end > len(body) {
			end = len(body)
		}
		if _, err := s.Append(body[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	s.CloseWriter(nil)
	if got := <-done; !bytes.Equal(got, body) {
		t.Fatalf("reader saw %d bytes, want %d", len(got), len(body))
	}
	s.Discard()
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("leak: %d chunks outstanding", n)
	}
}

func TestSpoolOverflowUncapturableButStreams(t *testing.T) {
	p := NewPool(64)
	s := NewSpool(p, 256, nil) // cap far below body size
	body := fill(4096, 1)

	r, err := s.ReaderAt(0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		io.Copy(&buf, r)
		r.Close()
	}()
	if _, err := s.Append(body); err != nil {
		t.Fatalf("append: %v", err)
	}
	s.CloseWriter(nil)
	wg.Wait()

	if !s.Overflowed() {
		t.Fatal("want overflow")
	}
	if _, ok := s.Bytes(); ok {
		t.Fatal("Bytes: ok for overflowed body")
	}
	if !bytes.Equal(buf.Bytes(), body) {
		t.Fatalf("reader saw %d bytes, want %d", buf.Len(), len(body))
	}
	s.Discard()
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("leak: %d chunks outstanding", n)
	}
}

// TestSpoolOverflowBackpressure proves a slow reader bounds the writer's
// retained window rather than the writer buffering the whole body.
func TestSpoolOverflowBackpressure(t *testing.T) {
	p := NewPool(64)
	cap := int64(256)
	s := NewSpool(p, cap, nil)
	r, err := s.ReaderAt(0)
	if err != nil {
		t.Fatal(err)
	}

	total := 64 << 10
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		chunk := fill(1024, 5)
		for n := 0; n < total; n += len(chunk) {
			if _, err := s.Append(chunk); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			// The retained window must stay bounded: cap (or 2 chunks)
			// plus one chunk of slack for the in-progress append.
			if ret := s.Size() - readerOff(r); ret > cap+3*64 && s.Overflowed() {
				// Retained relative to the reader can lag; check the
				// spool's own window instead.
				_ = ret
			}
		}
		s.CloseWriter(nil)
	}()

	h := sha256.New()
	buf := make([]byte, 97)
	var got int
	for {
		n, err := r.Read(buf)
		h.Write(buf[:n])
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		// A slow reader must never observe the spool retaining much more
		// than the overflow window.
		if ret := s.retained(); ret > cap+2*64 {
			t.Fatalf("retained window %d exceeds bound %d", ret, cap+2*64)
		}
	}
	<-wrote
	r.Close()
	if got != total {
		t.Fatalf("read %d bytes, want %d", got, total)
	}
	s.Discard()
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("leak: %d chunks outstanding", n)
	}
}

// retained exposes the retained window size for tests.
func (s *Spool) retained() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retainedLocked()
}

func readerOff(r *Reader) int64 {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return r.off
}

func TestSpoolOverflowNoReadersDropsData(t *testing.T) {
	p := NewPool(64)
	s := NewSpool(p, 128, nil)
	// No readers: an overflowed append must not block and must not retain
	// more than one trailing chunk.
	if _, err := s.Append(fill(8192, 2)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if got := s.retained(); got > 64 {
		t.Fatalf("retained %d with no readers, want <= one chunk", got)
	}
	s.CloseWriter(nil)
	s.Discard()
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("leak: %d chunks outstanding", n)
	}
}

func TestReaderAtTrimmedOffset(t *testing.T) {
	p := NewPool(64)
	s := NewSpool(p, 64, nil)
	s.Append(fill(1024, 4)) // overflows; no readers → leading chunks dropped
	if _, err := s.ReaderAt(0); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("ReaderAt(0) err = %v, want ErrTrimmed", err)
	}
	s.CloseWriter(nil)
	s.Discard()
	if _, err := s.ReaderAt(0); !errors.Is(err, ErrReleased) {
		t.Fatalf("ReaderAt after release err = %v, want ErrReleased", err)
	}
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("leak: %d chunks", n)
	}
}

func TestReaderLimitAndOffset(t *testing.T) {
	p := NewPool(16)
	s := NewSpool(p, 1<<20, nil)
	body := fill(100, 8)
	s.Append(body)
	s.CloseWriter(nil)

	r, err := s.ReaderAt(10)
	if err != nil {
		t.Fatal(err)
	}
	r.Limit(25)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body[10:35]) {
		t.Fatalf("ranged read mismatch: got %d bytes", len(got))
	}
	r.Close()

	// WriteTo honours the same window.
	r2, err := s.ReaderAt(90)
	if err != nil {
		t.Fatal(err)
	}
	r2.Limit(100) // beyond EOF: truncated at stream end
	var buf bytes.Buffer
	n, err := r2.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || !bytes.Equal(buf.Bytes(), body[90:]) {
		t.Fatalf("WriteTo = %d bytes, want 10", n)
	}
	r2.Close()
	s.Discard()
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("leak: %d chunks", n)
	}
}

func TestSpoolWriterError(t *testing.T) {
	p := NewPool(64)
	s := NewSpool(p, 1<<20, nil)
	s.Append(fill(10, 1))
	boom := errors.New("origin reset")
	s.CloseWriter(boom)

	if _, ok := s.Bytes(); ok {
		t.Fatal("Bytes ok after writer error")
	}
	r, err := s.ReaderAt(0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _ := r.Read(buf)
	if n != 10 {
		t.Fatalf("read %d buffered bytes, want 10", n)
	}
	if _, err := r.Read(buf); !errors.Is(err, boom) {
		t.Fatalf("read err = %v, want writer error", err)
	}
	r.Close()
	s.Discard()
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("leak: %d chunks", n)
	}
}

func TestSpoolEmptyBody(t *testing.T) {
	p := NewPool(64)
	s := NewSpool(p, 1<<20, nil)
	s.CloseWriter(nil)
	b, ok := s.Bytes()
	if !ok || len(b) != 0 {
		t.Fatalf("empty body: ok=%v len=%d", ok, len(b))
	}
	if s.FirstByte().IsZero() || s.LastByte().IsZero() {
		t.Fatal("timestamps not stamped on empty close")
	}
	s.Discard()
}

func TestSpoolTimestamps(t *testing.T) {
	var tick int64
	now := func() time.Time { tick++; return time.Unix(0, tick) }
	s := NewSpool(NewPool(64), 1<<20, now)
	s.Append([]byte("ab"))
	s.Append([]byte("cd"))
	s.CloseWriter(nil)
	if fb, lb := s.FirstByte(), s.LastByte(); !fb.Before(lb) {
		t.Fatalf("first=%v last=%v, want first < last", fb, lb)
	}
	s.Discard()
}

// TestSpoolConcurrentReaders runs many readers attached at random offsets
// against one writer under -race; every reader must see exactly the stream
// suffix from its offset.
func TestSpoolConcurrentReaders(t *testing.T) {
	p := NewPool(128)
	s := NewSpool(p, 1<<20, nil)
	body := fill(32<<10, 6)

	const readers = 8
	rng := rand.New(rand.NewSource(1))
	offs := make([]int64, readers)
	for i := range offs {
		offs[i] = int64(rng.Intn(4096))
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		off := offs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.ReaderAt(off)
			if err != nil {
				errs <- err
				return
			}
			defer r.Close()
			got, err := io.ReadAll(r)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, body[off:]) {
				errs <- fmt.Errorf("reader at %d: got %d bytes, want %d", off, len(got), len(body)-int(off))
			}
		}()
	}

	for i := 0; i < len(body); i += 257 {
		end := i + 257
		if end > len(body) {
			end = len(body)
		}
		if _, err := s.Append(body[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	s.CloseWriter(nil)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s.Discard()
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("leak: %d chunks outstanding", n)
	}
}

// TestSpoolAbortReleasesChunks covers the early-abort path: a reader
// detaches mid-stream and the writer errors out; the pool must drain to
// zero once the owner discards.
func TestSpoolAbortReleasesChunks(t *testing.T) {
	p := NewPool(64)
	s := NewSpool(p, 1<<20, nil)
	r, _ := s.ReaderAt(0)
	s.Append(fill(500, 7))
	r.Close() // client went away
	s.CloseWriter(errors.New("aborted"))
	s.Discard()
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("leak: %d chunks outstanding after abort", n)
	}
}

// TestReserveChecksOutDeclaredSize: Reserve checks out the declared length
// before any body byte, and exactly that: a free buffer of another size is
// never handed out, so a flight holds no more than its body declares. A
// segment of the same size comes back from the free table, and a body one
// chunk holds, on a spool that will not capture it, takes no segment.
func TestReserveChecksOutDeclaredSize(t *testing.T) {
	p := NewPool(64)
	p.recycle(p.take(300)) // a free buffer larger than the body
	s := NewSpool(p, 1<<10, nil)
	s.Reserve(200, false)
	if n := p.Outstanding(); n != 1 {
		t.Fatalf("outstanding after Reserve = %d, want 1 (checked out at the headers)", n)
	}
	if got := cap(s.segs[0]); got != 200 {
		t.Fatalf("reserved segment has capacity %d, want exactly the declared 200", got)
	}
	s.ReadFrom(bytes.NewReader(fill(200, 1)))
	s.CloseWriter(nil)
	s.Discard()
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("outstanding = %d after Discard, want 0", n)
	}

	s = NewSpool(p, 1<<10, nil)
	s.Reserve(200, true)
	if len(s.segs) != 1 || cap(s.segs[0]) != 200 {
		t.Fatal("a Reserve of 200 did not take the recycled 200-byte segment")
	}
	s.CloseWriter(nil)
	s.Discard()

	s = NewSpool(p, 1<<10, nil)
	s.Reserve(50, false)
	if len(s.segs) != 0 || p.Outstanding() != 0 {
		t.Fatal("a body one chunk holds, not captured, reserved a segment")
	}
	s.CloseWriter(nil)
	s.Discard()
}

// TestPoolDropsOldestWhenFull: once free buffers of sizes nobody asks for
// any more fill the retention bound, a returned chunk displaces the oldest
// of them instead of being dropped, so chunk checkouts stop allocating.
func TestPoolDropsOldestWhenFull(t *testing.T) {
	p := NewPool(64)
	p.maxRetained = 980
	for n := 65; p.retained+n <= p.maxRetained; n++ {
		p.recycle(p.take(n)) // declared sizes that never recur
	}
	if p.maxRetained-p.retained >= p.ChunkBytes() {
		t.Fatalf("%d bytes of room left, want less than a chunk", p.maxRetained-p.retained)
	}
	p.Put(p.Get()) // the first return makes room
	if allocs := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); allocs != 0 {
		t.Fatalf("a chunk Get/Put allocates %v times with the list full of stale sizes, want 0", allocs)
	}
	if p.retained > p.maxRetained || p.Outstanding() != 0 {
		t.Fatalf("retained %d of %d bytes, %d outstanding", p.retained, p.maxRetained, p.Outstanding())
	}
}

func BenchmarkSpoolAppendRead(b *testing.B) {
	p := NewPool(DefaultChunkBytes)
	body := fill(256<<10, 3)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSpool(p, 1<<20, nil)
		r, _ := s.ReaderAt(0)
		go func() {
			for off := 0; off < len(body); off += 8192 {
				end := off + 8192
				if end > len(body) {
					end = len(body)
				}
				s.Append(body[off:end])
			}
			s.CloseWriter(nil)
		}()
		if _, err := r.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
		r.Close()
		s.Discard()
	}
	if n := p.Outstanding(); n != 0 {
		b.Fatalf("leak: %d chunks", n)
	}
}
