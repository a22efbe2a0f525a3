package stream

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

// script hands out the fuzzer's bytes as small choices; past its end every
// choice is 0.
type script []byte

func (s *script) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// pieceReader serves body in reads whose sizes the script picks, and ends
// with fail instead of io.EOF when fail is set. It sometimes returns the
// last bytes together with the end, as io.Reader allows.
type pieceReader struct {
	body []byte
	s    *script
	fail error
}

func (r *pieceReader) Read(p []byte) (int, error) {
	if len(r.body) == 0 {
		if r.fail != nil {
			return 0, r.fail
		}
		return 0, io.EOF
	}
	n := copy(p, r.body[:min(len(r.body), 1+r.s.next(300))])
	r.body = r.body[n:]
	if len(r.body) == 0 && r.fail == nil && r.s.next(2) == 1 {
		return n, io.EOF
	}
	return n, nil
}

// stopWriter takes at most room bytes, then fails like a client that went
// away.
type stopWriter struct {
	got  []byte
	room int
}

var errClientGone = errors.New("client gone")

func (w *stopWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		w.got = append(w.got, p[:w.room]...)
		n := w.room
		w.room = 0
		return n, errClientGone
	}
	w.got = append(w.got, p...)
	w.room -= len(p)
	return len(p), nil
}

// FuzzSpool drives one spool with a writer script against readers the
// script places, and checks it against the body it was meant to carry. The
// writer declares the body's length honestly, short, long or not at all
// (Reserve, capturing or not, maybe onto a recycled buffer of stale bytes),
// then writes it through ReadFrom reads and Append calls of scripted sizes,
// or adopts it whole, with or without slack, and may fail at the end.
// Readers attach at any offset, may carry a Limit, read with Read or
// WriteTo, and may leave early. Each reader gets exactly its window of the
// body, or a prefix of it when it left early or the writer failed. Bytes is
// ok exactly when the body completed within the cap, and then holds the body
// with cap == len. Outstanding is 0 once the spool is discarded and every
// reader closed.
func FuzzSpool(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 3, 1, 1, 0, 2, 1, 0, 50, 7, 3, 2, 9, 1, 0, 4})
	f.Add([]byte{255, 11, 2, 0, 1, 1, 0, 1, 255, 255, 1, 0, 0, 1, 200, 3})
	f.Add([]byte{90, 7, 3, 3, 0, 0, 2, 1, 1, 0, 40, 1, 5, 2, 2, 0, 1, 0, 100, 1})
	f.Add([]byte{180, 9, 0, 2, 1, 3, 0, 0, 3, 2, 1, 60, 1, 1, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := script(data)
		const chunk = 64
		n := s.next(256) * (1 + s.next(12)) // up to ~3 KiB: many chunks
		body := fill(n, byte(n))
		captureCap := int64([]int{0, 256, 1024, 4096}[s.next(4)])
		pool := NewPool(chunk)
		if s.next(2) == 1 && n > 0 {
			// A recycled buffer of the body's size holding stale bytes, for a
			// Reserve to pick up.
			stale := pool.take(n)
			for i := range stale {
				stale[i] = 0xee
			}
			pool.recycle(stale)
		}
		sp := NewSpool(pool, captureCap, nil)

		// Readers attach before the first byte, so no offset is trimmed yet.
		type reader struct {
			off, limit int64 // limit < 0: none
			leave      int   // bytes after which it leaves; < 0: never
			writeTo    bool
		}
		var rs []reader
		for i := s.next(4); i > 0; i-- {
			r := reader{off: int64(s.next(n + 16)), limit: -1, leave: -1, writeTo: s.next(2) == 1}
			if s.next(2) == 1 {
				r.limit = int64(s.next(n + 1))
			}
			if s.next(3) == 0 {
				r.leave = s.next(n + 1)
			}
			rs = append(rs, r)
		}
		var wg sync.WaitGroup
		for _, r := range rs {
			rd, err := sp.ReaderAt(r.off)
			if err != nil {
				t.Fatalf("ReaderAt(%d) before any write: %v", r.off, err)
			}
			if r.limit >= 0 {
				rd.Limit(r.limit)
			}
			end := int64(n)
			if r.limit >= 0 {
				end = min(end, r.off+r.limit)
			}
			want := body[min(r.off, int64(n)):max(min(r.off, int64(n)), end)]
			readSize := 1 + s.next(200)
			wg.Add(1)
			go func(r reader, rd *Reader) {
				defer wg.Done()
				defer rd.Close()
				var got []byte
				var err error
				if r.writeTo {
					room := len(want) + 1
					if r.leave >= 0 {
						room = r.leave
					}
					w := &stopWriter{room: room}
					_, err = rd.WriteTo(w)
					got = w.got
				} else {
					buf := make([]byte, readSize)
					for r.leave < 0 || len(got) < r.leave {
						var m int
						m, err = rd.Read(buf)
						got = append(got, buf[:m]...)
						if err != nil {
							break
						}
					}
					if errors.Is(err, io.EOF) {
						err = nil
					}
				}
				left := r.leave >= 0 && len(got) < len(want)
				switch {
				case !bytes.HasPrefix(want, got):
					t.Errorf("reader at %d (limit %d): got %d bytes that are not a prefix of its %d-byte window",
						r.off, r.limit, len(got), len(want))
				case err == nil && !left && len(got) != len(want):
					t.Errorf("reader at %d (limit %d): ended cleanly after %d of %d bytes", r.off, r.limit, len(got), len(want))
				}
			}(r, rd)
		}

		var werr error
		switch mode := s.next(8); {
		case mode == 0:
			sp.Adopt(body)
		case mode == 1:
			sp.Adopt(append(body[:n:n], 0)[:n]) // a body with slack
		default:
			switch s.next(4) {
			case 0:
				sp.Reserve(int64(n), s.next(2) == 1)
			case 1:
				sp.Reserve(int64(n-s.next(n+1)), s.next(2) == 1)
			case 2:
				sp.Reserve(int64(n+1+s.next(200)), s.next(2) == 1)
			}
			rest := body
			for len(rest) > 0 && werr == nil {
				k := min(len(rest), 1+s.next(400))
				if s.next(2) == 0 {
					_, werr = sp.Append(rest[:k])
				} else {
					var got int64
					got, werr = sp.ReadFrom(&pieceReader{body: rest[:k], s: &s})
					if werr == nil && got != int64(k) {
						t.Fatalf("ReadFrom read %d of %d bytes and reported no error", got, k)
					}
				}
				rest = rest[k:]
			}
			if werr == nil && s.next(4) == 0 {
				// The origin dies after the last byte, before its end.
				_, werr = sp.ReadFrom(&pieceReader{s: &s, fail: errors.New("origin reset")})
			}
		}
		sp.CloseWriter(werr)

		completed := werr == nil && (captureCap <= 0 || int64(n) <= captureCap)
		got, ok := sp.Bytes()
		if ok != completed {
			t.Fatalf("Bytes ok = %v for a %d-byte body under cap %d with writer error %v", ok, n, captureCap, werr)
		}
		if ok && (!bytes.Equal(got, body) || cap(got) != len(got)) {
			t.Fatalf("Bytes = %d bytes (cap %d), want the %d-byte body with no slack", len(got), cap(got), n)
		}
		sp.Discard()
		wg.Wait()
		if out := pool.Outstanding(); out != 0 {
			t.Fatalf("%d buffers outstanding after Discard and every Close", out)
		}
	})
}
