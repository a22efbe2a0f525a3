package httpmsg

import (
	"errors"
	"io"
	"net/http"
	"sync"
)

// ErrBodyTooLarge is returned when a body exceeds a configured cap:
// FromHTTPLimited for request bodies, Buffer for response bodies.
var ErrBodyTooLarge = errors.New("httpmsg: body exceeds configured limit")

var (
	errStreamingJSON = errors.New("httpmsg: JSON on streaming response (Buffer first)")
	errTruncatedJSON = errors.New("httpmsg: JSON on truncated body capture")
)

// DrainMax bounds how much of an unwanted body DrainAndClose will consume
// before giving up and closing. Past this, tearing the connection down is
// cheaper than reading to EOF for keep-alive reuse.
const DrainMax = 1 << 20

// bodyStream is the streaming body representation behind a Response.
type bodyStream struct {
	rc      io.ReadCloser
	closed  bool
	onClose []func()
	// hooks backs onClose for the usual one or two callbacks (the origin
	// attempt's context, the caller's bound), so registering them allocates
	// nothing.
	hooks [2]func()
}

// SetStream attaches a streaming body to the response. The response becomes
// streaming: WriteTo copies from rc, and Buffer/CloseBody consume it.
func (r *Response) SetStream(rc io.ReadCloser) {
	r.stream = &bodyStream{rc: rc}
	r.stream.onClose = r.stream.hooks[:0]
}

// Streaming reports whether the body is an unconsumed stream.
func (r *Response) Streaming() bool { return r.stream != nil && !r.stream.closed }

// Stream returns the underlying body reader, or nil for buffered responses.
func (r *Response) Stream() io.Reader {
	if r.stream == nil {
		return nil
	}
	return r.stream.rc
}

// OnBodyClose registers f to run exactly once when the streaming body is
// closed (by CloseBody, Buffer, WriteTo, or DrainAndClose). Layers that must
// keep resources alive for the lifetime of the body — an origin attempt's
// context, a pooled connection — hang their cleanup here. On a buffered
// response f runs immediately: there is no stream left to wait for.
func (r *Response) OnBodyClose(f func()) {
	if r.stream == nil || r.stream.closed {
		f()
		return
	}
	r.stream.onClose = append(r.stream.onClose, f)
}

// CloseBody closes a streaming body without consuming it and fires the
// OnBodyClose callbacks. Safe to call multiple times and on buffered
// responses.
func (r *Response) CloseBody() error {
	if r.stream == nil || r.stream.closed {
		return nil
	}
	r.stream.closed = true
	err := r.stream.rc.Close()
	for _, f := range r.stream.onClose {
		f()
	}
	r.stream.onClose = nil
	return err
}

// DrainAndClose discards the remaining streamed body (bounded by DrainMax)
// and closes it, so the transport can reuse the connection. It returns the
// first drain or close error. Buffered responses are a no-op.
func (r *Response) DrainAndClose() error {
	if r.stream == nil || r.stream.closed {
		return nil
	}
	_, derr := io.Copy(io.Discard, io.LimitReader(r.stream.rc, DrainMax))
	cerr := r.CloseBody()
	if derr != nil {
		return derr
	}
	return cerr
}

// Buffer consumes the streaming body into Body, converting the response to
// buffered form. When maxBytes > 0 and the body exceeds it, the capture is
// dropped, the body is closed, the response is marked truncated, and
// ErrBodyTooLarge is returned. No-op on buffered responses.
func (r *Response) Buffer(maxBytes int64) error {
	if r.stream == nil || r.stream.closed {
		return nil
	}
	src := io.Reader(r.stream.rc)
	if maxBytes > 0 {
		src = io.LimitReader(r.stream.rc, maxBytes+1)
	}
	b, rerr := io.ReadAll(src)
	cerr := r.CloseBody()
	if rerr != nil {
		return rerr
	}
	if maxBytes > 0 && int64(len(b)) > maxBytes {
		r.trunc = true
		return ErrBodyTooLarge
	}
	r.Body = b
	if cerr != nil {
		return cerr
	}
	return nil
}

// BodyComplete reports whether Body holds the complete entity: buffered and
// never truncated by a capture cap.
func (r *Response) BodyComplete() bool { return !r.Streaming() && !r.trunc }

// FromHTTPResponseStreaming wraps a *http.Response without reading its body:
// the returned Response is streaming and the caller owns the body via
// WriteTo / Buffer / DrainAndClose / CloseBody.
func FromHTTPResponseStreaming(resp *http.Response) *Response {
	out := &Response{Status: resp.StatusCode, Header: headerFields(resp.Header)}
	if resp.Body != nil {
		out.SetStream(resp.Body)
	}
	return out
}

// copyBufPool supplies the 32 KiB transfer buffers WriteTo and copyPooled
// use for stream copies, so the relay path allocates no per-request buffer.
var copyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

func copyPooled(dst io.Writer, src io.Reader) (int64, error) {
	bp := copyBufPool.Get().(*[]byte)
	// CopyBuffer prefers src's WriterTo when present (the spool reader's
	// zero-copy path); the pooled buffer covers plain readers.
	n, err := io.CopyBuffer(dst, src, *bp)
	copyBufPool.Put(bp)
	return n, err
}

// flushedWriter flushes after every write; WriteTo wraps flushable
// ResponseWriters in it for streaming bodies.
type flushedWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw flushedWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if n > 0 {
		fw.f.Flush()
	}
	return n, err
}
