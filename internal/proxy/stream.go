package proxy

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"appx/internal/httpmsg"
	"appx/internal/obs"
	"appx/internal/stream"
)

// Streaming data plane (DESIGN.md §12). Bodies move client↔cache↔origin
// through pooled buffers instead of whole-[]byte copies: one buffer of the
// declared length, or fixed-size chunks when no length is declared. Each
// matched-and-cacheable origin fetch becomes a "flight": one owner pumps the
// origin stream into a spool, any number of attached clients read from it
// concurrently, and a bounded prefix is captured for cache insertion and
// learning. The goroutine that opened the flight in the key table (owner) is
// the only writer: it pumps, closes the spool's writer, settles the flight out
// of the table, extracts the capture, and Discards the spool, in that order.
// Attachers only ever read and must close their reader on every path; a
// dangling reader would hold the overflow window open.

// flight is one in-progress origin fetch with a spooled body.
type flight struct {
	sp    *stream.Spool
	ready chan struct{} // closed once status/header/err are final

	// Written by the owner before close(ready), read-only afterwards.
	status int
	header []httpmsg.Field
	err    error

	// demanded is set once a client has attached: the response is no longer
	// speculation, and a prefetch worker owning the flight continues its
	// chain from a live request (runPrefetch).
	demanded atomic.Bool
}

// publish makes the origin's answer visible to attachers: status and
// headers become final.
func (f *flight) publish(resp *httpmsg.Response) {
	f.status = resp.Status
	f.header = resp.Header
	close(f.ready)
}

// failFlight seals a flight whose origin fetch never produced a body. The key
// table forgets it before attachers see err, so a second look never finds it.
func (p *Proxy) failFlight(fkey string, f *flight, err error) {
	p.keys.settle(fkey, f)
	f.err = err
	close(f.ready)
	f.sp.CloseWriter(err)
	f.sp.Discard()
}

// pump drives the origin body into the flight's spool. It is the
// consume-or-cancel point for streamed bodies: on a clean end the spool
// holds the capture; when the body overflows the cap with no readers left,
// the spool stops reading instead of buying bytes nobody wants. A body whose
// length the response declares is read into one segment of that length
// (stream.Spool.Reserve), unless one chunk holds it and capture, whether the
// caller will capture it, is false; a body that arrived whole becomes the
// spool's only segment. Always closes the
// response body (returning the pooled connection or tearing it down) and
// the spool writer.
func (p *Proxy) pump(f *flight, resp *httpmsg.Response, method string, capture bool) {
	if !resp.Streaming() {
		// Buffered upstreams (in-process handlers, a revalidated twin)
		// arrive whole.
		f.sp.Adopt(resp.Body)
		f.sp.CloseWriter(nil)
		return
	}
	if n, ok := bodyLength(method, resp); ok {
		f.sp.Reserve(n, capture)
	}
	_, err := f.sp.ReadFrom(resp.Stream())
	// A clean EOF has consumed the body: closing hands the connection back
	// to the pool with nothing left to drain.
	if cerr := resp.CloseBody(); cerr != nil && err == nil {
		p.streamStats.drainErrors.Add(1)
	}
	f.sp.CloseWriter(err)
}

// bodyLength is the length of the body that follows resp's headers, when
// the response declares one. A response to HEAD, and a 1xx, 204 or 304,
// carries no body whatever its Content-Length says.
func bodyLength(method string, resp *httpmsg.Response) (int64, bool) {
	switch {
	case method == http.MethodHead, resp.Status < http.StatusOK,
		resp.Status == http.StatusNoContent, resp.Status == http.StatusNotModified:
		return 0, false
	}
	return declaredLength(resp.Header)
}

// byteRange is one parsed Range specifier; start < 0 means a suffix range
// ("-n", length in length), end < 0 means open-ended ("a-").
type byteRange struct {
	start, end int64
}

// parseRange parses a Range header value holding exactly one byte range.
// ok is false for anything malformed, non-bytes, or multi-range — callers
// then ignore the header (serve 200 full), which RFC 7233 permits.
func parseRange(v string) (br byteRange, ok bool) {
	const prefix = "bytes="
	if !strings.HasPrefix(v, prefix) {
		return br, false
	}
	part := strings.TrimSpace(v[len(prefix):])
	dash := strings.IndexByte(part, '-')
	if dash < 0 || strings.IndexByte(part, ',') >= 0 {
		return br, false
	}
	first, last := part[:dash], part[dash+1:]
	if first == "" {
		// Suffix form "-n".
		n, err := strconv.ParseInt(last, 10, 64)
		return byteRange{start: -1, end: n}, err == nil && n >= 0
	}
	start, err := strconv.ParseInt(first, 10, 64)
	if err != nil || start < 0 {
		return br, false
	}
	if last == "" {
		return byteRange{start: start, end: -1}, true
	}
	end, err := strconv.ParseInt(last, 10, 64)
	return byteRange{start: start, end: end}, err == nil && end >= start
}

// resolve maps the range onto a body of the given size, returning the
// absolute offset and length. ok is false when the range is unsatisfiable
// (start at or past the end, or a zero-length suffix).
func (br byteRange) resolve(size int64) (start, length int64, ok bool) {
	switch {
	case br.start < 0: // suffix "-n"
		if br.end == 0 {
			return 0, 0, false
		}
		start = size - br.end
		if start < 0 {
			start = 0
		}
		return start, size - start, size > 0
	case br.start >= size:
		return 0, 0, false
	case br.end < 0 || br.end >= size: // "a-" or "a-b" past the end
		return br.start, size - br.start, true
	default:
		return br.start, br.end - br.start + 1, true
	}
}

// ifRangeApplies evaluates an If-Range precondition against the response's
// validators: a mismatch downgrades the range request to a full 200 (RFC
// 7233 §3.2). Absent If-Range always applies. Only strong comparison: a
// weak ETag ("W/...") never matches.
func ifRangeApplies(req *httpmsg.Request, respHeader []httpmsg.Field) bool {
	v, ok := req.GetHeader("If-Range")
	if !ok {
		return true
	}
	get := func(key string) string {
		for _, f := range respHeader {
			if strings.EqualFold(f.Key, key) {
				return f.Value
			}
		}
		return ""
	}
	if strings.HasPrefix(v, `"`) || strings.HasPrefix(v, "W/") {
		etag := get("Etag")
		return etag != "" && !strings.HasPrefix(etag, "W/") && !strings.HasPrefix(v, "W/") && v == etag
	}
	lm := get("Last-Modified")
	return lm != "" && v == lm
}

// rangeHeaderOf extracts the request's Range header (empty when absent).
func rangeHeaderOf(req *httpmsg.Request) string {
	v, _ := req.GetHeader("Range")
	return v
}

// requestedRange is the one byte range of req the proxy honours against a
// response with the given status and headers: a 200 source, a satisfied
// If-Range, a single well-formed spec. Everything else is served whole.
func requestedRange(req *httpmsg.Request, status int, header []httpmsg.Field) (byteRange, bool) {
	spec := rangeHeaderOf(req)
	if spec == "" || status != http.StatusOK || !ifRangeApplies(req, header) {
		return byteRange{}, false
	}
	return parseRange(spec)
}

// writeRangeHeaders puts the headers of a 206 or 416 answer on w: the
// response's own minus Content-Length, range support advertised, and the
// Content-Range and sliced Content-Length (when known) of this answer.
func writeRangeHeaders(w http.ResponseWriter, header []httpmsg.Field, status int, contentRange string, length int64) {
	for _, f := range header {
		if !strings.EqualFold(f.Key, "Content-Length") {
			w.Header().Add(f.Key, f.Value)
		}
	}
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Range", contentRange)
	if length >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
	}
	w.WriteHeader(status)
}

// writeBuffered serves a complete buffered response (cache hit, peer fill)
// honouring any Range header: single satisfiable ranges get a 206 slice,
// unsatisfiable ones a 416 with the total, everything else (multi-range,
// malformed, If-Range mismatch, non-200 source) the full 200.
func (p *Proxy) writeBuffered(w http.ResponseWriter, req *httpmsg.Request, resp *httpmsg.Response) {
	br, ranged := requestedRange(req, resp.Status, resp.Header)
	if !ranged || !resp.BodyComplete() {
		resp.WriteTo(w)
		return
	}
	size := int64(len(resp.Body))
	start, length, sat := br.resolve(size)
	if !sat {
		writeRangeHeaders(w, resp.Header, http.StatusRequestedRangeNotSatisfiable, fmt.Sprintf("bytes */%d", size), 0)
		return
	}
	writeRangeHeaders(w, resp.Header, http.StatusPartialContent,
		fmt.Sprintf("bytes %d-%d/%d", start, start+length-1, size), length)
	w.Write(resp.Body[start : start+length])
}

// flightRange resolves the request's Range header against an in-flight
// spool. The total is the captured size once the body is complete, and
// mid-flight the origin's declared Content-Length: against a known total
// full semantics apply — clamped ends, suffixes, a 416 for a range past the
// end. With no total known (a chunked or close-delimited body still
// arriving) no 206 can promise a length the body is sure to fill, so the
// whole body is served (length -1, empty contentRange), which RFC 7233
// allows. unsat reports an unsatisfiable range; contentRange then carries
// the 416's "bytes */total".
func flightRange(req *httpmsg.Request, f *flight) (start, length int64, contentRange string, unsat bool) {
	br, ranged := requestedRange(req, f.status, f.header)
	if !ranged {
		return 0, -1, "", false
	}
	size, known := declaredLength(f.header)
	if f.sp.Done() && !f.sp.Overflowed() && f.sp.Err() == nil {
		size, known = f.sp.Size(), true
	}
	if !known {
		return 0, -1, "", false
	}
	s, l, sat := br.resolve(size)
	if !sat {
		return 0, 0, fmt.Sprintf("bytes */%d", size), true
	}
	return s, l, fmt.Sprintf("bytes %d-%d/%d", s, s+l-1, size), false
}

// declaredLength returns the body length a response header declares: one
// Content-Length field holding a decimal that fits an int64.
func declaredLength(header []httpmsg.Field) (int64, bool) {
	v, found := "", false
	for _, f := range header {
		if strings.EqualFold(f.Key, "Content-Length") {
			if found {
				return 0, false
			}
			v, found = f.Value, true
		}
	}
	if !found {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 63)
	return int64(n), err == nil
}

// flushWriter flushes after every write so streamed bytes reach the client
// as they arrive instead of pooling in net/http's buffer — the difference
// between TTFB tracking the origin's first byte and tracking its last.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func newFlushWriter(w http.ResponseWriter) io.Writer {
	if f, ok := w.(http.Flusher); ok {
		return flushWriter{w: w, f: f}
	}
	return w
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if n > 0 {
		fw.f.Flush()
	}
	return n, err
}

// attachFlight serves one attaching client from another request's in-flight
// fetch through rd, the reader from offset 0 the key table handed it: waits
// for headers, resolves any Range, and streams. served is false — nothing
// written — when the attacher must fetch on its own; failed says the flight's
// origin fetch failed, and the table no longer holds it.
func (p *Proxy) attachFlight(x *exchange, f *flight, rd *stream.Reader) (served, failed bool) {
	f.demanded.Store(true)
	if rd == nil {
		return false, false // an over-cap body had slid past the start
	}
	defer func() { rd.Close() }()
	select {
	case <-f.ready:
	case <-x.ctx.Done():
		return false, false
	}
	if f.err != nil {
		return false, true
	}
	// A non-200 flight is the owner's conversation with the origin
	// (reconstruction reject, redirect); attaching would replay a response
	// this client never provoked. Fetch independently instead.
	if f.status != http.StatusOK {
		return false, false
	}
	off, length, contentRange, unsat := flightRange(x.req, f)
	if unsat {
		writeRangeHeaders(x.w, f.header, http.StatusRequestedRangeNotSatisfiable, contentRange, 0)
		p.firstByte(x)
		return true, false
	}
	if off != 0 {
		// A reader at the range's start takes over: one parked at 0 would hold
		// an over-cap body's window open.
		at, err := f.sp.ReaderAt(off)
		if err != nil {
			return false, false // the window slid past this offset
		}
		rd.Close()
		rd = at
	}
	p.serveSpool(x, f, rd, length, contentRange)
	return true, false
}

// serveSpool writes the status line and headers for one flight-served
// response — a 206 when contentRange names a slice, the flight's own status
// otherwise — and streams the (already offset-positioned) spool reader to
// the client with per-chunk flushing. The caller owns rd.
func (p *Proxy) serveSpool(x *exchange, f *flight, rd *stream.Reader, length int64, contentRange string) {
	w := x.w
	if length >= 0 {
		rd.Limit(length)
	}
	if contentRange != "" {
		writeRangeHeaders(w, f.header, http.StatusPartialContent, contentRange, length)
	} else {
		for _, h := range f.header {
			w.Header().Add(h.Key, h.Value)
		}
		w.WriteHeader(f.status)
	}
	// Headers are on the wire: this is the user-perceived first-byte point.
	p.firstByte(x)
	rd.WriteTo(newFlushWriter(w))
	x.sp.EndStage(obs.StageStream)
}

// streamStatCounters groups the data-plane counters (registered in
// registerStreamBridges).
type streamStatCounters struct {
	attachHits    atomic.Int64
	bodyOverflows atomic.Int64
	drainErrors   atomic.Int64
}

// registerStreamBridges exposes the streaming data plane on the registry.
func (p *Proxy) registerStreamBridges(reg *obs.Registry) {
	reg.CounterFunc("appx_flight_attach_total", "Clients served by attaching to an in-flight origin fetch.",
		p.streamStats.attachHits.Load)
	reg.CounterFunc("appx_body_overflow_total", "Bodies that exceeded the capture cap (streamed through uncached; prefetches aborted).",
		p.streamStats.bodyOverflows.Load)
	reg.CounterFunc("appx_drain_errors_total", "Response-body drains that failed mid-read (proxy and cluster).",
		func() int64 {
			n := p.streamStats.drainErrors.Load()
			if p.cluster != nil {
				n += p.cluster.c.DrainErrors()
			}
			return n
		})
	reg.GaugeFunc("appx_stream_chunks_outstanding", "Pooled body buffers (chunks and sized segments) currently checked out.",
		func() float64 { return float64(p.chunks.Outstanding()) })
}

// ChunkPool exposes the body-buffer pool (leak tests assert
// Outstanding()==0 once the proxy is quiescent).
func (p *Proxy) ChunkPool() *stream.Pool { return p.chunks }
