package proxy

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/httpmsg"
)

// The origin client (DESIGN.md §14). NetUpstream speaks HTTP/1.1 to the
// origins from the calling goroutine: it takes an idle connection (or dials
// one), writes the request, reads the response head with http.ReadResponse
// — the framing net/http's Transport itself uses — and hands back a
// streaming body. No reader or writer goroutine stands behind a connection.

// Idle-connection bounds, carried over from the http.Transport settings
// this client replaced.
const (
	maxIdlePerHost = 64
	maxIdle        = 256
	idleTimeout    = 30 * time.Second
	// maxHeadBytes bounds the response heads of one exchange, 1xx
	// responses included: http.Transport's default.
	maxHeadBytes = 10 << 20
)

// ErrUnsupportedScheme is returned for a request whose scheme is not plain
// http: the origin client neither speaks TLS nor hands off to one that does.
var ErrUnsupportedScheme = errors.New("proxy: origin scheme not supported (plain http only)")

var (
	errSwitchingProtocols = errors.New("proxy: origin answered 101 Switching Protocols")
	errBodyClosed         = errors.New("proxy: read on closed origin response body")
)

// readers lends connections their read buffers for the length of an
// exchange, so an idle connection holds none.
var readers = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// originConn is one connection to an origin. br is the read buffer while an
// exchange runs; an idle connection holds none.
type originConn struct {
	conn   net.Conn
	host   string
	br     *bufio.Reader
	head   []byte // request head scratch
	limit  int64  // bytes the response heads may still read
	reused bool
	idleAt time.Time
}

func newOriginConn(c net.Conn, host string) *originConn {
	return &originConn{conn: c, host: host, limit: math.MaxInt64}
}

// Read feeds br, refusing once the response heads have used up their bound.
func (pc *originConn) Read(p []byte) (int, error) {
	if pc.limit <= 0 {
		return 0, fmt.Errorf("proxy: origin response head exceeds %d bytes", maxHeadBytes)
	}
	if int64(len(p)) > pc.limit {
		p = p[:pc.limit]
	}
	n, err := pc.conn.Read(p)
	pc.limit -= int64(n)
	return n, err
}

// idlePool keeps idle connections per logical host, most recently idled
// last: the next exchange takes the warmest one.
type idlePool struct {
	mu    sync.Mutex
	hosts map[string][]*originConn
	n     int
	sweep *time.Timer // closes connections idle past idleTimeout; nil when empty
}

// get pops host's most recently idled connection, or returns nil. Anything
// below an expired connection has idled longer and is closed with it.
func (p *idlePool) get(host string) *originConn {
	now := time.Now()
	p.mu.Lock()
	s := p.hosts[host]
	if len(s) == 0 {
		p.mu.Unlock()
		return nil
	}
	pc := s[len(s)-1]
	var stale []*originConn
	if now.Sub(pc.idleAt) > idleTimeout {
		pc, stale = nil, s
		p.hosts[host] = nil
		p.n -= len(s)
	} else {
		s[len(s)-1] = nil
		p.hosts[host] = s[:len(s)-1]
		p.n--
	}
	p.mu.Unlock()
	closeAll(stale)
	return pc
}

// put idles pc, making room under the per-host and total bounds by closing
// the longest-idle connection.
func (p *idlePool) put(pc *originConn) {
	pc.idleAt = time.Now()
	p.mu.Lock()
	if p.hosts == nil {
		p.hosts = make(map[string][]*originConn)
	}
	var evict *originConn
	if s := p.hosts[pc.host]; len(s) >= maxIdlePerHost {
		evict = s[0]
		p.hosts[pc.host] = append(s[:0], s[1:]...)
		p.n--
	} else if p.n >= maxIdle {
		evict = p.popOldestLocked()
	}
	p.hosts[pc.host] = append(p.hosts[pc.host], pc)
	p.n++
	if p.sweep == nil {
		p.sweep = time.AfterFunc(idleTimeout, p.prune)
	}
	p.mu.Unlock()
	if evict != nil {
		evict.conn.Close()
	}
}

func (p *idlePool) popOldestLocked() *originConn {
	var oldest string
	for host, s := range p.hosts {
		if len(s) > 0 && (oldest == "" || s[0].idleAt.Before(p.hosts[oldest][0].idleAt)) {
			oldest = host
		}
	}
	s := p.hosts[oldest]
	pc := s[0]
	p.hosts[oldest] = append(s[:0], s[1:]...)
	p.n--
	return pc
}

// prune closes every connection idle past idleTimeout.
func (p *idlePool) prune() { p.closeIdle(time.Now().Add(-idleTimeout)) }

// closeIdle closes every connection idle since before cutoff, re-arming the
// sweep while any connection is left and dropping it otherwise.
func (p *idlePool) closeIdle(cutoff time.Time) {
	var stale []*originConn
	p.mu.Lock()
	for host, s := range p.hosts {
		i := 0
		for i < len(s) && s[i].idleAt.Before(cutoff) {
			i++
		}
		if i == 0 {
			continue
		}
		stale = append(stale, s[:i]...)
		p.n -= i
		if i == len(s) {
			delete(p.hosts, host)
		} else {
			p.hosts[host] = append(s[:0], s[i:]...)
		}
	}
	if p.sweep != nil {
		if p.n > 0 {
			p.sweep.Reset(idleTimeout)
		} else {
			p.sweep.Stop()
			p.sweep = nil
		}
	}
	p.mu.Unlock()
	closeAll(stale)
}

// CloseIdleConnections closes every idle origin connection, as
// http.Transport's method of the same name does. A connection in use is
// closed or pooled when its exchange ends.
func (u *NetUpstream) CloseIdleConnections() { u.idle.closeIdle(time.Now().Add(time.Hour)) }

func closeAll(pcs []*originConn) {
	for _, pc := range pcs {
		pc.conn.Close()
	}
}

// RoundTrip implements Upstream. The response is returned streaming — the
// body has not been read — so the first byte reaches the caller as soon as
// the origin sends headers, and the connection is held until the caller
// finishes the body (WriteTo / Buffer / DrainAndClose). It goes back to the
// idle pool only if the body reached its end under its framing, no
// cancellation fired, neither side asked to close, and nothing was read
// past the response (release).
//
// Cancelling ctx closes the connection, which fails whatever read or write
// is blocked on it: the emulated links' shaped reads wait on their delay
// queue and never see a deadline. A reused connection that fails before
// the first response byte is retried once on a fresh dial: net/http's rule
// for a connection the origin closed while it sat idle. A request that may
// not be sent twice runs on a connection of its own, dialled for it and
// closed after it: with no reader watching the pool, a connection the
// origin closed is found only once the request is written to it, and such
// a request may then not be sent again.
func (u *NetUpstream) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	if r.Scheme != "" && r.Scheme != "http" {
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedScheme, r.Scheme)
	}
	if err := r.CheckHead(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var pc *originConn
	if replayable(r) {
		pc = u.idle.get(r.Host)
	}
	for {
		if pc == nil {
			c, err := u.dial(ctx, "tcp", r.Host)
			if err != nil {
				return nil, err
			}
			pc = newOriginConn(c, r.Host)
		}
		resp, retry, err := u.exchange(ctx, pc, r)
		if !retry || ctx.Err() != nil {
			return resp, err
		}
		pc = nil
	}
}

// exchange sends r on pc and reads the response head. retry reports a
// failure before any response byte, on a reused connection, of a request
// that may be sent twice: a fresh connection may not repeat it.
func (u *NetUpstream) exchange(ctx context.Context, pc *originConn, r *httpmsg.Request) (resp *httpmsg.Response, retry bool, err error) {
	head, hreq, err := writeHead(pc.head[:0], r)
	if err != nil {
		// Nothing was sent: the connection is as clean as it came.
		u.idle.put(pc)
		return nil, false, err
	}
	if cap(head) <= 4<<10 {
		pc.head = head[:0] // a large body's scratch is not kept idle
	}

	var stop func() bool
	if ctx.Done() != nil {
		conn := pc.conn
		stop = context.AfterFunc(ctx, func() { conn.Close() })
	}
	fail := func(err error, retry bool) (*httpmsg.Response, bool, error) {
		if stop != nil {
			stop()
		}
		pc.conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, false, cerr
		}
		return nil, pc.reused && retry, err
	}
	pc.br = readers.Get().(*bufio.Reader)
	pc.br.Reset(pc)
	if _, err := pc.conn.Write(head); err != nil {
		return fail(err, replayable(r))
	}
	pc.limit = maxHeadBytes
	if _, err := pc.br.Peek(1); err != nil {
		return fail(err, replayable(r))
	}
	var hresp *http.Response
	for {
		if hresp, err = http.ReadResponse(pc.br, hreq); err != nil {
			return fail(err, false)
		}
		if hresp.StatusCode == http.StatusSwitchingProtocols {
			return fail(errSwitchingProtocols, false)
		}
		if hresp.StatusCode >= 200 || hresp.StatusCode < 100 {
			break
		}
	}
	pc.limit = math.MaxInt64

	keep := !hresp.Close && !wantsClose(r) && replayable(r)
	if hresp.Body == http.NoBody {
		u.release(pc, keep, stop)
	} else {
		hresp.Body = &originBody{u: u, pc: pc, body: hresp.Body, ctx: ctx, stop: stop, keep: keep}
	}
	return httpmsg.FromHTTPResponseStreaming(hresp), false, nil
}

// writeHead appends the request net/http's Transport would send for r —
// ToHTTP, then (*http.Request).Write, head and body — to buf. hreq is
// http.ReadResponse's view of the request.
func writeHead(buf []byte, r *httpmsg.Request) (head []byte, hreq *http.Request, err error) {
	if hreq, err = r.ToHTTP(); err != nil {
		return buf, nil, err
	}
	b := bytes.NewBuffer(buf)
	if err = hreq.Write(b); err != nil {
		return buf, nil, err
	}
	return b.Bytes(), hreq, nil
}

// release ends an exchange whose body is done: a connection whose framing
// and both sides allow reuse, whose cancellation could still be stopped, and
// that has read nothing past the response goes back to the pool; any other
// is closed. Bytes past a response's end — a body on a HEAD, 204 or 304, a
// body longer than its Content-Length, an unasked-for second response —
// belong to no request, and on a reused connection they would answer the
// next one, which may be another user's. Reuse happens only on the
// goroutine that read the body to its end, or before any body read, so no
// read can still be using the buffer it gives back.
func (u *NetUpstream) release(pc *originConn, keep bool, stop func() bool) {
	stopped := stop == nil || stop()
	if keep && stopped && pc.br.Buffered() == 0 {
		readers.Put(pc.br)
		pc.br = nil
		pc.reused = true
		u.idle.put(pc)
		return
	}
	pc.conn.Close()
}

// replayable is net/http's test for a request that may be sent twice: a
// safe method, or a declared idempotency key. Bodies here are in memory,
// so any body can be sent again.
func replayable(r *httpmsg.Request) bool {
	switch strings.ToUpper(r.Method) {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	_, key := r.GetHeader("Idempotency-Key")
	_, xkey := r.GetHeader("X-Idempotency-Key")
	return key || xkey
}

// wantsClose reports whether the request asked the origin to close the
// connection after answering.
func wantsClose(r *httpmsg.Request) bool {
	for _, f := range r.Header {
		if !strings.EqualFold(f.Key, "Connection") {
			continue
		}
		for _, tok := range strings.Split(f.Value, ",") {
			if strings.EqualFold(strings.TrimSpace(tok), "close") {
				return true
			}
		}
	}
	return false
}

// originBody is a response body on a live connection. Reaching io.EOF under
// the response's framing releases the connection; closing it first, or any
// read error, closes the connection instead. The framed body's own Close is
// never called: it would read the rest of the body to find its end.
type originBody struct {
	u    *NetUpstream
	pc   *originConn
	body io.ReadCloser // http.ReadResponse's framed body
	ctx  context.Context
	stop func() bool
	keep bool

	state atomic.Int32 // bodyOpen, then bodyEOF or bodyClosed
}

const (
	bodyOpen = iota
	bodyEOF
	bodyClosed
)

func (b *originBody) Read(p []byte) (int, error) {
	switch b.state.Load() {
	case bodyEOF:
		return 0, io.EOF
	case bodyClosed:
		return 0, errBodyClosed
	}
	n, err := b.body.Read(p)
	switch {
	case err == io.EOF:
		if b.state.CompareAndSwap(bodyOpen, bodyEOF) {
			b.u.release(b.pc, b.keep, b.stop)
		}
	case err != nil:
		b.Close()
		if cerr := b.ctx.Err(); cerr != nil {
			err = cerr
		}
	}
	return n, err
}

// Close abandons whatever of the body is unread: the connection is closed.
// A Read blocked on it, on another goroutine, fails.
func (b *originBody) Close() error {
	if b.state.CompareAndSwap(bodyOpen, bodyClosed) {
		b.u.release(b.pc, false, b.stop)
	}
	return nil
}
