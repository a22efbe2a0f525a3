package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

// request is one generated client request to the loopback origin's namespace.
// The same value says what to send and what the answer must be.
type request struct {
	user string // proxy user key (X-Appx-User)
	kind string // first path segment: list, item, detail, blob, catalog, asset
	id   string
	// device, when set, is sent as X-Device: a run-time header the item
	// signatures declare as a wildcard, which keeps their entries per user.
	device string
	// rangeLen > 0 asks for bytes [rangeOff, rangeOff+rangeLen) of a blob.
	rangeOff, rangeLen int
	// noTTFB leaves the request out of the first-byte statistic.
	noTTFB bool
}

// client is a minimal HTTP/1.1 forward-proxy client on one persistent
// connection. net/http's client costs several times what the proxy's hit path
// does; a generator that cheap to run keeps loadgen.self_us_per_req, the floor
// under every loopback latency, low enough for proxy changes to show.
type client struct {
	addr  string
	conn  net.Conn
	br    *bufio.Reader
	wbuf  []byte
	body  []byte
	inReq *atomic.Uint64 // request id in flight, shared with the handler shim
	tr    *tracer
}

func newClient(addr string, tr *tracer) (*client, error) {
	c := &client{addr: addr, tr: tr, inReq: new(atomic.Uint64)}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *client) connect() error {
	c.close()
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 64<<10)
	if c.tr != nil {
		c.tr.connReq.Store(conn.LocalAddr().String(), c.inReq)
	}
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		if c.tr != nil {
			c.tr.connReq.Delete(c.conn.LocalAddr().String())
		}
		c.conn.Close()
		c.conn = nil
	}
}

// requestTimeout bounds one exchange; no request of any workload comes close.
const requestTimeout = 20 * time.Second

// do sends rq and reads the whole response. body aliases the client's buffer
// and is valid until the next call. firstByte is when the first body byte (or,
// for an empty body, the header block) had arrived.
func (c *client) do(rq *request) (status int, body []byte, firstByte time.Time, err error) {
	if c.conn == nil {
		if err = c.connect(); err != nil {
			return 0, nil, time.Time{}, err
		}
	}
	b := c.wbuf[:0]
	b = append(b, "GET http://"+originHost+"/"...)
	b = append(b, rq.kind...)
	if queryKind(rq.kind) {
		b = append(b, "?id="...)
	} else {
		b = append(b, '/')
	}
	b = append(b, rq.id...)
	b = append(b, " HTTP/1.1\r\nHost: "+originHost+"\r\nX-Appx-User: "...)
	b = append(b, rq.user...)
	if rq.device != "" {
		b = append(b, "\r\nX-Device: "...)
		b = append(b, rq.device...)
	}
	if rq.rangeLen > 0 {
		b = append(b, "\r\nRange: bytes="...)
		b = strconv.AppendInt(b, int64(rq.rangeOff), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(rq.rangeOff+rq.rangeLen-1), 10)
	}
	b = append(b, "\r\n\r\n"...)
	c.wbuf = b
	c.conn.SetDeadline(time.Now().Add(requestTimeout))
	if _, err = c.conn.Write(b); err != nil {
		c.close()
		return 0, nil, time.Time{}, err
	}
	status, body, firstByte, err = c.readResponse()
	if err != nil {
		c.close()
	}
	return status, body, firstByte, err
}

var errFraming = errors.New("response neither length-delimited nor chunked")

func (c *client) readResponse() (status int, body []byte, firstByte time.Time, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	if len(line) < 12 {
		return 0, nil, time.Time{}, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, time.Time{}, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, time.Time{}, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "content-length:"); ok {
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, time.Time{}, fmt.Errorf("content-length %q: %w", v, err)
			}
		} else if v, ok := headerValue(line, "transfer-encoding:"); ok {
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	switch {
	case chunked:
		body, firstByte, err = c.readChunked()
	case length == 0:
		body, firstByte = c.body[:0], time.Now()
	case length > 0:
		if _, err = c.br.Peek(1); err != nil {
			return 0, nil, time.Time{}, err
		}
		firstByte = time.Now()
		if cap(c.body) < length {
			c.body = make([]byte, length)
		}
		body = c.body[:length]
		_, err = io.ReadFull(c.br, body)
	default:
		err = errFraming
	}
	return status, body, firstByte, err
}

// headerValue returns the trimmed value of a header line whose lower-cased
// name (with its colon) is name.
func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) < len(name) || !bytes.EqualFold(line[:len(name)], []byte(name)) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(name):]), true
}

func (c *client) readChunked() (body []byte, firstByte time.Time, err error) {
	body = c.body[:0]
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return nil, firstByte, err
		}
		n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
		if err != nil {
			return nil, firstByte, fmt.Errorf("chunk size %q: %w", line, err)
		}
		if n == 0 {
			// No workload sends trailers: the terminating blank line follows.
			if _, err = c.br.ReadSlice('\n'); err != nil {
				return nil, firstByte, err
			}
			if firstByte.IsZero() {
				firstByte = time.Now()
			}
			c.body = body[:0]
			return body, firstByte, nil
		}
		if firstByte.IsZero() {
			if _, err = c.br.Peek(1); err != nil {
				return nil, firstByte, err
			}
			firstByte = time.Now()
		}
		at := len(body)
		if cap(body) < at+int(n) {
			grown := make([]byte, at, 2*(at+int(n)))
			copy(grown, body)
			body = grown
		}
		body = body[:at+int(n)]
		if _, err = io.ReadFull(c.br, body[at:]); err != nil {
			return nil, firstByte, err
		}
		if _, err = c.br.Discard(2); err != nil {
			return nil, firstByte, err
		}
	}
}
