package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The loopback workloads share one origin whose every response is a pure
// function of the request path and the run's seed, so the client can rebuild
// the bytes the origin would have sent and compare them with what the proxy
// delivered — from the cache, from an in-flight fetch, or forwarded.

const (
	originHost = "bench.example"
	blobBytes  = 1 << 20
	blobHead   = 32
	padBytes   = 840 // brings the JSON messages to ~1 KB
)

// content generates the origin's bodies for one seed.
type content struct {
	block   []byte // blobBytes of seeded noise, the tail of every blob
	pad     []byte // seeded printable noise the JSON padding is cut from
	listFan int    // ids per /list and /catalog response
}

func newContent(seed int64, listFan int) *content {
	rng := rand.New(rand.NewSource(seed))
	c := &content{block: make([]byte, blobBytes), pad: make([]byte, 8192), listFan: listFan}
	rng.Read(c.block)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := range c.pad {
		c.pad[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return c
}

func fnv(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

func (c *content) appendPad(dst []byte, id string) []byte {
	off := int(fnv(id) % uint32(len(c.pad)-padBytes))
	dst = append(dst, `,"pad":"`...)
	dst = append(dst, c.pad[off:off+padBytes]...)
	return append(dst, `"}`...)
}

// appendChildren writes `"<field>":[{"id":"<id>.0"},...]`.
func appendChildren(dst []byte, field, id string, n int) []byte {
	dst = append(dst, '"')
	dst = append(dst, field...)
	dst = append(dst, `":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":"`...)
		dst = append(dst, id...)
		dst = append(dst, '.')
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, `"}`...)
	}
	return append(dst, ']')
}

// detailFan is the second level of the learn_fanout chain: every item names
// two details.
const detailFan = 2

// appendJSON appends the body of a JSON resource, or returns nil for an
// unknown kind.
func (c *content) appendJSON(dst []byte, kind, id string) []byte {
	dst = append(dst, `{"id":"`...)
	dst = append(dst, id...)
	dst = append(dst, `",`...)
	switch kind {
	case "list":
		dst = appendChildren(dst, "items", id, c.listFan)
	case "catalog":
		dst = appendChildren(dst, "assets", id, c.listFan)
	case "item":
		dst = appendChildren(dst, "detail", id, detailFan)
	case "detail", "res", "grp":
		dst = append(dst, `"leaf":true`...)
	default:
		return nil
	}
	return c.appendPad(dst, id)
}

// blobHeadFor is the per-id prefix that makes every blob distinct.
func blobHeadFor(id string) [blobHead]byte {
	var h [blobHead]byte
	for i := range h {
		h[i] = '.'
	}
	copy(h[:], id)
	return h
}

// blobEqual reports whether got is bytes [off, off+len(got)) of blob id.
func (c *content) blobEqual(id string, off int, got []byte) bool {
	if off < 0 || off+len(got) > blobBytes {
		return false
	}
	if off < blobHead {
		h := blobHeadFor(id)
		n := blobHead - off
		if n > len(got) {
			n = len(got)
		}
		if !bytes.Equal(got[:n], h[off:off+n]) {
			return false
		}
		got, off = got[n:], off+n
	}
	return bytes.Equal(got, c.block[off:off+len(got)])
}

// splitPath cuts "/kind/id" into its two parts.
func splitPath(p string) (kind, id string) {
	p = strings.TrimPrefix(p, "/")
	i := strings.IndexByte(p, '/')
	if i < 0 {
		return p, ""
	}
	return p[:i], p[i+1:]
}

// queryKind reports the kinds addressed as /kind?id=<id>, the literal-URI
// form; the rest are /kind/<id>.
func queryKind(kind string) bool { return kind == "list" || kind == "catalog" }

func isBlobKind(kind string) bool { return kind == "blob" || kind == "asset" }

// origin serves content over HTTP with zero service time and counts what the
// proxy fetched from it: its bytes are the numerator of data_usage_x.
type origin struct {
	c      *content
	tracer *tracer
	// honourRange makes the handler answer a single byte range with a 206, as
	// the proxy would: set on the null handler that stands in for the proxy.
	honourRange bool

	calls  atomic.Int64
	bytes  atomic.Int64
	busyNs atomic.Int64
	bufs   sync.Pool
}

func newOrigin(c *content, tr *tracer) *origin {
	o := &origin{c: c, tracer: tr}
	o.bufs.New = func() any { b := make([]byte, 0, 2048); return &b }
	return o
}

// rangeOf parses "bytes=a-b" for the null handler. The workloads only ask for
// ranges past the blob's id prefix, so the shared block alone answers them.
func (o *origin) rangeOf(r *http.Request, kind string) (off, length int, ok bool) {
	if !o.honourRange || !isBlobKind(kind) {
		return 0, 0, false
	}
	spec := strings.TrimPrefix(r.Header.Get("Range"), "bytes=")
	dash := strings.IndexByte(spec, '-')
	if dash <= 0 {
		return 0, 0, false
	}
	a, err1 := strconv.Atoi(spec[:dash])
	b, err2 := strconv.Atoi(spec[dash+1:])
	if err1 != nil || err2 != nil || a < blobHead || b < a || b >= blobBytes {
		return 0, 0, false
	}
	return a, b - a + 1, true
}

func (o *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	kind, id := splitPath(r.URL.Path)
	if queryKind(kind) {
		id = r.URL.Query().Get("id")
	}
	var n int
	if off, length, ok := o.rangeOf(r, kind); ok {
		w.Header().Set("Content-Length", strconv.Itoa(length))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(o.c.block[off : off+length])
		n = length
	} else if isBlobKind(kind) {
		h := blobHeadFor(id)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(blobBytes))
		w.Write(h[:])
		w.Write(o.c.block[blobHead:])
		n = blobBytes
	} else {
		bp := o.bufs.Get().(*[]byte)
		body := o.c.appendJSON((*bp)[:0], kind, id)
		if body == nil {
			http.NotFound(w, r)
			o.bufs.Put(bp)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
		n = len(body)
		*bp = body
		o.bufs.Put(bp)
	}
	end := time.Now()
	o.calls.Add(1)
	o.bytes.Add(int64(n))
	o.busyNs.Add(int64(end.Sub(start)))
	o.tracer.span("origin.serve", 0, 0, start, end)
}
