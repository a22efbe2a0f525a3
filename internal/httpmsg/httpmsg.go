// Package httpmsg models HTTP transactions (request-response pairs)
// independently of the wire representation.
//
// APPx reasons about requests at the granularity of named fields — URI, query
// string, header fields, and form body fields — because
// those are the positions where inter-transaction dependencies live (§4.1 of
// the paper) and the positions dynamic learning fills in at run time (§4.2).
// This package provides that field-level view plus lossless conversion to and
// from net/http, which sends a request that arrived byte for byte, and the
// exact-match canonical key the proxy uses to decide whether a prefetched
// response may be served (§4.5: "the proxy sends the response only when the
// prefetch request is identical to the client's request").
package httpmsg

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"

	"appx/internal/jsonpath"
)

// Field is an ordered key-value pair (query parameter, header, or form body
// field).
type Field struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// BodyKind discriminates request body representations. A request body is
// form fields or opaque bytes. Signature files, snapshots and peer entries
// carry the number: 2 named a JSON document once, and is retired, not reused.
type BodyKind uint8

const (
	BodyNone BodyKind = 0
	BodyForm BodyKind = 1 // application/x-www-form-urlencoded fields
	BodyRaw  BodyKind = 3 // opaque bytes, keyed and forwarded as they arrived
)

func (k BodyKind) String() string {
	switch k {
	case BodyNone:
		return "none"
	case BodyForm:
		return "form"
	case BodyRaw:
		return "raw"
	default:
		return fmt.Sprintf("bodykind(%d)", uint8(k))
	}
}

// Request is a field-structured HTTP request.
type Request struct {
	Method string
	Scheme string // "http" in this emulation; the paper's proxy sees decrypted HTTPS
	Host   string
	Path   string
	Query  []Field
	Header []Field

	BodyKind BodyKind
	BodyForm []Field
	BodyRaw  []byte

	// What arrived, kept so a forwarded request reaches the origin byte for
	// byte (RFC 9112 §3.2.2: a proxy must not rewrite the target): the
	// escaped path when it is not Path's default escaping, the query and a
	// form body as they were sent. Only FromHTTPLimited sets them, only
	// when they parse whole, and SetForm clears the form; code that assigns
	// Path, Query or BodyForm itself builds a new request instead.
	rawPath, rawQuery string
	rawForm           []byte

	// ckey memoizes CanonicalKey. The Set*/Delete* mutators clear it; code
	// that assigns the exported fields directly on a request that has
	// already been keyed must Clone first (Clone drops the cache).
	ckey string
}

// Clone deep-copies the request without the canonical-key cache, so the
// clone's headers may be freely mutated through direct field writes. A
// clone keeps what arrived: it is the same request.
func (r *Request) Clone() *Request {
	c := *r
	c.ckey = ""
	c.Query = append([]Field(nil), r.Query...)
	c.Header = append([]Field(nil), r.Header...)
	c.BodyForm = append([]Field(nil), r.BodyForm...)
	c.BodyRaw = append([]byte(nil), r.BodyRaw...)
	return &c
}

// URL renders the request URL including the encoded query string.
func (r *Request) URL() string {
	scheme := r.Scheme
	if scheme == "" {
		scheme = "http"
	}
	u := scheme + "://" + r.Host + r.escapedPath()
	if q := r.query(); q != "" {
		u += "?" + q
	}
	return u
}

// escapedPath is the path as it arrived, or Path when it arrived in its
// default escaping or was built.
func (r *Request) escapedPath() string {
	if r.rawPath != "" {
		return r.rawPath
	}
	return r.Path
}

// query is the query the request is sent with: as it arrived, else the
// fields encoded.
func (r *Request) query() string {
	if r.rawQuery != "" || len(r.Query) == 0 {
		return r.rawQuery
	}
	return encodeFields(r.Query)
}

// encodeFields renders fields exactly as url.Values.Encode renders them —
// sorted by key, one key's values in their given order, both query-escaped
// — without building the map.
func encodeFields(fields []Field) string {
	byKey := func(i, j int) bool { return fields[i].Key < fields[j].Key }
	if !sort.SliceIsSorted(fields, byKey) {
		fields = append([]Field(nil), fields...)
		sort.SliceStable(fields, byKey)
	}
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString(url.QueryEscape(f.Key))
		b.WriteByte('=')
		b.WriteString(url.QueryEscape(f.Value))
	}
	return b.String()
}

// GetHeader returns the first header value for key (case-insensitive) and
// whether it was present.
func (r *Request) GetHeader(key string) (string, bool) {
	for _, f := range r.Header {
		if strings.EqualFold(f.Key, key) {
			return f.Value, true
		}
	}
	return "", false
}

// SetHeader replaces all values of key with one value, appending when absent.
func (r *Request) SetHeader(key, value string) {
	r.ckey = ""
	out := r.Header[:0]
	found := false
	for _, f := range r.Header {
		if strings.EqualFold(f.Key, key) {
			if !found {
				out = append(out, Field{Key: f.Key, Value: value})
				found = true
			}
			continue
		}
		out = append(out, f)
	}
	if !found {
		out = append(out, Field{Key: key, Value: value})
	}
	r.Header = out
}

// DeleteHeader removes every header named key (case-insensitive).
func (r *Request) DeleteHeader(key string) {
	r.ckey = ""
	out := r.Header[:0]
	for _, f := range r.Header {
		if !strings.EqualFold(f.Key, key) {
			out = append(out, f)
		}
	}
	r.Header = out
}

// GetQuery returns the first query value for key.
func (r *Request) GetQuery(key string) (string, bool) {
	for _, f := range r.Query {
		if f.Key == key {
			return f.Value, true
		}
	}
	return "", false
}

// GetForm returns the first form body field value for key.
func (r *Request) GetForm(key string) (string, bool) {
	for _, f := range r.BodyForm {
		if f.Key == key {
			return f.Value, true
		}
	}
	return "", false
}

// SetForm replaces the first form field for key, appending when absent, and
// marks the body as form-encoded.
func (r *Request) SetForm(key, value string) {
	r.ckey, r.rawForm = "", nil
	r.BodyKind = BodyForm
	for i, f := range r.BodyForm {
		if f.Key == key {
			r.BodyForm[i].Value = value
			return
		}
	}
	r.BodyForm = append(r.BodyForm, Field{Key: key, Value: value})
}

// DeleteForm removes all form fields named key.
func (r *Request) DeleteForm(key string) {
	r.ckey, r.rawForm = "", nil
	out := r.BodyForm[:0]
	for _, f := range r.BodyForm {
		if f.Key != key {
			out = append(out, f)
		}
	}
	r.BodyForm = out
}

// hopByHop lists fields excluded from the canonical key: transport details
// that differ between a prefetched request and the client's live request
// without changing application semantics. Content-Type is covered by
// BodyKind, which the key already includes, and is keyed beside a raw body,
// whose bytes mean what their type says. Range and If-Range are excluded
// so a ranged request shares its key with the full-entity request — the
// proxy fetches and caches whole entities and slices the 206 locally, which
// preserves §4.5 exactness (a byte range of a byte-identical response).
var hopByHop = map[string]bool{
	"content-length":    true,
	"content-type":      true,
	"connection":        true,
	"accept-encoding":   true,
	"proxy-connection":  true,
	"keep-alive":        true,
	"transfer-encoding": true,
	"te":                true,
	"trailer":           true,
	"upgrade":           true,
	"range":             true,
	"if-range":          true,
}

// KeyedHeader reports whether CanonicalKey covers the header named key
// (case-insensitive). It allocates nothing.
func KeyedHeader(key string) bool {
	var lower [len("transfer-encoding")]byte // the longest hop-by-hop name
	if len(key) > len(lower) {
		return true
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower[i] = c
	}
	return !hopByHop[string(lower[:len(key)])]
}

// keyScratch pools CanonicalKey's working state: the canonical byte stream
// fed to the hash and the sort buffer for query/header/form fields. The proxy keys every request (twice per
// prefetched transaction: planning and lookup), so this scratch — not the
// digest — dominated allocations.
type keyScratch struct {
	buf    []byte
	fields []Field
}

var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// write appends canonical components, each as its uvarint length and then
// its bytes: no byte inside a value can pass for a boundary, so distinct
// component lists never share a stream.
func (ks *keyScratch) write(parts ...string) {
	for _, p := range parts {
		ks.buf = binary.AppendUvarint(ks.buf, uint64(len(p)))
		ks.buf = append(ks.buf, p...)
	}
}

// sorted copies fields into the reusable scratch slice, ordered by key then
// value.
func (ks *keyScratch) sorted(fields []Field) []Field {
	ks.fields = append(ks.fields[:0], fields...)
	sortFields(ks.fields)
	return ks.fields
}

// sortFields orders fields by key then value, in O(n log n) comparisons and
// without allocating.
func sortFields(fields []Field) {
	slices.SortStableFunc(fields, func(a, b Field) int {
		if c := strings.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return strings.Compare(a.Value, b.Value)
	})
}

// CanonicalKey returns a deterministic digest of the request covering method,
// host, path, query string, application headers, and body. Two requests with
// equal keys are "identical" in the sense of §4.5 — only then may the proxy
// serve a prefetched response. The result is memoized on the request; the
// Set*/Delete* mutators invalidate it. Memoized requests must not be keyed
// and mutated concurrently from different goroutines (Clone first).
func (r *Request) CanonicalKey() string {
	if r.ckey != "" {
		return r.ckey
	}
	ks := keyScratchPool.Get().(*keyScratch)
	ks.buf = ks.buf[:0]
	// ToUpper/ToLower return their argument unchanged (no allocation) in
	// the common already-normalized case. A path that arrived in other than
	// its default escaping is keyed as sent too: /a%2Fb and /a/b are two
	// resources with one Path.
	ks.write("m", strings.ToUpper(r.Method), "h", strings.ToLower(r.Host), "p", r.Path)
	if r.rawPath != "" {
		ks.write("P", r.rawPath)
	}

	for _, f := range ks.sorted(r.Query) {
		ks.write("q", f.Key, f.Value)
	}

	hdr := ks.fields[len(ks.fields):]
	for _, f := range r.Header {
		k := strings.ToLower(f.Key)
		if hopByHop[k] {
			continue
		}
		hdr = append(hdr, Field{Key: k, Value: f.Value})
	}
	sortFields(hdr)
	for _, f := range hdr {
		ks.write("H", f.Key, f.Value)
	}

	// The body kind is keyed even without a body: Content-Type is not, and
	// an empty form is not an absent body. A raw body is the last component,
	// after its kind and type, and runs to the end of the stream: every
	// component before it is length-prefixed, so it needs no prefix.
	ks.write("k", r.BodyKind.String())
	switch r.BodyKind {
	case BodyForm:
		for _, f := range ks.sorted(r.BodyForm) {
			ks.write("b", f.Key, f.Value)
		}
	case BodyRaw:
		ct, _ := r.GetHeader("Content-Type")
		ks.write("t", ct)
		ks.buf = append(ks.buf, r.BodyRaw...)
	}
	sum := sha256.Sum256(ks.buf)
	keyScratchPool.Put(ks)
	r.ckey = hex.EncodeToString(sum[:])
	return r.ckey
}

// EncodeBody renders the body bytes and matching Content-Type: a form body
// as it arrived, else its fields encoded; raw bytes with no type of their
// own, so none is added to what arrived.
func (r *Request) EncodeBody() (contentType string, body []byte) {
	switch r.BodyKind {
	case BodyForm:
		if r.rawForm != nil {
			return "application/x-www-form-urlencoded", r.rawForm
		}
		return "application/x-www-form-urlencoded", []byte(encodeFields(r.BodyForm))
	case BodyRaw:
		return "", r.BodyRaw // its type is whatever its header says
	default:
		return "", nil
	}
}

// ToHTTP converts to a *http.Request suitable for a client round trip. The
// request is assembled field by field, never rendered to URL text: url.Parse
// would re-split a host or path holding '/', '?', '#' or '%', and the origin
// would be asked for something other than what the proxy keyed. For the same
// reason a host (*http.Request).Write would not send as it stands is refused.
// A request that arrived is sent with the path, query and form body it
// arrived with.
func (r *Request) ToHTTP() (*http.Request, error) {
	if !sendableHost(r.Host) {
		return nil, fmt.Errorf("httpmsg: host %q cannot be sent as it stands", r.Host)
	}
	// The constructor also validates the method.
	req, err := http.NewRequest(strings.ToUpper(r.Method), "", nil)
	if err != nil {
		return nil, err
	}
	u := req.URL
	u.Scheme, u.Host, u.Path = r.Scheme, r.Host, r.Path
	if u.Scheme == "" {
		u.Scheme = "http"
	}
	if ep := r.escapedPath(); u.EscapedPath() != ep {
		u.RawPath = ep // sent as it stands when it is a valid encoding of Path
	}
	u.RawQuery = r.query()
	req.Host = r.Host
	ct, body := r.EncodeBody()
	req.Body, req.GetBody = http.NoBody, func() (io.ReadCloser, error) { return http.NoBody, nil }
	if len(body) > 0 {
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	for _, f := range r.Header {
		req.Header.Add(f.Key, f.Value)
	}
	if ct != "" && req.Header.Get("Content-Type") == "" {
		req.Header.Set("Content-Type", ct)
	}
	return req, nil
}

// sendableHost reports whether (*http.Request).Write sends host unchanged.
// Write blanks a Host header holding a byte outside RFC 3986's host
// characters, punycodes a non-ASCII host and strips an IPv6 zone ('%').
func sendableHost(host string) bool {
	for i := 0; i < len(host); i++ {
		c := host[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			strings.IndexByte("!$&'()*+,-.:;=[]_~", c) >= 0) {
			return false
		}
	}
	return true
}

// FromHTTPLimited converts an inbound *http.Request (as seen by a proxy or
// origin handler) into the field-structured form, consuming the body, and
// keeps the path, query and form body as they arrived. When maxBody > 0 and
// the request body exceeds it, the body is closed and ErrBodyTooLarge is
// returned (the proxy answers 413). maxBody <= 0 means unlimited.
func FromHTTPLimited(req *http.Request, maxBody int64) (*Request, error) {
	out := &Request{
		Method:  req.Method,
		Scheme:  "http",
		Host:    req.Host,
		Path:    req.URL.Path,
		rawPath: req.URL.RawPath, // set by url.Parse only when not the default escaping
	}
	if req.URL.Scheme != "" {
		out.Scheme = req.URL.Scheme
	}
	if out.Host == "" {
		out.Host = req.URL.Host
	}
	if out.Path == "" {
		out.Path = "/" // what any request line for it carries (RFC 9112 §3.2.1)
	}
	// As URL.Query, a bad pair is dropped, not fatal; then the query is
	// sent as the fields that were keyed, not as it arrived.
	var err error
	if out.Query, err = ParseFields(req.URL.RawQuery); err == nil {
		out.rawQuery = req.URL.RawQuery
	}
	if out.rawPath != "" && req.URL.EscapedPath() != out.rawPath {
		out.rawPath = "" // not a valid encoding of Path: sent as Path encodes
	}
	out.Header = headerFields(req.Header)
	var body []byte
	if req.Body != nil && req.Body != http.NoBody {
		src := io.Reader(req.Body)
		if maxBody > 0 {
			src = io.LimitReader(req.Body, maxBody+1)
		}
		body, err = io.ReadAll(src)
		if err != nil {
			req.Body.Close()
			return nil, fmt.Errorf("httpmsg: reading body: %w", err)
		}
		req.Body.Close()
		if maxBody > 0 && int64(len(body)) > maxBody {
			return nil, ErrBodyTooLarge
		}
	}
	if len(body) == 0 {
		return out, nil
	}
	if strings.HasPrefix(req.Header.Get("Content-Type"), "application/x-www-form-urlencoded") {
		if fields, err := ParseFields(string(body)); err == nil {
			out.BodyKind, out.BodyForm, out.rawForm = BodyForm, fields, body
			return out, nil
		}
	}
	out.BodyKind, out.BodyRaw = BodyRaw, body
	return out, nil
}

// ParseFields parses a URL-encoded query or form body as url.ParseQuery
// does, into fields sorted by key, one key's values in their given order.
// A pair ParseQuery refuses is dropped, and the first refusal is the error.
// The fields take one allocation, none when there are none.
func ParseFields(raw string) (out []Field, err error) {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if strings.Contains(pair, ";") {
			err = fmt.Errorf("invalid semicolon separator in query")
			continue
		}
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err1 := url.QueryUnescape(k)
		if err1 == nil {
			v, err1 = url.QueryUnescape(v)
		}
		if err1 != nil {
			if err == nil {
				err = err1
			}
			continue
		}
		if out == nil {
			out = make([]Field, 0, strings.Count(raw, "&")+1)
		}
		out = append(out, Field{Key: k, Value: v})
	}
	slices.SortStableFunc(out, func(a, b Field) int { return strings.Compare(a.Key, b.Key) })
	return out, err
}

// headerFields flattens a header map into fields sorted by key, one key's
// values in their given order — in one pass over the map and, unless a key
// repeats, one allocation.
func headerFields(h http.Header) []Field {
	if len(h) == 0 {
		return nil
	}
	out := make([]Field, 0, len(h))
	for k, vs := range h {
		for _, v := range vs {
			// Trimmed as (http.Header).Write sends it: a folded line leaves
			// trailing blanks on a parsed value.
			out = append(out, Field{Key: k, Value: textproto.TrimString(v)})
		}
	}
	// Stable by key: a key's values were appended together, in order.
	slices.SortStableFunc(out, func(a, b Field) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Response is a captured HTTP response. A Response is either buffered (Body
// holds the complete entity, stream nil — the form cache entries, learning,
// and persistence operate on) or streaming (stream carries the body as it
// arrives from the origin; Body is empty until/unless Buffer consumes the
// stream). See body.go for the streaming accessors.
type Response struct {
	Status int
	Header []Field
	Body   []byte

	stream *bodyStream
	trunc  bool // body exceeded a Buffer cap and was discarded mid-read

	jsonOnce bool
	jsonVal  any
	jsonErr  error
}

// GetHeader returns the first header value for key (case-insensitive).
func (r *Response) GetHeader(key string) (string, bool) {
	for _, f := range r.Header {
		if strings.EqualFold(f.Key, key) {
			return f.Value, true
		}
	}
	return "", false
}

// DeleteHeader removes every response header named key (case-insensitive).
func (r *Response) DeleteHeader(key string) {
	out := r.Header[:0]
	for _, f := range r.Header {
		if !strings.EqualFold(f.Key, key) {
			out = append(out, f)
		}
	}
	r.Header = out
}

// JSON lazily parses the body as JSON, caching the result. It refuses
// streaming or truncated responses: callers that need the document must
// Buffer the body first, and a capped capture is never parsed as if whole.
func (r *Response) JSON() (any, error) {
	if !r.jsonOnce {
		r.jsonOnce = true
		switch {
		case r.Streaming():
			r.jsonErr = errStreamingJSON
		case r.trunc:
			r.jsonErr = errTruncatedJSON
		default:
			r.jsonVal, r.jsonErr = jsonpath.Decode(r.Body)
		}
	}
	return r.jsonVal, r.jsonErr
}

// FromHTTPResponse captures a *http.Response, consuming its body.
func FromHTTPResponse(resp *http.Response) (*Response, error) {
	out := &Response{Status: resp.StatusCode, Header: headerFields(resp.Header)}
	if resp.Body != nil {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("httpmsg: reading response body: %w", err)
		}
		resp.Body.Close()
		out.Body = b
	}
	return out, nil
}

// WriteTo writes the response through a http.ResponseWriter. A streaming
// response is copied chunk-by-chunk through a pooled buffer — bytes reach
// the client as they arrive from the origin — and the body is closed
// afterwards regardless of error.
func (r *Response) WriteTo(w http.ResponseWriter) error {
	for _, f := range r.Header {
		w.Header().Add(f.Key, f.Value)
	}
	w.WriteHeader(r.Status)
	if r.Streaming() {
		// Flush per write so streamed bytes leave as they arrive instead of
		// pooling in net/http's response buffer — time-to-first-byte must
		// track the origin's first byte, not its last.
		dst := io.Writer(w)
		if f, ok := w.(http.Flusher); ok {
			dst = flushedWriter{w: w, f: f}
		}
		_, err := copyPooled(dst, r.stream.rc)
		if cerr := r.CloseBody(); err == nil {
			err = cerr
		}
		return err
	}
	_, err := w.Write(r.Body)
	return err
}

// Transaction pairs a request with its response — the unit the paper calls a
// "network transaction".
type Transaction struct {
	Request  *Request
	Response *Response
}

// ServeViaHandler performs a transaction against an in-process http.Handler,
// bypassing the network. Tools (the verification phase, the analyzers) use
// it to exercise origin logic without sockets.
func ServeViaHandler(h http.Handler, r *Request) (*Response, error) {
	hreq, err := r.ToHTTP()
	if err != nil {
		return nil, err
	}
	hreq.Host = r.Host
	hreq.RemoteAddr = "127.0.0.1:0"
	rec := &memoryRecorder{status: http.StatusOK, header: http.Header{}}
	h.ServeHTTP(rec, hreq)
	out := &Response{Status: rec.status, Header: headerFields(rec.header)}
	out.Body = rec.body.Bytes()
	return out, nil
}

// memoryRecorder is a minimal in-memory http.ResponseWriter.
type memoryRecorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func (m *memoryRecorder) Header() http.Header { return m.header }

func (m *memoryRecorder) WriteHeader(status int) { m.status = status }

func (m *memoryRecorder) Write(p []byte) (int, error) { return m.body.Write(p) }
