// Package httpmsg models HTTP transactions (request-response pairs)
// independently of the wire representation.
//
// APPx reasons about requests at the granularity of named fields — URI, query
// string, header fields, and body fields (form-encoded or JSON) — because
// those are the positions where inter-transaction dependencies live (§4.1 of
// the paper) and the positions dynamic learning fills in at run time (§4.2).
// This package provides that field-level view plus lossless conversion to and
// from net/http, and the exact-match canonical key the proxy uses to decide
// whether a prefetched response may be served (§4.5: "the proxy sends the
// response only when the prefetch request is identical to the client's
// request").
package httpmsg

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
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

// BodyKind discriminates request body representations.
type BodyKind uint8

const (
	BodyNone BodyKind = iota
	BodyForm          // application/x-www-form-urlencoded fields
	BodyJSON          // application/json document
	BodyRaw           // opaque bytes
)

func (k BodyKind) String() string {
	switch k {
	case BodyNone:
		return "none"
	case BodyForm:
		return "form"
	case BodyJSON:
		return "json"
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
	BodyJSON any // encoding/json generic value shape
	BodyRaw  []byte

	// ckey memoizes CanonicalKey. The Set*/Delete* mutators clear it; code
	// that assigns the exported fields directly on a request that has
	// already been keyed must Clone first (Clone drops the cache).
	ckey string
}

// Clone deep-copies the request (without the canonical-key cache, so the
// clone may be freely mutated through direct field writes).
func (r *Request) Clone() *Request {
	c := *r
	c.ckey = ""
	c.Query = append([]Field(nil), r.Query...)
	c.Header = append([]Field(nil), r.Header...)
	c.BodyForm = append([]Field(nil), r.BodyForm...)
	c.BodyRaw = append([]byte(nil), r.BodyRaw...)
	if r.BodyJSON != nil {
		c.BodyJSON = cloneJSON(r.BodyJSON)
	}
	return &c
}

func cloneJSON(v any) any {
	switch x := v.(type) {
	case map[string]any:
		m := make(map[string]any, len(x))
		for k, vv := range x {
			m[k] = cloneJSON(vv)
		}
		return m
	case []any:
		s := make([]any, len(x))
		for i, vv := range x {
			s[i] = cloneJSON(vv)
		}
		return s
	default:
		return x
	}
}

// URL renders the request URL including the encoded query string.
func (r *Request) URL() string {
	scheme := r.Scheme
	if scheme == "" {
		scheme = "http"
	}
	u := scheme + "://" + r.Host + r.Path
	if len(r.Query) > 0 {
		u += "?" + encodeFields(r.Query)
	}
	return u
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

// SetQuery replaces the first query value for key, appending when absent.
func (r *Request) SetQuery(key, value string) {
	r.ckey = ""
	for i, f := range r.Query {
		if f.Key == key {
			r.Query[i].Value = value
			return
		}
	}
	r.Query = append(r.Query, Field{Key: key, Value: value})
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
	r.ckey = ""
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
	r.ckey = ""
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
// BodyKind, which the key already includes. Range and If-Range are excluded
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
// value (stable: insertion sort preserves input order of exact duplicates,
// which hash identically anyway).
func (ks *keyScratch) sorted(fields []Field) []Field {
	out := ks.fields[:0]
	for _, f := range fields {
		out = append(out, f)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && fieldLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	ks.fields = out
	return out
}

func fieldLess(a, b Field) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Value < b.Value
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
	// the common already-normalized case.
	ks.write("m", strings.ToUpper(r.Method), "h", strings.ToLower(r.Host), "p", r.Path)

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
	for i := 1; i < len(hdr); i++ {
		for j := i; j > 0 && fieldLess(hdr[j], hdr[j-1]); j-- {
			hdr[j], hdr[j-1] = hdr[j-1], hdr[j]
		}
	}
	for _, f := range hdr {
		ks.write("H", f.Key, f.Value)
	}

	// The body kind is keyed even without a body: Content-Type is not, and
	// an empty form is not an absent body. A JSON or raw body is the last
	// component, after its kind, and runs to the end of the stream: every
	// component before it is length-prefixed, so it needs no prefix.
	ks.write("k", r.BodyKind.String())
	switch r.BodyKind {
	case BodyForm:
		for _, f := range ks.sorted(r.BodyForm) {
			ks.write("b", f.Key, f.Value)
		}
	case BodyJSON:
		ks.buf = appendCanonicalJSON(ks.buf, r.BodyJSON)
	case BodyRaw:
		ks.buf = append(ks.buf, r.BodyRaw...)
	}
	sum := sha256.Sum256(ks.buf)
	keyScratchPool.Put(ks)
	r.ckey = hex.EncodeToString(sum[:])
	return r.ckey
}

// canonicalJSON renders a generic JSON value with sorted object keys.
func canonicalJSON(v any) string {
	return string(appendCanonicalJSON(nil, v))
}

// appendCanonicalJSON appends the canonical rendering to buf and returns it,
// so CanonicalKey can stream JSON bodies into its pooled buffer without an
// intermediate builder allocation.
func appendCanonicalJSON(buf []byte, v any) []byte {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf = append(buf, '{')
		for i, k := range keys {
			if i > 0 {
				buf = append(buf, ',')
			}
			kb, _ := json.Marshal(k)
			buf = append(buf, kb...)
			buf = append(buf, ':')
			buf = appendCanonicalJSON(buf, x[k])
		}
		return append(buf, '}')
	case []any:
		buf = append(buf, '[')
		for i, e := range x {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendCanonicalJSON(buf, e)
		}
		return append(buf, ']')
	default:
		eb, _ := json.Marshal(x)
		return append(buf, eb...)
	}
}

// EncodeBody renders the body bytes and matching Content-Type.
func (r *Request) EncodeBody() (contentType string, body []byte) {
	switch r.BodyKind {
	case BodyForm:
		return "application/x-www-form-urlencoded", []byte(encodeFields(r.BodyForm))
	case BodyJSON:
		b, _ := json.Marshal(r.BodyJSON)
		return "application/json", b
	case BodyRaw:
		return "application/octet-stream", r.BodyRaw
	default:
		return "", nil
	}
}

// ToHTTP converts to a *http.Request suitable for a client round trip. The
// request is assembled field by field, never rendered to URL text: url.Parse
// would re-split a host or path holding '/', '?', '#' or '%', and the origin
// would be asked for something other than what the proxy keyed. For the same
// reason a host (*http.Request).Write would not send as it stands is refused.
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
	if u.EscapedPath() != r.Path {
		u.RawPath = r.Path // sent as it stands when it is a valid encoding of Path
	}
	if len(r.Query) > 0 {
		u.RawQuery = encodeFields(r.Query)
	}
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

// FromHTTP converts an inbound *http.Request (as seen by a proxy or origin
// handler) into the field-structured form, consuming the body.
func FromHTTP(req *http.Request) (*Request, error) {
	return FromHTTPLimited(req, 0)
}

// FromHTTPLimited is FromHTTP with a body-size guard: when maxBody > 0 and
// the request body exceeds it, the body is closed and ErrBodyTooLarge is
// returned (the proxy answers 413). maxBody <= 0 means unlimited.
func FromHTTPLimited(req *http.Request, maxBody int64) (*Request, error) {
	out := &Request{
		Method: req.Method,
		Scheme: "http",
		Host:   req.Host,
		Path:   req.URL.Path,
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
	out.Query, _ = parseFields(req.URL.RawQuery) // as URL.Query, a bad pair is dropped, not fatal
	out.Header = headerFields(req.Header)
	var body []byte
	if req.Body != nil {
		var err error
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
	ct := req.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "application/x-www-form-urlencoded"):
		fields, err := parseFields(string(body))
		if err != nil {
			out.BodyKind = BodyRaw
			out.BodyRaw = body
			return out, nil
		}
		out.BodyKind = BodyForm
		out.BodyForm = fields
	case strings.HasPrefix(ct, "application/json"):
		v, err := jsonpath.Decode(body)
		if err != nil {
			out.BodyKind = BodyRaw
			out.BodyRaw = body
			return out, nil
		}
		out.BodyKind = BodyJSON
		out.BodyJSON = v
	default:
		out.BodyKind = BodyRaw
		out.BodyRaw = body
	}
	return out, nil
}

// parseFields parses a URL-encoded query or form body as url.ParseQuery
// does, into fields sorted by key, one key's values in their given order.
// A pair ParseQuery refuses is dropped, and the first refusal is the error.
// The fields take one allocation, none when there are none.
func parseFields(raw string) (out []Field, err error) {
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
	// Stable insertion sort by key: header sets are small, and a key's
	// values were appended together, in order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Key < out[j-1].Key; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
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

// Clone deep-copies the response (without the parsed-JSON cache). Clone is
// defined for buffered responses only: a stream has exactly one consumer, so
// the clone shares no stream (its body is whatever has been buffered).
func (r *Response) Clone() *Response {
	return &Response{
		Status: r.Status,
		Header: append([]Field(nil), r.Header...),
		Body:   append([]byte(nil), r.Body...),
	}
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
