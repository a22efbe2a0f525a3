package httpmsg

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func newBufReader(r io.Reader) *bufio.Reader { return bufio.NewReader(r) }

func sampleRequest() *Request {
	return &Request{
		Method: "POST",
		Scheme: "http",
		Host:   "wish.example",
		Path:   "/product/get",
		Query:  []Field{{Key: "v", Value: "2"}},
		Header: []Field{
			{Key: "Cookie", Value: "e8d5"},
			{Key: "User-Agent", Value: "Mozilla/5.0"},
		},
		BodyKind: BodyForm,
		BodyForm: []Field{
			{Key: "cid", Value: "556e"},
			{Key: "_client", Value: "android"},
		},
	}
}

func TestCanonicalKeyDeterministic(t *testing.T) {
	a, b := sampleRequest(), sampleRequest()
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("identical requests produced different keys")
	}
}

func TestCanonicalKeyOrderInsensitive(t *testing.T) {
	a := sampleRequest()
	b := sampleRequest()
	b.Header[0], b.Header[1] = b.Header[1], b.Header[0]
	b.BodyForm[0], b.BodyForm[1] = b.BodyForm[1], b.BodyForm[0]
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("field order changed the canonical key")
	}
}

func TestCanonicalKeySensitivity(t *testing.T) {
	base := sampleRequest().CanonicalKey()
	mutations := []func(*Request){
		func(r *Request) { r.Method = "GET" },
		func(r *Request) { r.Host = "other.example" },
		func(r *Request) { r.Path = "/related/get" },
		func(r *Request) { r.SetQuery("v", "3") },
		func(r *Request) { r.SetHeader("Cookie", "ffff") },
		func(r *Request) { r.SetForm("cid", "zzzz") },
		func(r *Request) { r.SetForm("extra", "1") },
		func(r *Request) { r.DeleteForm("cid") },
	}
	for i, mut := range mutations {
		r := sampleRequest()
		mut(r)
		if r.CanonicalKey() == base {
			t.Errorf("mutation %d did not change the canonical key", i)
		}
	}
}

// keyCollisions are pairs of different requests that a key joining its
// components with a bare NUL byte, escaping none inside a value, hashed
// alike: NULs inside a query value forge further query fields, and NULs
// inside the path forge a query.
var keyCollisions = [][2]*Request{
	{
		{Method: "GET", Host: "h", Path: "/p", Query: []Field{{Key: "a", Value: "x\x00q\x00b\x00y"}}},
		{Method: "GET", Host: "h", Path: "/p", Query: []Field{{Key: "a", Value: "x"}, {Key: "b", Value: "y"}}},
	},
	{
		{Method: "GET", Host: "h", Path: "/p\x00q\x00a\x00x"},
		{Method: "GET", Host: "h", Path: "/p", Query: []Field{{Key: "a", Value: "x"}}},
	},
}

// TestCanonicalKeyNoCollisions: requests that differ only in where the
// component boundaries fall get different keys. An exact key match is the
// whole of the proxy's guarantee that a served response answers the
// request, and shared-tier entries cross users.
func TestCanonicalKeyNoCollisions(t *testing.T) {
	for _, pair := range keyCollisions {
		if pair[0].CanonicalKey() == pair[1].CanonicalKey() {
			t.Errorf("%q and %q share a key", pair[0].URL(), pair[1].URL())
		}
	}
	// An empty form body is a body; an absent one is not.
	none := &Request{Method: "POST", Host: "h", Path: "/p"}
	form := &Request{Method: "POST", Host: "h", Path: "/p", BodyKind: BodyForm}
	if none.CanonicalKey() == form.CanonicalKey() {
		t.Error("an empty form body keys like no body")
	}
}

func TestCanonicalKeyIgnoresHopByHop(t *testing.T) {
	a := sampleRequest()
	b := sampleRequest()
	b.Header = append(b.Header, Field{Key: "Content-Length", Value: "42"})
	b.Header = append(b.Header, Field{Key: "Accept-Encoding", Value: "gzip"})
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("hop-by-hop headers changed the canonical key")
	}
}

// KeyedHeader agrees with CanonicalKey about which headers it covers.
func TestKeyedHeaderAgreesWithCanonicalKey(t *testing.T) {
	base := sampleRequest().CanonicalKey()
	for _, key := range []string{"Content-Type", "content-length", "Range", "If-Range", "Connection", "Cookie", "User-Agent", "X-Device"} {
		r := sampleRequest()
		r.Header = append(r.Header, Field{Key: key, Value: "changed"})
		if keyed := r.CanonicalKey() != base; KeyedHeader(key) != keyed {
			t.Errorf("KeyedHeader(%q) = %v, CanonicalKey covers it: %v", key, !keyed, keyed)
		}
	}
}

// TestCanonicalKeyJSONBody: a JSON body is opaque bytes, keyed as it
// arrived — the origin hears those bytes, so reordered keys are another
// request.
func TestCanonicalKeyJSONBody(t *testing.T) {
	key := func(body string) string {
		hreq, _ := http.NewRequest("POST", "http://h/p", strings.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		r, err := FromHTTPLimited(hreq, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r.CanonicalKey()
	}
	if key(`{"b":1,"a":"x"}`) != key(`{"b":1,"a":"x"}`) {
		t.Fatal("one JSON body keyed two ways")
	}
	if key(`{"b":1,"a":"x"}`) == key(`{"a":"x","b":1}`) {
		t.Fatal("reordered JSON bytes share a key")
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	orig := sampleRequest()
	hreq, err := orig.ToHTTP()
	if err != nil {
		t.Fatalf("ToHTTP: %v", err)
	}
	// Simulate server-side capture.
	rec := httptest.NewRecorder()
	var captured *Request
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		captured, err = FromHTTPLimited(r, 0)
		if err != nil {
			t.Fatalf("FromHTTP: %v", err)
		}
		w.WriteHeader(200)
	})
	h.ServeHTTP(rec, toServerShape(t, hreq))
	if captured == nil {
		t.Fatal("handler did not run")
	}
	if captured.CanonicalKey() != orig.CanonicalKey() {
		t.Fatalf("canonical key changed over the wire:\norig %+v\ngot  %+v", orig, captured)
	}
	if v, ok := captured.GetForm("cid"); !ok || v != "556e" {
		t.Fatalf("form field lost: %q %v", v, ok)
	}
}

// toServerShape re-reads a client-shaped request as a server would see it.
func toServerShape(t *testing.T, req *http.Request) *http.Request {
	t.Helper()
	var buf bytes.Buffer
	if err := req.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	sreq, err := http.ReadRequest(newBufReader(&buf))
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	return sreq
}

// TestFromHTTPJSONBody: a JSON body is kept as the bytes that arrived and
// sent back as them, not re-encoded.
func TestFromHTTPJSONBody(t *testing.T) {
	const body = `{"b":1.0,"a":"<x>"}`
	hreq, _ := http.NewRequest("POST", "http://h/p", strings.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	r, err := FromHTTPLimited(hreq, 0)
	if err != nil {
		t.Fatalf("FromHTTP: %v", err)
	}
	if r.BodyKind != BodyRaw || string(r.BodyRaw) != body {
		t.Fatalf("body = %v %q, want raw %q", r.BodyKind, r.BodyRaw, body)
	}
	if _, got := r.EncodeBody(); string(got) != body {
		t.Fatalf("EncodeBody = %q, want %q", got, body)
	}
}

func TestFromHTTPRawBodyFallback(t *testing.T) {
	hreq, _ := http.NewRequest("POST", "http://h/p", strings.NewReader("\x00binary"))
	hreq.Header.Set("Content-Type", "image/jpeg")
	r, err := FromHTTPLimited(hreq, 0)
	if err != nil {
		t.Fatalf("FromHTTP: %v", err)
	}
	if r.BodyKind != BodyRaw || string(r.BodyRaw) != "\x00binary" {
		t.Fatalf("raw body not preserved: %v %q", r.BodyKind, r.BodyRaw)
	}
}

func TestHeaderAccessors(t *testing.T) {
	r := sampleRequest()
	if v, ok := r.GetHeader("cookie"); !ok || v != "e8d5" {
		t.Fatalf("GetHeader case-insensitive failed: %q %v", v, ok)
	}
	r.SetHeader("Cookie", "new")
	if v, _ := r.GetHeader("Cookie"); v != "new" {
		t.Fatalf("SetHeader replace failed: %q", v)
	}
	r.SetHeader("X-New", "1")
	if v, ok := r.GetHeader("X-New"); !ok || v != "1" {
		t.Fatalf("SetHeader append failed: %q %v", v, ok)
	}
}

func TestQueryAccessors(t *testing.T) {
	r := sampleRequest()
	if v, ok := r.GetQuery("v"); !ok || v != "2" {
		t.Fatalf("GetQuery: %q %v", v, ok)
	}
	r.SetQuery("v", "9")
	if v, _ := r.GetQuery("v"); v != "9" {
		t.Fatal("SetQuery replace failed")
	}
	if _, ok := r.GetQuery("zz"); ok {
		t.Fatal("GetQuery found missing key")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := sampleRequest()
	r.BodyKind = BodyRaw
	r.BodyRaw = []byte("x=1")
	c := r.Clone()
	c.SetHeader("Cookie", "changed")
	c.BodyRaw[0] = 'y'
	if v, _ := r.GetHeader("Cookie"); v != "e8d5" {
		t.Fatal("Clone shares header storage")
	}
	if string(r.BodyRaw) != "x=1" {
		t.Fatal("Clone shares body storage")
	}
}

func TestResponseJSONCache(t *testing.T) {
	resp := &Response{Status: 200, Body: []byte(`{"a":1}`)}
	v1, err := resp.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	v2, _ := resp.JSON()
	if &v1 == nil || v1.(map[string]any)["a"] != float64(1) {
		t.Fatalf("JSON = %v", v1)
	}
	if v2.(map[string]any)["a"] != float64(1) {
		t.Fatal("cached JSON differs")
	}
}

func TestResponseWriteTo(t *testing.T) {
	resp := &Response{
		Status: 201,
		Header: []Field{{Key: "X-A", Value: "1"}, {Key: "Set-Cookie", Value: "s=1"}},
		Body:   []byte("hello"),
	}
	rec := httptest.NewRecorder()
	if err := resp.WriteTo(rec); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if rec.Code != 201 || rec.Body.String() != "hello" || rec.Header().Get("X-A") != "1" {
		t.Fatalf("written response wrong: %d %q", rec.Code, rec.Body.String())
	}
}

// Property: the canonical key is invariant under random permutations of the
// form fields.
func TestCanonicalKeyPermutationProperty(t *testing.T) {
	f := func(seedKeys []uint8) bool {
		if len(seedKeys) == 0 {
			return true
		}
		if len(seedKeys) > 12 {
			seedKeys = seedKeys[:12]
		}
		r := &Request{Method: "POST", Host: "h", Path: "/p", BodyKind: BodyForm}
		for i, k := range seedKeys {
			r.BodyForm = append(r.BodyForm, Field{Key: string(rune('a' + k%16)), Value: string(rune('0' + i%10))})
		}
		base := r.CanonicalKey()
		rev := r.Clone()
		for i, j := 0, len(rev.BodyForm)-1; i < j; i, j = i+1, j-1 {
			rev.BodyForm[i], rev.BodyForm[j] = rev.BodyForm[j], rev.BodyForm[i]
		}
		return rev.CanonicalKey() == base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestURLEncoding(t *testing.T) {
	r := &Request{Method: "GET", Host: "h.example", Path: "/api/merchant",
		Query: []Field{{Key: "m", Value: "Silk Road"}}}
	u := r.URL()
	if u != "http://h.example/api/merchant?m=Silk+Road" {
		t.Fatalf("URL = %q", u)
	}
}

func TestBodyKindString(t *testing.T) {
	if BodyForm.String() != "form" || BodyKind(2).String() != "bodykind(2)" || BodyNone.String() != "none" || BodyRaw.String() != "raw" {
		t.Fatal("BodyKind strings wrong")
	}
}

func TestDeleteHeader(t *testing.T) {
	r := sampleRequest()
	r.Header = append(r.Header, Field{Key: "X-Appx-User", Value: "u1"})
	r.Header = append(r.Header, Field{Key: "x-appx-user", Value: "u2"})
	r.DeleteHeader("X-Appx-User")
	if _, ok := r.GetHeader("X-Appx-User"); ok {
		t.Fatal("DeleteHeader left values behind")
	}
	if _, ok := r.GetHeader("Cookie"); !ok {
		t.Fatal("DeleteHeader removed unrelated header")
	}
}

func TestServeViaHandler(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Host != "logical.example" {
			t.Errorf("host = %q", r.Host)
		}
		if got := r.URL.Query().Get("k"); got != "v" {
			t.Errorf("query k = %q", got)
		}
		w.Header().Set("X-Served", "1")
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte("payload"))
	})
	resp, err := ServeViaHandler(h, &Request{
		Method: "GET", Host: "logical.example", Path: "/p",
		Query: []Field{{Key: "k", Value: "v"}},
	})
	if err != nil {
		t.Fatalf("ServeViaHandler: %v", err)
	}
	if resp.Status != http.StatusAccepted || string(resp.Body) != "payload" {
		t.Fatalf("resp = %d %q", resp.Status, resp.Body)
	}
	if v, ok := resp.GetHeader("X-Served"); !ok || v != "1" {
		t.Fatalf("header = %q %v", v, ok)
	}
}

func TestServeViaHandlerDefaultsOK(t *testing.T) {
	// A handler that writes without WriteHeader gets an implicit 200.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	resp, err := ServeViaHandler(h, &Request{Method: "GET", Host: "h", Path: "/"})
	if err != nil || resp.Status != http.StatusOK {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
}

func TestCanonicalKeyMemoized(t *testing.T) {
	r := sampleRequest()
	k1 := r.CanonicalKey()
	if r.ckey == "" {
		t.Fatal("key not memoized")
	}
	if k2 := r.CanonicalKey(); k2 != k1 {
		t.Fatalf("memoized key differs: %q vs %q", k2, k1)
	}
	// The memo must equal a fresh computation on an identical request.
	if fresh := sampleRequest().CanonicalKey(); fresh != k1 {
		t.Fatal("memoized key differs from fresh computation")
	}
}

func TestCanonicalKeyMemoInvalidatedByMutators(t *testing.T) {
	muts := []struct {
		name string
		f    func(*Request)
	}{
		{"SetQuery", func(r *Request) { r.SetQuery("v", "3") }},
		{"SetHeader", func(r *Request) { r.SetHeader("Cookie", "ffff") }},
		{"DeleteHeader", func(r *Request) { r.DeleteHeader("Cookie") }},
		{"SetForm", func(r *Request) { r.SetForm("cid", "zzzz") }},
		{"DeleteForm", func(r *Request) { r.DeleteForm("cid") }},
	}
	for _, m := range muts {
		r := sampleRequest()
		before := r.CanonicalKey()
		m.f(r)
		if after := r.CanonicalKey(); after == before {
			t.Errorf("%s: stale memoized key survived the mutation", m.name)
		}
	}
}

func TestCloneDropsKeyMemo(t *testing.T) {
	r := sampleRequest()
	base := r.CanonicalKey()
	c := r.Clone()
	if c.ckey != "" {
		t.Fatal("Clone carried the key memo")
	}
	// Mutating the clone via direct field assignment (allowed on a fresh
	// clone) must not be able to resurrect the parent's key.
	c.Path = "/other"
	if c.CanonicalKey() == base {
		t.Fatal("clone key identical after mutation")
	}
	if r.CanonicalKey() != base {
		t.Fatal("parent key changed by clone mutation")
	}
}

// TestSortsScaleToManyFields: CanonicalKey's query, header and form sorts and
// headerFields take O(n log n) comparisons, so a client request carrying
// tens of thousands of fields costs milliseconds, where an insertion sort
// took seconds. Each order of the same fields keys alike.
func TestSortsScaleToManyFields(t *testing.T) {
	const n = 32000
	fields := func(descending, distinctKeys bool) []Field {
		out := make([]Field, n)
		for i := range out {
			j := i
			if descending {
				j = n - 1 - i
			}
			out[i] = Field{Key: "k", Value: fmt.Sprintf("v%06d", j)}
			if distinctKeys {
				out[i].Key = fmt.Sprintf("X-K%06d", j)
			}
		}
		return out
	}
	timed := func(what string, f func()) {
		t.Helper()
		start := time.Now()
		f()
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s took %v, want under 1s", what, d)
		}
	}
	for _, c := range []struct {
		name string
		req  func(fs []Field) *Request
		keys bool
	}{
		{"query", func(fs []Field) *Request { return &Request{Method: "GET", Host: "h", Path: "/", Query: fs} }, false},
		{"header", func(fs []Field) *Request { return &Request{Method: "GET", Host: "h", Path: "/", Header: fs} }, true},
		{"form", func(fs []Field) *Request {
			return &Request{Method: "POST", Host: "h", Path: "/", BodyKind: BodyForm, BodyForm: fs}
		}, false},
	} {
		var keys [2]string
		for i, desc := range []bool{false, true} {
			r := c.req(fields(desc, c.keys))
			timed(fmt.Sprintf("CanonicalKey of %d %s fields (descending %v)", n, c.name, desc), func() { keys[i] = r.CanonicalKey() })
		}
		if keys[0] != keys[1] {
			t.Fatalf("%s: ascending and descending fields key differently", c.name)
		}
	}
	h := http.Header{}
	for _, f := range fields(true, true) {
		h[f.Key] = []string{f.Value}
	}
	var out []Field
	timed(fmt.Sprintf("headerFields of %d keys", n), func() { out = headerFields(h) })
	byKey := func(a, b Field) int { return strings.Compare(a.Key, b.Key) }
	if len(out) != n || !slices.IsSortedFunc(out, byKey) {
		t.Fatalf("headerFields returned %d of %d fields, or out of order", len(out), n)
	}
}

// TestCanonicalKeyEscapedPath: a path that arrived in other than its
// default escaping keys as sent — /a%2Fb/c is not /a/b/c — while a
// canonical target keys exactly as the request built from its fields.
func TestCanonicalKeyEscapedPath(t *testing.T) {
	parse := func(target string) *Request {
		hreq, err := http.ReadRequest(newBufReader(bytes.NewBufferString("GET " + target + " HTTP/1.1\r\nHost: h\r\n\r\n")))
		if err != nil {
			t.Fatal(err)
		}
		r, err := FromHTTPLimited(hreq, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if parse("/a%2Fb/c").CanonicalKey() == parse("/a/b/c").CanonicalKey() {
		t.Fatalf("%s and %s share a key", "/a%2Fb/c", "/a/b/c")
	}
	built := &Request{Method: "GET", Scheme: "http", Host: "h", Path: "/a b/c", Query: []Field{{Key: "x", Value: "1 2"}}}
	if got := parse("/a%20b/c?x=1+2"); got.CanonicalKey() != built.CanonicalKey() {
		t.Fatalf("a canonical target keys as %+v, not as the request built from its fields", got)
	}
	if got := parse("/a%2Fb?x=1%202&a=%7E").URL(); got != "http://h/a%2Fb?x=1%202&a=%7E" {
		t.Fatalf("URL = %q, want the target as it arrived", got)
	}
}

// TestCanonicalKeyRawBodyType: a raw body's bytes are keyed with their
// Content-Type — the same bytes as JSON and as text are two requests.
func TestCanonicalKeyRawBodyType(t *testing.T) {
	key := func(ct string) string {
		r := &Request{Method: "POST", Host: "h", Path: "/p", Header: []Field{{Key: "Content-Type", Value: ct}},
			BodyKind: BodyRaw, BodyRaw: []byte(`{"a":1}`)}
		return r.CanonicalKey()
	}
	if key("application/json") == key("text/plain") {
		t.Fatal("one raw body under two types shares a key")
	}
}
