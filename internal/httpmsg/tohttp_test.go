package httpmsg

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// refToHTTP is ToHTTP as it stood before requests were assembled field by
// field: render the URL to text through url.Values, let http.NewRequest
// parse it back.
func refToHTTP(r *Request) (*http.Request, error) {
	scheme := r.Scheme
	if scheme == "" {
		scheme = "http"
	}
	u := scheme + "://" + r.Host + r.Path
	encode := func(fields []Field) string {
		vals := url.Values{}
		for _, f := range fields {
			vals.Add(f.Key, f.Value)
		}
		return vals.Encode()
	}
	if len(r.Query) > 0 {
		u += "?" + encode(r.Query)
	}
	ct, body := r.EncodeBody()
	if r.BodyKind == BodyForm {
		body = []byte(encode(r.BodyForm))
	}
	req, err := http.NewRequest(strings.ToUpper(r.Method), u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, f := range r.Header {
		req.Header.Add(f.Key, f.Value)
	}
	if ct != "" && req.Header.Get("Content-Type") == "" {
		req.Header.Set("Content-Type", ct)
	}
	return req, nil
}

// TestToHTTPMatchesURLRoundTrip: the directly assembled request is the one
// the URL-text round trip produced — same request line, Host, headers, body
// and replayability — for plain paths (the fast path) and for every path
// shape url.Parse gives meaning to (the fallback).
func TestToHTTPMatchesURLRoundTrip(t *testing.T) {
	q := func(kv ...string) []Field {
		var out []Field
		for i := 0; i < len(kv); i += 2 {
			out = append(out, Field{Key: kv[i], Value: kv[i+1]})
		}
		return out
	}
	cases := []*Request{
		{Method: "GET", Scheme: "http", Host: "a.example", Path: "/item/f003-17.4"},
		{Method: "get", Host: "a.example:8080", Path: "/list", Query: q("id", "r 1", "b", "x&y=z", "a", "2", "b", "first")},
		{Method: "", Host: "a.example", Path: ""},
		{Method: "GET", Scheme: "https", Host: "a.example", Path: "/"},
		{Method: "GET", Host: "a.example", Path: "/with space/é/ü"},
		{Method: "GET", Host: "a.example", Path: "/a[1]/b;c=d/e:f@g!$&'()*+,="},
		{Method: "GET", Host: "a.example", Path: "/enc%20oded/%2F/%zz"},
		{Method: "GET", Host: "a.example", Path: "/d%20x.png"},
		{Method: "GET", Host: "a.example", Path: "/p?inline=1", Query: q("k", "v")},
		{Method: "GET", Host: "a.example", Path: "/p#frag"},
		{Method: "GET", Host: "a.example", Path: "/ctl\x7f\x01"},
		{Method: "GET", Host: "bad host", Path: "/"},
		{Method: "GET", Host: "[::1]:8080", Path: "/v6"},
		{Method: "GET", Host: "a.example:", Path: "/emptyport"},
		{Method: "GET", Host: "a.example:80:90", Path: "/twoports"},
		{Method: "GET", Host: "a.example:http", Path: "/namedport"},
		{Method: "GET", Host: "", Path: "/nohost"},
		{Method: "BAD METHOD", Host: "a.example", Path: "/"},
		{Method: "POST", Host: "a.example", Path: "/product/get", Header: q("Cookie", "sid=1", "X-A", "1", "x-a", "2"),
			BodyKind: BodyForm, BodyForm: q("cid", "c 9", "_client", "android", "cid", "second", "a&b", "=")},
		{Method: "POST", Host: "a.example", Path: "/graph", Header: q("Content-Type", "application/json; charset=utf-8"),
			BodyKind: BodyJSON, BodyJSON: map[string]any{"query": map[string]any{"id": "z9"}}},
		{Method: "PUT", Host: "a.example", Path: "/raw", BodyKind: BodyRaw, BodyRaw: []byte{0, 1, 2, 255}},
		{Method: "POST", Host: "a.example", Path: "/empty-form", BodyKind: BodyForm},
	}
	read := func(rc io.ReadCloser) string {
		if rc == nil {
			return "<nil>"
		}
		b, _ := io.ReadAll(rc)
		return string(b)
	}
	for _, r := range cases {
		want, werr := refToHTTP(r)
		got, gerr := r.ToHTTP()
		name := r.Method + " " + r.Host + r.Path
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if got.URL.String() != want.URL.String() || got.URL.RequestURI() != want.URL.RequestURI() || got.URL.Host != want.URL.Host {
			t.Errorf("%s: URL %q (request line %q), reference %q (%q)", name, got.URL, got.URL.RequestURI(), want.URL, want.URL.RequestURI())
		}
		if got.Method != want.Method || got.Host != want.Host || got.ContentLength != want.ContentLength {
			t.Errorf("%s: method/host/length %q %q %d, reference %q %q %d", name, got.Method, got.Host, got.ContentLength, want.Method, want.Host, want.ContentLength)
		}
		if !reflect.DeepEqual(got.Header, want.Header) {
			t.Errorf("%s: header %v, reference %v", name, got.Header, want.Header)
		}
		if (got.GetBody == nil) != (want.GetBody == nil) || (got.Body == http.NoBody) != (want.Body == http.NoBody) {
			t.Errorf("%s: body replayability differs", name)
		}
		if g, w := read(got.Body), read(want.Body); g != w {
			t.Errorf("%s: body %q, reference %q", name, g, w)
		}
		if got.GetBody != nil {
			again, _ := got.GetBody()
			replay, _ := want.GetBody()
			if g, w := read(again), read(replay); g != w {
				t.Errorf("%s: replayed body %q, reference %q", name, g, w)
			}
		}
	}
}

func TestHeaderFieldsSortedAndStable(t *testing.T) {
	h := http.Header{"B": {"2", "1"}, "A": {"x"}, "C": nil, "Set-Cookie": {"b=1", "a=2"}}
	want := []Field{{"A", "x"}, {"B", "2"}, {"B", "1"}, {"Set-Cookie", "b=1"}, {"Set-Cookie", "a=2"}}
	for i := 0; i < 20; i++ { // map order varies from run to run
		if got := headerFields(h); !reflect.DeepEqual(got, want) {
			t.Fatalf("headerFields = %v, want %v", got, want)
		}
	}
	if got := headerFields(http.Header{}); got != nil {
		t.Fatalf("headerFields(empty) = %v, want nil", got)
	}
}
