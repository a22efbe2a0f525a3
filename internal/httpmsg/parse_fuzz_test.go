package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"testing"
)

// fuzzBodyLimit is the body cap FuzzFromHTTPLimited parses under.
const fuzzBodyLimit = 64

// FuzzFromHTTPLimited: any request net/http parses converts without a panic;
// the conversion refuses with ErrBodyTooLarge exactly when the body carries
// more than the limit, fails otherwise only when the body cannot be read, and
// a converted request keys the same as its clone and as the request it
// becomes on the wire.
func FuzzFromHTTPLimited(f *testing.F) {
	for _, seed := range []string{
		"GET http://h.example/item?id=1&b=2 HTTP/1.1\r\nHost: h.example\r\nCookie: s=1\r\n\r\n",
		"GET /p%2Fq?x=%zz HTTP/1.1\r\nHost: H.Example:8080\r\n\r\n",
		"POST /feed HTTP/1.1\r\nHost: h\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 17\r\n\r\noffset=0&count=20",
		"POST /j HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\nContent-Length: 13\r\n\r\n{\"a\":[1,\"x\"]}",
		"POST /j HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\n{\"a\":",
		"PUT /raw HTTP/1.1\r\nHost: h\r\nContent-Length: 64\r\n\r\n" + string(bytes.Repeat([]byte("r"), 64)),
		"PUT /raw HTTP/1.1\r\nHost: h\r\nContent-Length: 65\r\n\r\n" + string(bytes.Repeat([]byte("r"), 65)),
		"PUT /raw HTTP/1.1\r\nHost: h\r\nContent-Length: 90\r\n\r\nshort",
		"POST /c HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"POST /c HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n50\r\n" + string(bytes.Repeat([]byte("c"), 80)) + "\r\n0\r\n\r\n",
		"POST /c HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		// Hosts and paths url.Parse re-splits: host "!" with path "*" came
		// back as host "!*", and host "#" as no host at all.
		"0 * HTTP/0.0\nHost:!\n\n",
		"0 /0 HTTP/0.0\nHost:#\n\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// The reference reads the same body from a second parse.
		ref, _ := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		body, readErr := io.ReadAll(ref.Body)

		req, err := FromHTTPLimited(r, fuzzBodyLimit)
		switch tooLarge := len(body) > fuzzBodyLimit; {
		case tooLarge != errors.Is(err, ErrBodyTooLarge):
			t.Fatalf("%d-byte body: err %v", len(body), err)
		case tooLarge:
			return
		case (err != nil) != (readErr != nil):
			t.Fatalf("conversion err %v, body read err %v", err, readErr)
		case err != nil:
			return
		}
		if k, c := req.CanonicalKey(), req.Clone().CanonicalKey(); c != k {
			t.Fatalf("clone keys %q, original %q", c, k)
		}
		// What the proxy sends the origin for req is req: a request that
		// CheckHead (as the origin client does), ToHTTP and Write accept
		// parses back to the same key.
		if req.CheckHead() != nil {
			return
		}
		hreq, err := req.ToHTTP()
		if err != nil {
			return
		}
		// Write adds a default User-Agent to a request without one; that
		// header is Write's, not the conversion's.
		if _, ok := hreq.Header["User-Agent"]; !ok {
			hreq.Header.Set("User-Agent", "")
		}
		var wire bytes.Buffer
		if hreq.Write(&wire) != nil {
			return
		}
		sent := wire.String()
		back, err := http.ReadRequest(bufio.NewReader(&wire))
		if err != nil {
			t.Fatalf("written request %q does not parse: %v", sent, err)
		}
		got, err := FromHTTP(back)
		if err != nil {
			t.Fatalf("written request %q does not convert: %v", sent, err)
		}
		if got.CanonicalKey() != req.CanonicalKey() {
			t.Fatalf("written as %q, parsed back as host %q path %q query %v; sent host %q path %q query %v",
				sent, got.Host, got.Path, got.Query, req.Host, req.Path, req.Query)
		}
	})
}

// FuzzParseFields: ParseFields yields what url.ParseQuery does — each key's
// values in order, keys sorted — and refuses exactly when it refuses.
func FuzzParseFields(f *testing.F) {
	for _, seed := range []string{"", "id=1", "b=2&a=1&b=1", "a;b=1&c=2", "x=%zz&y=%41+b", "&&=&k", "k=v=w&k"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got, err := ParseFields(raw)
		vals, wantErr := url.ParseQuery(raw)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseFields(%q) error %v, ParseQuery %v", raw, err, wantErr)
		}
		var want []Field
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			for _, v := range vals[k] {
				want = append(want, Field{Key: k, Value: v})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseFields(%q) = %q, ParseQuery gives %q", raw, got, want)
		}
	})
}
