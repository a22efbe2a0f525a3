package proxy

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"appx/internal/httpmsg"
)

// fuzzFields parses "Key: value" lines into header fields, keeping whatever
// a line holds.
func fuzzFields(s string) []httpmsg.Field {
	var out []httpmsg.Field
	for _, line := range strings.Split(s, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			out = append(out, httpmsg.Field{Key: k, Value: strings.TrimSpace(v)})
		}
	}
	return out
}

// FuzzRevalidateHeader holds the 304 header merge (notModified200) to what
// a client may be handed: a 200 over the twin's very bytes; a Content-Length,
// when there is one, that states their length; no Transfer-Encoding or
// Content-Range from either side; none of the twin's Set-Cookie; every other
// field the 304 carries; and every field of the twin the 304 does not name.
func FuzzRevalidateHeader(f *testing.F) {
	f.Add("Content-Length: 5\nContent-Type: image/jpeg\nEtag: \"a\"\nSet-Cookie: sid=A", "Etag: \"a\"\nSet-Cookie: sid=B\nDate: now", []byte("hello"))
	f.Add("Transfer-Encoding: chunked\nEtag: \"a\"", "Content-Length: 0\nContent-Range: bytes */9\nTransfer-Encoding: chunked", []byte("x"))
	f.Add("content-length: 3\ncontent-length: 4\nCache-Control: max-age=1", "cache-control: max-age=9\nConnection: close\nKeep-Alive: 5", []byte{})
	f.Add("", "", []byte("abc"))
	f.Fuzz(func(t *testing.T, twinHeader, nmHeader string, body []byte) {
		twin := &httpmsg.Response{Status: 200, Header: fuzzFields(twinHeader), Body: body}
		nm := fuzzFields(nmHeader)
		got := notModified200(twin, nm)
		if got.Status != 200 || !bytes.Equal(got.Body, body) || (len(body) > 0 && &got.Body[0] != &body[0]) {
			t.Fatalf("status %d, body %q: want a 200 over the twin's own bytes %q", got.Status, got.Body, body)
		}
		has := func(fields []httpmsg.Field, want httpmsg.Field) bool {
			for _, f := range fields {
				if f == want {
					return true
				}
			}
			return false
		}
		names := func(fields []httpmsg.Field, key string) bool {
			for _, f := range fields {
				if strings.EqualFold(f.Key, key) {
					return true
				}
			}
			return false
		}
		lengths := 0
		for i, f := range got.Header {
			switch {
			case strings.EqualFold(f.Key, "Content-Length"):
				lengths++
				if f.Value != strconv.Itoa(len(body)) {
					t.Fatalf("Content-Length %q on a %d-byte body", f.Value, len(body))
				}
			case strings.EqualFold(f.Key, "Transfer-Encoding"), strings.EqualFold(f.Key, "Content-Range"):
				t.Fatalf("%s leaked into the 200: %v", f.Key, got.Header)
			case strings.EqualFold(f.Key, "Set-Cookie") && !has(nm, f):
				t.Fatalf("the twin's Set-Cookie %q reached the 200", f.Value)
			}
			if i > 0 && f.Key < got.Header[i-1].Key {
				t.Fatalf("fields out of order: %v", got.Header)
			}
		}
		if lengths > 1 || (lengths == 1) != names(twin.Header, "Content-Length") {
			t.Fatalf("%d Content-Length fields from a twin that has them: %v", lengths, names(twin.Header, "Content-Length"))
		}
		for _, f := range nm {
			if !framingField(f.Key) && !strings.EqualFold(f.Key, "Content-Length") && !has(got.Header, f) {
				t.Fatalf("the 304's %s: %q is not in the 200", f.Key, f.Value)
			}
		}
		for _, f := range twin.Header {
			kept := !names(nm, f.Key) && !framingField(f.Key) &&
				!strings.EqualFold(f.Key, "Content-Length") && !strings.EqualFold(f.Key, "Set-Cookie")
			if kept && !has(got.Header, f) {
				t.Fatalf("the twin's %s: %q, which the 304 does not name, was dropped", f.Key, f.Value)
			}
		}
	})
}
