package httpmsg

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// keyParts is what a canonical key must tell apart, computed here without
// the encoder: the upper-cased method, the lower-cased host, the path, the
// sorted query, the sorted keyed headers under lower-cased names, and the
// body kind with the body — sorted form fields, or raw bytes with their
// Content-Type.
type keyParts struct {
	Method, Host, Path string
	Query, Header      []Field
	Kind               BodyKind
	Form               []Field
	Type, Body         string
}

func partsOf(r *Request) keyParts {
	sorted := func(fs []Field) []Field {
		out := append([]Field{}, fs...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].Key != out[j].Key {
				return out[i].Key < out[j].Key
			}
			return out[i].Value < out[j].Value
		})
		return out
	}
	p := keyParts{Method: strings.ToUpper(r.Method), Host: strings.ToLower(r.Host), Path: r.Path,
		Query: sorted(r.Query), Header: []Field{}, Form: []Field{}, Kind: r.BodyKind}
	for _, f := range r.Header {
		if KeyedHeader(f.Key) {
			p.Header = append(p.Header, Field{Key: strings.ToLower(f.Key), Value: f.Value})
		}
	}
	p.Header = sorted(p.Header)
	switch r.BodyKind {
	case BodyForm:
		p.Form = sorted(r.BodyForm)
	case BodyRaw:
		p.Type, _ = r.GetHeader("Content-Type")
		p.Body = string(r.BodyRaw)
	}
	return p
}

// fuzzRequest decodes a request from fuzz bytes: each string is a length
// byte and that many bytes (any byte may appear inside), each list a count
// byte and that many entries.
func fuzzRequest(data []byte) *Request {
	str := func() string {
		if len(data) == 0 {
			return ""
		}
		n := min(int(data[0])%32, len(data)-1)
		s := string(data[1 : 1+n])
		data = data[1+n:]
		return s
	}
	fields := func() []Field {
		if len(data) == 0 {
			return nil
		}
		n := int(data[0]) % 4
		data = data[1:]
		var fs []Field
		for i := 0; i < n; i++ {
			fs = append(fs, Field{Key: str(), Value: str()})
		}
		return fs
	}
	r := &Request{Method: str(), Host: str(), Path: str(), Query: fields(), Header: fields()}
	if len(data) > 0 {
		r.BodyKind = BodyKind(data[0] % 4)
		data = data[1:]
	}
	switch r.BodyKind {
	case BodyForm:
		r.BodyForm = fields()
	case BodyRaw:
		r.BodyRaw = []byte(str())
	}
	return r
}

// fuzzEncode is fuzzRequest's inverse for the seed corpus.
func fuzzEncode(r *Request) []byte {
	var b []byte
	str := func(s string) { b = append(append(b, byte(len(s))), s...) }
	fields := func(fs []Field) {
		b = append(b, byte(len(fs)))
		for _, f := range fs {
			str(f.Key)
			str(f.Value)
		}
	}
	str(r.Method)
	str(r.Host)
	str(r.Path)
	fields(r.Query)
	fields(r.Header)
	b = append(b, byte(r.BodyKind))
	switch r.BodyKind {
	case BodyForm:
		fields(r.BodyForm)
	case BodyRaw:
		str(string(r.BodyRaw))
	}
	return b
}

// FuzzCanonicalKey: two requests with equal canonical keys have equal
// canonical parts. The corpus starts from the collisions a separator-joined
// key had and from pairs that differ only in what the key ignores (field
// order, name and method case, hop-by-hop headers).
func FuzzCanonicalKey(f *testing.F) {
	for _, pair := range keyCollisions {
		f.Add(fuzzEncode(pair[0]), fuzzEncode(pair[1]))
	}
	a := sampleRequest()
	b := sampleRequest()
	b.Method = "post"
	b.Header = []Field{b.Header[1], {Key: "Connection", Value: "close"}, {Key: "COOKIE", Value: "e8d5"}}
	b.BodyForm[0], b.BodyForm[1] = b.BodyForm[1], b.BodyForm[0]
	f.Add(fuzzEncode(a), fuzzEncode(b))
	j := &Request{Method: "PUT", Host: "h", Path: "/j", BodyKind: BodyRaw, BodyRaw: []byte(`{"a":1.0,"b":"x"}`)}
	f.Add(fuzzEncode(j), fuzzEncode(&Request{Method: "PUT", Host: "h", Path: "/j", BodyKind: BodyRaw, BodyRaw: []byte(`{"a":1,"b":"x"}`)}))
	f.Fuzz(func(t *testing.T, x, y []byte) {
		ra, rb := fuzzRequest(x), fuzzRequest(y)
		if ra.CanonicalKey() != rb.CanonicalKey() {
			return
		}
		if pa, pb := partsOf(ra), partsOf(rb); !reflect.DeepEqual(pa, pb) {
			t.Fatalf("equal keys for different requests:\n%+v\n%+v", pa, pb)
		}
	})
}
