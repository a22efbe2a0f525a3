package jsonpath_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"appx/internal/apps"
	"appx/internal/fuzz"
	"appx/internal/jsonpath"
)

// scanPaths is the path set every Scan equivalence check runs: wildcards,
// fixed and chained indexes, nesting, keys that are missing, the root, and
// the dependency paths the evaluation apps' graphs really use.
var scanPaths = func() []jsonpath.Path {
	var out []jsonpath.Path
	for _, s := range []string{
		"", "id", "a", "a.b", "a.b.c", "a[*]", "a[0]", "a[1].b", "a[*].b", "a[*][*]", "a[0][1]",
		"a[*].b[*].c", "missing.key", "items[*].id", "detail[*].id", "é", "k\ufffd",
		"data.products[*].product_info.id", "data.products[*].thumb", "data.products[*].aspect_rat",
		"data.stores[*].id", "data.menu[*].item_id", "data.advisors[*].id", "data.feed[*].id",
	} {
		out = append(out, jsonpath.MustParse(s))
	}
	// Shapes Parse never emits but Extract honours: a bare index or wildcard
	// on the document itself, and a step that asks for nothing.
	return append(out,
		jsonpath.Path{{HasIndex: true, Index: 1}},
		jsonpath.Path{{Wildcard: true}, {Key: "b"}},
		jsonpath.Path{{}, {Key: "a"}, {}},
	)
}()

// checkScan asserts Scan's whole contract on one document.
func checkScan(t testing.TB, body []byte) {
	t.Helper()
	doc, derr := jsonpath.Decode(body)
	got, serr := jsonpath.Scan(body, scanPaths)
	if (derr != nil) != (serr != nil) {
		t.Fatalf("Decode error %v, Scan error %v on %q", derr, serr, body)
	}
	if derr != nil {
		if got != nil {
			t.Fatalf("Scan returned values with an error on %q", body)
		}
		return
	}
	for i, p := range scanPaths {
		want := jsonpath.ExtractStrings(doc, p)
		if len(want) == 0 && len(got[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("path %q on %q:\n Scan   %q\n Decode %q", p, body, got[i], want)
		}
	}
}

var (
	appBodiesOnce sync.Once
	appBodies     [][]byte
)

// originBodies is every distinct JSON body the five evaluation origins serve
// over a seeded UI-fuzzing session of each app.
func originBodies(t testing.TB) [][]byte {
	appBodiesOnce.Do(func() {
		seen := map[string]bool{}
		for _, app := range apps.All() {
			txns, err := fuzz.Record(app.APK, app.Handler(0), fuzz.Options{Seed: 1, Events: 150})
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			for _, tx := range txns {
				b := tx.Response.Body
				if len(b) == 0 || b[0] != '{' || seen[string(b)] {
					continue
				}
				seen[string(b)] = true
				appBodies = append(appBodies, b)
			}
		}
	})
	if len(appBodies) < 20 {
		t.Fatalf("only %d origin bodies recorded", len(appBodies))
	}
	return appBodies
}

// handSeeds are the documents the equivalence contract names one by one.
var handSeeds = []string{
	`{"a":{"b":1},"a":{"c":2}}`, `{"a":[{"b":1,"b":2},{"b":3}],"a":[{"b":4}]}`, `{"id":1,"id":"two"}`,
	`{"a":"\ud83d\ude00 \ud800 \u00e9\n\"\\\/"}`, "{\"a\":\"\xff\xfe\",\"\xff\":1,\"k\xff\":2}", `{"\u0061":{"\u0062":7}}`,
	`{"a":1e400}`, `{"z":[1e400],"a":1}`, `{"a":-0}`, `{"a":-0.0,"id":1.0}`, `{"a":12345678901234567890}`,
	`{"id":9007199254740993}`, `{"a":1.5e3,"id":1E-2}`, `{"a":0.1,"id":100000000000000000000000}`,
	`{"a":` + strings.Repeat("9", 400) + `}`, `{"a":1e` + strings.Repeat("0", 5) + `1}`,
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000), strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	strings.Repeat(`{"a":`, 5000) + "1" + strings.Repeat("}", 5000),
	`{"a":1} x`, `{"a":1}{`, ` {"a" : [ 1 , 2 ] } ` + "\n\t\r", `{"a":[1,2,]}`, `{"a":1,}`, `{,}`, `{"a"}`, `{"a":}`, `[1 2]`,
	`"top"`, `42`, `-`, `01`, `1.`, `.5`, `1e`, `+1`, `true`, `nul`, `null`, ``, ` `, `{"a":"\x"}`, `{"a":"\u12g4"}`, "{\"a\":\"\x01\"}", `{"a":"unterminated`,
	`[[1,2],[3,[4,5]]]`, `[{"b":"x"},{"b":null},{"b":{}},{"b":[1]},{"b":true}]`, `{"a":[[1,2],[3,4]]}`, `{"a":{"b":{"c":[1,"2",false]}}}`,
	`{"a":[{"b":[{"c":1},{"c":2}]},{"b":[{"c":3}]},{"b":7}]}`, `{"a":null,"id":null}`, `{"":1,"a":{"":2}}`, `{"é":"ü","k\ufffd":1}`,
}

func FuzzScanMatchesDecode(f *testing.F) {
	for _, b := range originBodies(f) {
		f.Add(b)
	}
	for _, s := range handSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkScan(t, body) })
}

// TestScanTruncatedAndSplicedBodies walks every origin body through every
// truncation point of its first KiB and a handful of byte splices: cheap
// structure-aware inputs the random fuzzer takes long to find.
func TestScanTruncatedAndSplicedBodies(t *testing.T) {
	for _, b := range originBodies(t) {
		n := len(b)
		if n > 1024 {
			n = 1024
		}
		for i := 0; i < n; i += 7 {
			checkScan(t, b[:i])
			for _, c := range []byte{'"', '\\', '}', ']', ',', '0', 0xff} {
				mut := bytes.Clone(b[:n])
				mut[i] = c
				checkScan(t, mut)
			}
		}
	}
}

func TestScanSkipsWithoutAllocating(t *testing.T) {
	body := []byte(`{"pad":"` + strings.Repeat("x", 4096) + `","deep":{"a":[1,2,{"b":"c"}],"n":-1.25},"items":[{"id":"i0"},{"id":"i1"}]}`)
	paths := []jsonpath.Path{jsonpath.MustParse("items[*].id")}
	allocs := testing.AllocsPerRun(200, func() {
		if out, err := jsonpath.Scan(body, paths); err != nil || len(out[0]) != 2 {
			t.Fatalf("Scan = %v, %v", out, err)
		}
	})
	// The result table, the cursor stack, the path's slice (grown once), and
	// the two strings.
	if allocs > 6 {
		t.Fatalf("Scan allocated %.0f times for two extracted values", allocs)
	}
}

// fanoutListBody is a learn_fanout-shaped list response: eight ids and the
// padding that brings it to about 1 KB.
func fanoutListBody() []byte {
	var b strings.Builder
	b.WriteString(`{"id":"f003-17","items":[`)
	for i := 0; i < 8; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"id":"f003-17.` + string(rune('0'+i)) + `"}`)
	}
	b.WriteString(`],"pad":"` + strings.Repeat("k3", 420) + `"}`)
	return []byte(b.String())
}

func wishFeedBody(b *testing.B) []byte {
	var feed []byte
	for _, body := range originBodies(b) {
		if bytes.Contains(body, []byte(`"product_info"`)) && len(body) > len(feed) {
			feed = body
		}
	}
	if feed == nil {
		b.Fatal("no Wish feed body recorded")
	}
	return feed
}

var benchDocs = []struct {
	name string
	body func(*testing.B) []byte
	path string
}{
	{"fanout_list", func(*testing.B) []byte { return fanoutListBody() }, "items[*].id"},
	{"wish_feed", wishFeedBody, "data.products[*].product_info.id"},
}

var benchSink int

func BenchmarkScan(b *testing.B) {
	for _, d := range benchDocs {
		b.Run(d.name, func(b *testing.B) {
			body, paths := d.body(b), []jsonpath.Path{jsonpath.MustParse(d.path)}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := jsonpath.Scan(body, paths)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(out[0])
			}
		})
	}
}

// BenchmarkDecodeExtract is the reference path Scan replaced on the learning
// hot path: a full tree, then the walk.
func BenchmarkDecodeExtract(b *testing.B) {
	for _, d := range benchDocs {
		b.Run(d.name, func(b *testing.B) {
			body, path := d.body(b), jsonpath.MustParse(d.path)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				doc, err := jsonpath.Decode(body)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(jsonpath.ExtractStrings(doc, path))
			}
		})
	}
}
