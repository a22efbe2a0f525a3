package jsonpath

import (
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"
)

func doc(t *testing.T, s string) any {
	t.Helper()
	v, err := Decode([]byte(s))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return v
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"",
		"id",
		"data.products[*].product_info.id",
		"items[0].name",
		"grid[2][3]",
		"a[*][*]",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"a..b", "a[", "a[x]", "a[-1]", ".", "a.[0]"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestExtractScalar(t *testing.T) {
	d := doc(t, `{"data":{"contest":{"cache":"c1","info":42}}}`)
	got := Extract(d, MustParse("data.contest.info"))
	if len(got) != 1 || got[0] != float64(42) {
		t.Fatalf("Extract = %v", got)
	}
}

func TestExtractWildcardFanOut(t *testing.T) {
	d := doc(t, `{"data":{"products":[
		{"product_info":{"id":"09cf"}},
		{"product_info":{"id":"3gf3"}},
		{"product_info":{"id":"vm98"}}]}}`)
	got := ExtractStrings(d, MustParse("data.products[*].product_info.id"))
	want := []string{"09cf", "3gf3", "vm98"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractStrings = %v, want %v", got, want)
	}
}

func TestExtractIndexAndMissing(t *testing.T) {
	d := doc(t, `{"items":[{"name":"a"},{"name":"b"}]}`)
	if got := ExtractStrings(d, MustParse("items[1].name")); len(got) != 1 || got[0] != "b" {
		t.Fatalf("index extract = %v", got)
	}
	if got := Extract(d, MustParse("items[9].name")); got != nil {
		t.Fatalf("out-of-range extract = %v, want nil", got)
	}
	if got := Extract(d, MustParse("nope.x")); got != nil {
		t.Fatalf("missing-key extract = %v, want nil", got)
	}
	if got := Extract(d, MustParse("items.name")); got != nil {
		t.Fatalf("type-mismatch extract = %v, want nil", got)
	}
}

func TestExtractRoot(t *testing.T) {
	d := doc(t, `{"a":1}`)
	got := Extract(d, Path{})
	if len(got) != 1 {
		t.Fatalf("root extract = %v", got)
	}
}

func TestExtractNestedWildcards(t *testing.T) {
	d := doc(t, `{"rows":[{"cols":[1,2]},{"cols":[3]}]}`)
	got := ExtractStrings(d, MustParse("rows[*].cols[*]"))
	want := []string{"1", "2", "3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nested wildcard = %v, want %v", got, want)
	}
}

func TestStringify(t *testing.T) {
	cases := []struct {
		in   any
		want string
		ok   bool
	}{
		{"x", "x", true},
		{float64(30), "30", true},
		{float64(1.5), "1.5", true},
		{true, "true", true},
		{nil, "", false},
		{map[string]any{}, "", false},
		{[]any{}, "", false},
	}
	for _, c := range cases {
		got, ok := Stringify(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("Stringify(%v) = %q,%v want %q,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// Property: wildcard fan-out count equals the product of array lengths along
// a two-level wildcard path.
func TestWildcardFanOutCountProperty(t *testing.T) {
	f := func(outer, inner uint8) bool {
		n, m := int(outer%8), int(inner%8)
		rows := make([]any, n)
		for i := range rows {
			cols := make([]any, m)
			for j := range cols {
				cols[j] = float64(i*m + j)
			}
			rows[i] = map[string]any{"cols": cols}
		}
		d := map[string]any{"rows": rows}
		got := Extract(d, MustParse("rows[*].cols[*]"))
		return len(got) == n*m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := doc(t, `{"a":[1,2,{"b":"c"}]}`)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	d2, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("round trip mismatch: %v vs %v", d, d2)
	}
}
