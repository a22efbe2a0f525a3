package sig

import (
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// Regexp compiles the pattern to the anchored regular expression Capture
// reproduces: literals escaped, unknowns as greedy (.*) groups. It is
// Capture's reference oracle.
func (p Pattern) Regexp() (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("^")
	for _, part := range p.Parts {
		if part.Kind == Lit {
			b.WriteString(regexp.QuoteMeta(part.Lit))
		} else {
			b.WriteString("(.*)")
		}
	}
	b.WriteString("$")
	return regexp.Compile(b.String())
}

// checkCapture holds Capture to the regexp oracle on one pattern and value.
func checkCapture(t *testing.T, p Pattern, value string) {
	t.Helper()
	re, err := p.Regexp()
	if err != nil {
		t.Fatalf("pattern %q: %v", p.String(), err)
	}
	var want []string
	m := re.FindStringSubmatch(value)
	if m != nil {
		want = m[1:]
	}
	got, ok := p.Capture(value, []string{"kept"})
	if ok != (m != nil) || got[0] != "kept" || !slices.Equal(got[1:], want) {
		t.Fatalf("pattern %q on %q: Capture = %q, %v; regexp = %q", p.String(), value, got, ok, m)
	}
}

// fuzzPattern decodes a pattern: '*' is an unknown, '|' ends a literal part
// (so adjacent and empty literals occur), anything else is literal text.
func fuzzPattern(spec string) Pattern {
	var p Pattern
	var lit strings.Builder
	open := false
	flush := func() {
		if open {
			p = Concat(p, Literal(lit.String()))
		}
		lit.Reset()
		open = false
	}
	for _, r := range spec {
		switch r {
		case '*':
			flush()
			p = Concat(p, Wildcard(""))
		case '|':
			open = true
			flush()
		default:
			lit.WriteRune(r)
			open = true
		}
	}
	flush()
	return p
}

// FuzzPatternCapture: on valid UTF-8, Capture matches and captures exactly
// what the anchored regexp does.
func FuzzPatternCapture(f *testing.F) {
	for _, seed := range [][2]string{
		{"*/img*", "cdn.example/img?x=/img"},
		{"x*y*z", "x1y2y3z"},
		{"a|b*c|", "ab1c"},
		{"**", "abc"},
		{"*a\n*b*", "xa\nyb\nb"},
		{"*\n*b*", "b\nab\nb"},
		{"a*a", "a"},
		{"", ""},
		{"\uFFFD*", "\uFFFDz"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, spec, value string) {
		if !utf8.ValidString(spec) || !utf8.ValidString(value) {
			t.Skip("regexp reads invalid UTF-8 as U+FFFD; Capture is byte-exact")
		}
		checkCapture(t, fuzzPattern(spec), value)
	})
}

// TestCaptureSmallSpace holds Capture to the regexp on every pattern of up
// to four parts and every value of up to four bytes over a, b and '\n'.
func TestCaptureSmallSpace(t *testing.T) {
	atoms := []Pattern{Wildcard(""), Literal(""), Literal("a"), Literal("\n"), Literal("a\n")}
	var values []string
	var grow func(s string)
	grow = func(s string) {
		values = append(values, s)
		if len(s) < 4 {
			for _, c := range []string{"a", "b", "\n"} {
				grow(s + c)
			}
		}
	}
	grow("")
	var walk func(p Pattern)
	walk = func(p Pattern) {
		for _, v := range values {
			checkCapture(t, p, v)
		}
		if len(p.Parts) < 4 {
			for _, a := range atoms {
				walk(Concat(p, a))
			}
		}
	}
	walk(Pattern{})
}

// A literal may hold a '\n' that the value must carry in that place; no
// capture may hold one.
func TestCaptureNewlineLiteral(t *testing.T) {
	p := Concat(Wildcard(""), Literal("a\n"), Wildcard(""), Literal("b"), Wildcard(""))
	if got, ok := p.Capture("xa\nybzb", nil); !ok || !reflect.DeepEqual(got, []string{"x", "ybz", ""}) {
		t.Fatalf("Capture = %q, %v", got, ok)
	}
	if got, ok := p.Capture("xa\nyb\nb", nil); ok {
		t.Fatalf("Capture = %q: the second '\\n' has no literal to fall in", got)
	}
	if got, ok := Concat(Literal("h\n"), Wildcard("")).Capture("h\nx", nil); !ok || !reflect.DeepEqual(got, []string{"x"}) {
		t.Fatalf("a leading '\\n' literal: Capture = %q, %v", got, ok)
	}
	if got, ok := Concat(Wildcard(""), Literal("/img")).Capture("h\n/img", nil); ok {
		t.Fatalf("a capture held a '\\n': %q", got)
	}
}

// Capture is byte-exact: an invalid byte is not the U+FFFD the regexp
// decodes it as.
func TestCaptureInvalidByteIsByteExact(t *testing.T) {
	p := Concat(Literal("a\uFFFD"), Wildcard(""))
	re, err := p.Regexp()
	if err != nil {
		t.Fatal(err)
	}
	if !re.MatchString("a\xffz") {
		t.Fatal("the regexp no longer matches an invalid byte against U+FFFD")
	}
	if got, ok := p.Capture("a\xffz", nil); ok {
		t.Fatalf("Capture matched an invalid byte against U+FFFD: %q", got)
	}
	if got, ok := p.Capture("a\uFFFDz", nil); !ok || !reflect.DeepEqual(got, []string{"z"}) {
		t.Fatalf("Capture = %q, %v on a real U+FFFD", got, ok)
	}
	if got, ok := Concat(Literal("a"), Wildcard("")).Capture("a\xff\xfe", nil); !ok || got[0] != "\xff\xfe" {
		t.Fatalf("an unknown did not capture invalid bytes: %q, %v", got, ok)
	}
}
