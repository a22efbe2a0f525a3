// Package jsonpath implements the small field-path language APPx uses to name
// positions inside JSON request/response bodies, e.g.
//
//	data.products[*].product_info.id
//
// A path is a dot-separated list of object keys; a key may carry an [i] index
// or a [*] wildcard for arrays. The static analyzer emits paths when it sees
// the app access response fields; the proxy's dynamic-learning stage uses
// Extract to pull live values out of predecessor responses (with [*] fanning
// out to one value per array element — the paper's "replicate the request
// instance as many as the number of the 'id' fields") and Inject/Build to
// render prefetch request bodies.
package jsonpath

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Step is one component of a parsed path.
type Step struct {
	Key      string // object key; empty for a bare index step
	Index    int    // array index when HasIndex
	HasIndex bool
	Wildcard bool // [*]
}

// Path is a parsed field path.
type Path []Step

// Parse parses a textual path. The empty string yields the root path (which
// addresses the whole document).
func Parse(s string) (Path, error) {
	if s == "" {
		return Path{}, nil
	}
	var p Path
	for _, seg := range strings.Split(s, ".") {
		if seg == "" {
			return nil, fmt.Errorf("jsonpath: empty segment in %q", s)
		}
		key := seg
		var suffix string
		if i := strings.IndexByte(seg, '['); i >= 0 {
			key, suffix = seg[:i], seg[i:]
		}
		if key == "" {
			return nil, fmt.Errorf("jsonpath: segment %q lacks a key in %q", seg, s)
		}
		st := Step{Key: key}
		for suffix != "" {
			if !strings.HasPrefix(suffix, "[") {
				return nil, fmt.Errorf("jsonpath: malformed segment %q in %q", seg, s)
			}
			end := strings.IndexByte(suffix, ']')
			if end < 0 {
				return nil, fmt.Errorf("jsonpath: unterminated index in %q", s)
			}
			idx := suffix[1:end]
			// Emit the preceding key step first, then the index as its own step
			// when chained (a[0][1] → key a idx0, then bare idx1).
			if st.HasIndex || st.Wildcard {
				p = append(p, st)
				st = Step{}
			}
			if idx == "*" {
				st.Wildcard = true
			} else {
				n, err := strconv.Atoi(idx)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("jsonpath: bad index %q in %q", idx, s)
				}
				st.Index = n
				st.HasIndex = true
			}
			suffix = suffix[end+1:]
		}
		p = append(p, st)
	}
	return p, nil
}

// MustParse is Parse that panics on error, for statically known paths.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the path back to its textual form.
func (p Path) String() string {
	var b strings.Builder
	for i, st := range p {
		if st.Key != "" {
			if i > 0 {
				b.WriteByte('.')
			}
			b.WriteString(st.Key)
		}
		switch {
		case st.Wildcard:
			b.WriteString("[*]")
		case st.HasIndex:
			fmt.Fprintf(&b, "[%d]", st.Index)
		}
	}
	return b.String()
}

// HasWildcard reports whether any step is a [*].
func (p Path) HasWildcard() bool {
	for _, st := range p {
		if st.Wildcard {
			return true
		}
	}
	return false
}

// Extract returns every value addressed by the path within doc (a value of
// the encoding/json generic shape: map[string]any, []any, string, float64,
// bool, nil). Wildcards fan out in document order; the result is empty when
// the path does not resolve. A root path returns doc itself.
func Extract(doc any, p Path) []any {
	vals := []any{doc}
	for _, st := range p {
		var next []any
		for _, v := range vals {
			if st.Key != "" {
				m, ok := v.(map[string]any)
				if !ok {
					continue
				}
				v, ok = m[st.Key]
				if !ok {
					continue
				}
			}
			switch {
			case st.Wildcard:
				arr, ok := v.([]any)
				if !ok {
					continue
				}
				next = append(next, arr...)
				continue
			case st.HasIndex:
				arr, ok := v.([]any)
				if !ok || st.Index >= len(arr) {
					continue
				}
				v = arr[st.Index]
			}
			next = append(next, v)
		}
		vals = next
		if len(vals) == 0 {
			return nil
		}
	}
	return vals
}

// ExtractStrings is Extract with each value coerced to its string form
// (Stringify); non-scalar values are skipped.
func ExtractStrings(doc any, p Path) []string {
	var out []string
	for _, v := range Extract(doc, p) {
		if s, ok := Stringify(v); ok {
			out = append(out, s)
		}
	}
	return out
}

// Stringify renders a scalar JSON value the way an app would interpolate it
// into a request (strings verbatim, numbers without a trailing ".0" when
// integral, booleans as true/false). ok is false for objects, arrays and nil.
func Stringify(v any) (string, bool) {
	switch x := v.(type) {
	case string:
		return x, true
	case float64:
		return formatNumber(x), true
	case json.Number:
		return x.String(), true
	case bool:
		return strconv.FormatBool(x), true
	default:
		return "", false
	}
}

func formatNumber(x float64) string {
	if x == float64(int64(x)) {
		return strconv.FormatInt(int64(x), 10)
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// Inject sets the value at a wildcard-free path inside doc, creating
// intermediate objects as needed, and returns the (possibly new) root.
// Array steps require the array and index to already exist.
func Inject(doc any, p Path, val any) (any, error) {
	if len(p) == 0 {
		return val, nil
	}
	if p.HasWildcard() {
		return nil, fmt.Errorf("jsonpath: cannot inject through wildcard path %s", p)
	}
	root := doc
	if root == nil {
		root = map[string]any{}
	}
	cur := root
	for i, st := range p {
		last := i == len(p)-1
		m, ok := cur.(map[string]any)
		if st.Key != "" {
			if !ok {
				return nil, fmt.Errorf("jsonpath: %s: step %d expects object", p, i)
			}
			if st.HasIndex {
				arr, ok := m[st.Key].([]any)
				if !ok || st.Index >= len(arr) {
					return nil, fmt.Errorf("jsonpath: %s: missing array at step %d", p, i)
				}
				if last {
					arr[st.Index] = val
					return root, nil
				}
				if arr[st.Index] == nil {
					arr[st.Index] = map[string]any{}
				}
				cur = arr[st.Index]
				continue
			}
			if last {
				m[st.Key] = val
				return root, nil
			}
			next, ok := m[st.Key]
			if !ok || next == nil {
				next = map[string]any{}
				m[st.Key] = next
			}
			cur = next
			continue
		}
		// Bare index step.
		arr, ok := cur.([]any)
		if !ok || !st.HasIndex || st.Index >= len(arr) {
			return nil, fmt.Errorf("jsonpath: %s: bad bare index at step %d", p, i)
		}
		if last {
			arr[st.Index] = val
			return root, nil
		}
		if arr[st.Index] == nil {
			arr[st.Index] = map[string]any{}
		}
		cur = arr[st.Index]
	}
	return root, nil
}

// Decode parses JSON bytes into the generic value shape used by Extract.
func Decode(b []byte) (any, error) {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// Encode renders a generic value back to JSON bytes.
func Encode(v any) ([]byte, error) {
	return json.Marshal(v)
}
