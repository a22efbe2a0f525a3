package jsonpath

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit; Scan rejects what Decode rejects.
const maxDepth = 10000

// Scan reads, in one pass over the raw bytes and without building a tree,
// the strings every path addresses: out[i] is exactly what
// ExtractStrings(Decode(body), paths[i]) returns — wildcards fan out in
// document order, a duplicated object key keeps its last value only, string
// escapes and invalid UTF-8 decode as encoding/json decodes them, numbers go
// through ParseFloat and Stringify's formatting, and objects, arrays and
// null yield nothing. The whole document is validated: Scan fails exactly
// when Decode fails (syntax error, trailing bytes, nesting past
// encoding/json's limit, a number outside float64), and then returns no
// values at all. Subtrees no path leads into are checked but never copied.
func Scan(body []byte, paths []Path) ([][]string, error) {
	s := scanner{b: body, paths: paths, out: make([][]string, len(paths)),
		cur: make([]cursor, len(paths), 4*len(paths)+4)}
	for i := range paths {
		s.cur[i].path = i
	}
	s.space()
	if err := s.value(0, len(s.cur)); err != nil {
		return nil, err
	}
	s.space()
	if s.i != len(s.b) {
		return nil, s.fail("trailing data")
	}
	return s.out, nil
}

// cursor is one path's progress at the value being scanned: the steps before
// step are consumed, and keyed says the key of path[step] has matched too,
// leaving only its index or wildcard to apply. mark is how many results the
// path had when the object the cursor sits on began.
type cursor struct {
	path, step int
	keyed      bool
	mark       int
}

type scanner struct {
	b     []byte
	i     int
	depth int
	paths []Path
	out   [][]string
	// cur is a stack of cursor frames: value(lo, hi) is handed cur[lo:hi],
	// and a container pushes each child's frame above it for the child's
	// scan.
	cur []cursor
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("jsonpath: invalid JSON: %s at offset %d", what, s.i)
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// value scans one JSON value for the cursors cur[lo:hi]; with an empty
// frame it only validates.
func (s *scanner) value(lo, hi int) error {
	if s.i >= len(s.b) {
		return s.fail("unexpected end")
	}
	// Steps that ask nothing more of this value — a matched key without an
	// index — are consumed; wanted notes a path ending here.
	wanted := false
	for k := lo; k < hi; k++ {
		c := &s.cur[k]
		p := s.paths[c.path]
		for c.step < len(p) {
			st := p[c.step]
			if (st.Key != "" && !c.keyed) || st.Wildcard || st.HasIndex {
				break
			}
			c.step, c.keyed = c.step+1, false
		}
		wanted = wanted || c.step == len(p)
	}
	start := s.i
	switch c := s.b[s.i]; {
	case c == '{':
		return s.object(lo, hi)
	case c == '[':
		return s.array(lo, hi)
	case c == '"':
		escaped, err := s.skipString()
		if err != nil || !wanted {
			return err
		}
		v, ok := unquote(s.b[start:s.i], escaped)
		if !ok {
			return s.fail("undecodable string")
		}
		s.emit(lo, hi, v)
	case c == '-' || (c >= '0' && c <= '9'):
		risky, err := s.skipNumber()
		if err != nil {
			return err
		}
		// Only an exponent or hundreds of digits can leave float64's range,
		// which Decode reports as an error for the whole document.
		if wanted || risky {
			f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
			if err != nil {
				s.i = start
				return s.fail("number out of range")
			}
			if wanted {
				s.emit(lo, hi, formatNumber(f))
			}
		}
	case c == 't':
		return s.literal("true", lo, hi)
	case c == 'f':
		return s.literal("false", lo, hi)
	case c == 'n':
		return s.literal("null", lo, lo)
	default:
		return s.fail("unexpected character")
	}
	return nil
}

// emit appends a scalar's string form to every path that ends at it.
func (s *scanner) emit(lo, hi int, v string) {
	for k := lo; k < hi; k++ {
		if c := s.cur[k]; c.step == len(s.paths[c.path]) {
			s.out[c.path] = append(s.out[c.path], v)
		}
	}
}

func (s *scanner) literal(word string, lo, hi int) error {
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		return s.fail("bad literal")
	}
	s.i += len(word)
	s.emit(lo, hi, word)
	return nil
}

// enter consumes a container's opening bracket; empty reports that end
// closed it straight away.
func (s *scanner) enter(end byte) (empty bool, err error) {
	s.i++
	if s.depth++; s.depth > maxDepth {
		return false, s.fail("exceeded max depth")
	}
	s.space()
	if s.i < len(s.b) && s.b[s.i] == end {
		s.i++
		s.depth--
		return true, nil
	}
	return false, nil
}

// next consumes what follows a member or element: a comma (more to come)
// or the container's closing bracket.
func (s *scanner) next(end byte) (more bool, err error) {
	s.space()
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case ',':
			s.i++
			s.space()
			return true, nil
		case end:
			s.i++
			s.depth--
			return false, nil
		}
	}
	return false, s.fail("expected separator")
}

func (s *scanner) object(lo, hi int) error {
	if empty, err := s.enter('}'); empty || err != nil {
		return err
	}
	// A path gathers from an object through one key only, so whatever it has
	// gathered since the object began came from an earlier duplicate of that
	// key, which a later one replaces: each match first rewinds to the mark.
	for k := lo; k < hi; k++ {
		s.cur[k].mark = len(s.out[s.cur[k].path])
	}
	top := len(s.cur)
	for more := true; more; {
		if s.i >= len(s.b) || s.b[s.i] != '"' {
			return s.fail("expected object key")
		}
		start := s.i
		escaped, err := s.skipString()
		if err != nil {
			return err
		}
		if hi > lo {
			if err := s.matchKey(lo, hi, s.b[start:s.i], escaped); err != nil {
				return err
			}
		}
		s.space()
		if s.i >= len(s.b) || s.b[s.i] != ':' {
			return s.fail("expected colon")
		}
		s.i++
		s.space()
		if err := s.value(top, len(s.cur)); err != nil {
			return err
		}
		s.cur = s.cur[:top]
		if more, err = s.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// matchKey pushes the member's frame: the cursors of cur[lo:hi] waiting for
// exactly this key. The key literal is compared in place unless it needs
// decoding.
func (s *scanner) matchKey(lo, hi int, lit []byte, escaped bool) error {
	inner := lit[1 : len(lit)-1]
	var decoded string
	plain := !escaped && utf8.Valid(inner)
	if !plain {
		var ok bool
		if decoded, ok = unquote(lit, true); !ok {
			return s.fail("undecodable key")
		}
	}
	for k := lo; k < hi; k++ {
		c := s.cur[k]
		p := s.paths[c.path]
		if c.step == len(p) || c.keyed || p[c.step].Key == "" {
			continue
		}
		if want := p[c.step].Key; (plain && string(inner) == want) || (!plain && decoded == want) {
			s.out[c.path] = s.out[c.path][:c.mark]
			s.cur = append(s.cur, cursor{path: c.path, step: c.step, keyed: true})
		}
	}
	return nil
}

func (s *scanner) array(lo, hi int) error {
	if empty, err := s.enter(']'); empty || err != nil {
		return err
	}
	top := len(s.cur)
	for idx, more := 0, true; more; idx++ {
		for k := lo; k < hi; k++ {
			c := s.cur[k]
			p := s.paths[c.path]
			if c.step == len(p) || (p[c.step].Key != "" && !c.keyed) {
				continue
			}
			if st := p[c.step]; st.Wildcard || (st.HasIndex && st.Index == idx) {
				s.cur = append(s.cur, cursor{path: c.path, step: c.step + 1})
			}
		}
		if err := s.value(top, len(s.cur)); err != nil {
			return err
		}
		s.cur = s.cur[:top]
		var err error
		if more, err = s.next(']'); err != nil {
			return err
		}
	}
	return nil
}

// skipString validates the string literal at s.i and moves past it; escaped
// reports a backslash inside.
func (s *scanner) skipString() (escaped bool, err error) {
	for s.i++; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return escaped, nil
		case c < 0x20:
			return false, s.fail("control character in string")
		case c == '\\':
			escaped = true
			s.i++
			if s.i >= len(s.b) {
				return false, s.fail("unexpected end")
			}
			switch s.b[s.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if s.i+k >= len(s.b) || !isHex(s.b[s.i+k]) {
						return false, s.fail("bad \\u escape")
					}
				}
				s.i += 4
			default:
				return false, s.fail("bad escape")
			}
		}
	}
	return false, s.fail("unexpected end")
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// unquote decodes a validated string literal (quotes included). Anything
// but plain valid UTF-8 goes through encoding/json itself, so escapes,
// surrogate pairs and invalid bytes cannot decode differently from Decode.
func unquote(lit []byte, escaped bool) (string, bool) {
	if inner := lit[1 : len(lit)-1]; !escaped && utf8.Valid(inner) {
		return string(inner), true
	}
	var v string
	err := json.Unmarshal(lit, &v)
	return v, err == nil
}

// skipNumber validates the number at s.i and moves past it. risky reports a
// form that could exceed float64's range.
func (s *scanner) skipNumber() (risky bool, err error) {
	start := s.i
	digits := func() bool {
		from := s.i
		for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
			s.i++
		}
		return s.i > from
	}
	if s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if !digits() {
		return false, s.fail("bad number")
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !digits() {
			return false, s.fail("bad number")
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		risky = true
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !digits() {
			return false, s.fail("bad number")
		}
	}
	return risky || s.i-start > 300, nil
}
