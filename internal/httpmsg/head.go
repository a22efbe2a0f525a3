package httpmsg

import (
	"fmt"
	"strings"
)

// CheckHead returns the error net/http's Transport gives, before writing a
// byte, for a request whose method, header names or header values it
// refuses to send. (*http.Request).Write itself would send them, with line
// breaks in values turned into spaces, so an origin client that writes
// with it checks first.
func (r *Request) CheckHead() error {
	if m := r.Method; m != "" && !validToken(m) {
		return fmt.Errorf("httpmsg: invalid method %q", m)
	}
	for _, f := range r.Header {
		if !validToken(f.Key) {
			return fmt.Errorf("httpmsg: invalid header field name %q", f.Key)
		}
		if !validHeaderValue(f.Value) {
			// The value stays out of the error: it may be a credential.
			return fmt.Errorf("httpmsg: invalid header field value for %q", f.Key)
		}
	}
	return nil
}

// validToken reports whether s is an RFC 7230 token: the rule for methods
// and header field names.
func validToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
			continue
		}
		if !strings.ContainsRune("!#$%&'*+-.^_`|~", rune(c)) {
			return false
		}
	}
	return true
}

// validHeaderValue reports whether v holds no control byte other than a
// horizontal tab (RFC 7230 field-content, obs-text allowed).
func validHeaderValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}
