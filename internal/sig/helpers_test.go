package sig

import (
	"strings"

	"appx/internal/httpmsg"
)

// MatchesRequest reports whether a live request plausibly instantiates this
// signature: method equality plus a URI pattern match (the paper's learning
// target identification, §4.2: "the proxy performs regular expression
// matching on the URI of the incoming transaction"; a pattern's only
// expression is the unknown, so Capture's literal segments suffice).
func (s *Signature) MatchesRequest(r *httpmsg.Request) bool {
	if !strings.EqualFold(s.Method, r.Method) {
		return false
	}
	var buf [4]string
	_, ok := s.URI.Capture(r.Host+r.Path, buf[:0])
	return ok
}
