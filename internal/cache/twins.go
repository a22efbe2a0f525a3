package cache

import (
	"net/http"
	"strings"
	"sync"

	"appx/internal/httpmsg"
)

// twinIndex lists, per canonical key, the user-scope entries that another
// user's fetch of the same request may revalidate against: complete 200s
// carrying a strong ETag. Each key's entries form a list, newest last, linked
// through the entries themselves, so adding, removing and looking up are
// O(1). Stores whose origins send no validators index nothing. A shard lock
// may be held when the index lock is taken, never the other way round, and
// the index lock is never held while the body table's is taken.
type twinIndex struct {
	mu    sync.Mutex
	byKey map[string]*entry // the key's newest indexed entry
}

// add indexes en as its key's newest twin (shard lock held).
func (t *twinIndex) add(en *entry) {
	t.mu.Lock()
	if tail := t.byKey[en.key]; tail != nil {
		tail.twinNext, en.twinPrev = en, tail
	}
	t.byKey[en.key] = en
	t.mu.Unlock()
}

// remove unlinks an indexed entry (shard lock held).
func (t *twinIndex) remove(en *entry) {
	t.mu.Lock()
	if en.twinNext != nil {
		en.twinNext.twinPrev = en.twinPrev
	} else if en.twinPrev != nil {
		t.byKey[en.key] = en.twinPrev
	} else {
		delete(t.byKey, en.key)
	}
	if en.twinPrev != nil {
		en.twinPrev.twinNext = en.twinNext
	}
	en.twinPrev, en.twinNext = nil, nil
	t.mu.Unlock()
}

// twinProbe is how many of a key's newest twins a lookup looks at: one scope
// holds at most one entry per key, so two always reach another user's when
// there is one, and a newest twin that has expired means the older ones
// (stored no later, under one signature's expiry) have too.
const twinProbe = 2

// Twin returns a fresh complete 200 that a user scope other than scope holds
// under key, with its strong ETag, for the caller to revalidate its own
// request against; resp is nil when no scope holds one. It takes no shard
// lock and changes nothing: no counter, no recency. The response is the
// stored one and read-only, and it stays valid after its entry leaves the
// store.
func (s *Store) Twin(scope, key string) (etag string, resp *httpmsg.Response) {
	now := s.opts.Now()
	s.twins.mu.Lock()
	defer s.twins.mu.Unlock()
	en := s.twins.byKey[key]
	for i := 0; en != nil && i < twinProbe; i, en = i+1, en.twinPrev {
		if en.sc.name != scope && now.Before(en.payload.Expires) {
			return en.etag, en.payload.Resp
		}
	}
	return "", nil
}

// strongETag returns the response's ETag when it is a strong entity tag —
// a quoted string without the W/ prefix (RFC 9110 §8.8.3) — and "" otherwise.
func strongETag(r *httpmsg.Response) string {
	tag, _ := r.GetHeader("ETag")
	if len(tag) < 2 || tag[0] != '"' || tag[len(tag)-1] != '"' || strings.IndexByte(tag[1:len(tag)-1], '"') >= 0 {
		return ""
	}
	return tag
}

// twinTag is the ETag under which a user-scope entry is indexed as a twin,
// "" for an entry that is not one: shared-scope entries, anything but a
// complete 200, and responses without a strong ETag.
func twinTag(scope string, p *Entry) string {
	r := p.Resp
	if scope == SharedScope || r == nil || r.Status != http.StatusOK || !r.BodyComplete() {
		return ""
	}
	return strongETag(r)
}
