package proxy

import (
	"strconv"
	"sync"

	"appx/internal/cache"
	"appx/internal/stream"
)

// keyTable holds one record per issue key in use (DESIGN.md §15). Every use
// of a key — claim, dispatch, open, settle, release — is one transition under
// its one lock, which nests a spool's lock to take a reader and nothing else:
// callers peek the store before a claim and promote a task after it. An owner
// settles its flight before it discards the spool, so a reader taken under the
// lock never meets a released spool.
type keyTable struct {
	mu    sync.Mutex
	keys  map[string]keyState // deleted once it has neither claim nor flight
	spool func() *stream.Spool
}

// keyState is one key's record: the claim's holder and whether it still waits
// in the scheduler, and the live origin fetch.
type keyState struct {
	holder *prefetch
	queued bool
	fl     *flight
}

// issueKey names a cache slot in the key table, and on the cluster ring for a
// shared one. The scope's kind is part of it, and a user scope's length, so
// neither a user and the shared scope nor ("a", "b\x00c") and ("a\x00b", "c")
// collide.
func issueKey(scope, key string) string {
	if scope == cache.SharedScope {
		return "s\x00" + key
	}
	return "u" + strconv.Itoa(len(scope)) + "\x00" + scope + key
}

// claim makes pf the key's holder, queued until its dispatch if queued is set.
// It fails while another holder has the key, naming that holder when it is
// still queued, for the caller to promote.
func (t *keyTable) claim(ikey string, pf *prefetch, queued bool) (ok bool, waiting *prefetch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := t.keys[ikey]
	if ks.holder != nil {
		if ks.queued {
			waiting = ks.holder
		}
		return false, waiting
	}
	ks.holder, ks.queued = pf, queued
	t.keys[ikey] = ks
	return true, nil
}

// dispatch marks the holder pf as taken by a worker and returns the key's
// live flight, if any, with a reader from offset 0 (nil once the body has slid
// past it).
func (t *keyTable) dispatch(ikey string, pf *prefetch) (*flight, *stream.Reader) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ks, ok := t.keys[ikey]
	if !ok || ks.holder != pf {
		return nil, nil
	}
	ks.queued = false
	t.keys[ikey] = ks
	if ks.fl == nil {
		return nil, nil
	}
	rd, _ := ks.fl.sp.ReaderAt(0) // nil once an over-cap body has slid past 0
	return ks.fl, rd
}

// open returns the key's live flight as dispatch does or, with none live,
// opens one the caller then owns: it fetches, publishes, pumps and settles.
func (t *keyTable) open(ikey string) (fl *flight, rd *stream.Reader, owner bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := t.keys[ikey]
	if ks.fl != nil {
		rd, _ := ks.fl.sp.ReaderAt(0)
		return ks.fl, rd, false
	}
	ks.fl = &flight{sp: t.spool(), ready: make(chan struct{})}
	t.keys[ikey] = ks
	return ks.fl, nil, true
}

// settle removes the owner's flight fl and names the holder still queued on
// the key, if any: its claim stands, and no worker has adopted fl.
func (t *keyTable) settle(ikey string, fl *flight) (waiting *prefetch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ks, ok := t.keys[ikey]; ok && ks.fl == fl {
		ks.fl = nil
		t.setLocked(ikey, ks)
		if ks.queued {
			waiting = ks.holder
		}
	}
	return waiting
}

// release gives pf's claim back; a no-op unless pf holds it.
func (t *keyTable) release(ikey string, pf *prefetch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ks, ok := t.keys[ikey]; ok && ks.holder == pf {
		ks.holder, ks.queued = nil, false
		t.setLocked(ikey, ks)
	}
}

// setLocked stores ks, or deletes a record that holds nothing (t.mu held).
func (t *keyTable) setLocked(ikey string, ks keyState) {
	if ks.holder == nil && ks.fl == nil {
		delete(t.keys, ikey)
	} else {
		t.keys[ikey] = ks
	}
}
