package cache

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// shareFloor is the smallest body the store shares. A table slot — the
// record, its map slot and its hash — costs about 100 B, so at 2 KiB a slot
// is at most 5 % of the smallest body it can save a copy of. Below the floor
// a slot costs a growing share of what it saves, and the bodies there are few
// bytes in all.
const shareFloor = 2 << 10

// body is one distinct response body the store holds, and the number of
// resident entries that reference it.
type body struct {
	b    []byte
	hash uint64
	refs int
	next *body // the next held body with the same hash
}

// bodyTable holds each distinct complete body of shareFloor bytes or more
// once, however many entries — of however many users — store it. Every entry
// holding a body keeps one reference and gives it back when it leaves the
// store; the last one out frees the body. A shard lock may be held when the
// table lock is taken, never the other way round.
type bodyTable struct {
	seed maphash.Seed
	// hash is maphash.Bytes under seed; tests replace it to force collisions.
	hash func(maphash.Seed, []byte) uint64

	mu     sync.Mutex
	byHash map[uint64]*body
	count  int
	bytes  int64
}

func newBodyTable() *bodyTable {
	return &bodyTable{seed: maphash.MakeSeed(), hash: maphash.Bytes, byHash: map[uint64]*body{}}
}

// acquire takes a reference to the held body equal to b, holding b itself
// when there is none. The caller holds no shard lock: hashing runs before the
// table lock, the byte comparison under it. Bodies that only share a hash stay
// apart.
func (t *bodyTable) acquire(b []byte) *body {
	h := t.hash(t.seed, b)
	t.mu.Lock()
	defer t.mu.Unlock()
	head := t.byHash[h]
	for x := head; x != nil; x = x.next {
		if bytes.Equal(x.b, b) {
			x.refs++
			return x
		}
	}
	x := &body{b: b, hash: h, refs: 1, next: head}
	t.byHash[h] = x
	t.count++
	t.bytes += int64(len(b))
	return x
}

// release gives back one reference; the body leaves the table with its last.
func (t *bodyTable) release(x *body) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if x.refs--; x.refs > 0 {
		return
	}
	if head := t.byHash[x.hash]; head == x {
		if x.next == nil {
			delete(t.byHash, x.hash)
		} else {
			t.byHash[x.hash] = x.next
		}
	} else {
		for p := head; p != nil; p = p.next {
			if p.next == x {
				p.next = x.next
				break
			}
		}
	}
	t.count--
	t.bytes -= int64(len(x.b))
}

// stats reports the distinct bodies held and their bytes.
func (t *bodyTable) stats() (count int, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count, t.bytes
}
