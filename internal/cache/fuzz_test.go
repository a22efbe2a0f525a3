package cache

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"testing"
	"time"

	"appx/internal/httpmsg"
)

// fuzzBodies are what FuzzStore stores: two under the floor, two of one length
// with different bytes (a forced hash collides them), and repeats of each in
// distinct slices, since every Put fills a fresh one.
var fuzzBodies = []struct {
	n int
	p byte
}{
	{100, 'a'}, {shareFloor - 1, 'a'}, {shareFloor, 'a'}, {shareFloor, 'b'}, {5000, 'a'}, {5000, 'c'},
}

// fuzzEntry is the reference model's view of one resident entry. It knows
// nothing of sharing: each entry owns its bytes and is charged them.
type fuzzEntry struct {
	e       *Entry
	body    []byte
	size    int64
	root    uint64
	served  bool
	expires time.Time
}

// FuzzStore decodes its input into Put, RoomFor-then-Put, Get, DropScope,
// SweepExpired and clock steps over a few scopes, keys, roots and bodies, and
// after every step holds the store to a map model:
//   - Get returns the bytes last Put under the key, or nothing;
//   - ResidentBytes and ScopeStats are the model's logical sums;
//   - an entry leaves only the way the step allows: a Put evicts within its
//     own user scope and never what it stored (anything under the global
//     budget), a Put RoomFor admitted evicts only served entries or ones of an
//     earlier root, Get and SweepExpired remove only expired entries,
//     DropScope only its scope;
//   - the body table holds one reference per resident entry per shared body
//     (checkBodies), so it is empty when the store is.
//
// The first byte picks the shard count, whether the global budget is on, and
// whether every body hashes to its length, so bodies of one length collide.
func FuzzStore(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		in := make([]byte, 1+3*60)
		x := seed * 0x9e3779b97f4a7c15
		for i := range in {
			x = x*6364136223846793005 + 1442695040888963407
			in[i] = byte(x >> 56)
		}
		in[0] = byte(seed)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		cfg := in[0]
		budget := cfg&4 != 0
		opts := Options{Shards: 1 + int(cfg&3), MaxBytes: -1, PerScopeBytes: 12_000, MaxEntriesPerScope: 3}
		if budget {
			opts.MaxBytes = 24_000
		}
		now := time.Unix(1_700_000_000, 0)
		s := testStore(opts, &now)
		if cfg&8 != 0 {
			s.bodies.hash = func(_ maphash.Seed, b []byte) uint64 { return uint64(len(b)) }
		}
		scopes := []string{"u0", "u1", "u2", SharedScope}
		model := map[string]map[string]*fuzzEntry{}
		for _, sc := range scopes {
			model[sc] = map[string]*fuzzEntry{}
		}
		for in = in[1:]; len(in) >= 3; in = in[3:] {
			op, a, b := in[0]%6, in[1], in[2]
			scope, key := scopes[a&3], fmt.Sprintf("k%d", a>>2&3)
			var mayGo func(scope, key string, x *fuzzEntry) bool
			switch op {
			case 0, 1: // Put; op 1 asks RoomFor first
				fb := fuzzBodies[int(b)%len(fuzzBodies)]
				root := uint64(b >> 4)
				e := &Entry{Resp: &httpmsg.Response{Status: 200, Body: fill(fb.n, fb.p)}, SigID: "s",
					Expires: now.Add(time.Duration(1+a>>4&3) * time.Minute), Root: root}
				fresh := &fuzzEntry{e: e, body: fill(fb.n, fb.p), size: size(key, e), root: root, expires: e.Expires}
				room := op == 1 && s.RoomFor(scope, fresh.size, root)
				s.Put(scope, key, e)
				model[scope][key] = fresh
				mayGo = func(sc, _ string, x *fuzzEntry) bool {
					switch {
					case budget:
						return true
					case x == fresh || sc != scope || scope == SharedScope:
						return false
					case room:
						return x.served || x.root < root
					}
					return true
				}
			case 2:
				e, fresh := s.Get(scope, key)
				x := model[scope][key]
				switch {
				case (e == nil) != (x == nil):
					t.Fatalf("Get %s/%s = %v, model holds %v", scope, key, e != nil, x != nil)
				case e != nil && !bytes.Equal(e.Resp.Body, x.body):
					t.Fatalf("Get %s/%s returns bytes other than those last Put", scope, key)
				case e != nil && fresh == !now.Before(x.expires):
					t.Fatalf("Get %s/%s fresh=%v at %v, expires %v", scope, key, fresh, now, x.expires)
				case fresh:
					e.FirstUse()
					x.served = true
				}
				mayGo = func(sc, k string, x *fuzzEntry) bool {
					return sc == scope && k == key && !now.Before(x.expires)
				}
			case 3:
				s.DropScope(scope)
				mayGo = func(sc, _ string, _ *fuzzEntry) bool { return sc == scope }
			case 4:
				s.SweepExpired()
				mayGo = func(_, _ string, x *fuzzEntry) bool { return !now.Before(x.expires) }
			case 5:
				now = now.Add(time.Duration(b) * time.Second)
				mayGo = func(string, string, *fuzzEntry) bool { return false }
			}

			var total int64
			var count int
			for _, sc := range scopes {
				var n int
				var sum int64
				for k, x := range model[sc] {
					if !holds(s, sc, k, x.e) {
						if !mayGo(sc, k, x) {
							t.Fatalf("op %d on %s/%s took %s/%s (root %d, served %v) out of the store",
								op, scope, key, sc, k, x.root, x.served)
						}
						delete(model[sc], k)
						continue
					}
					n++
					sum += x.size
				}
				if gotN, gotB := s.ScopeStats(sc); gotN != n || gotB != sum {
					t.Fatalf("ScopeStats(%s) = %d entries, %d bytes; model %d, %d", sc, gotN, gotB, n, sum)
				}
				total += sum
				count += n
			}
			if m := s.Metrics(); m.ResidentBytes != total || m.Entries != count {
				t.Fatalf("store holds %d entries in %d bytes; model %d in %d", m.Entries, m.ResidentBytes, count, total)
			}
			checkBodies(t, s)
		}
	})
}

// holds reports whether scope/key is resident as p, expired or not.
func holds(s *Store, scope, key string, p *Entry) bool {
	sh := s.shardOf(scope, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	en := sh.lookupLocked(scope, key)
	return en != nil && en.payload == p
}
