package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// roomModel is what RoomFor's answers are checked against: each scope's
// resident entries as a plain map, kept in step with the store by reading back
// what every Put left resident.
type roomModel map[string]map[string]*Entry

func (m roomModel) usage(scope string) (entries int, bytes int64) {
	for key, e := range m[scope] {
		entries++
		bytes += size(key, e)
	}
	return
}

// sync drops what the store no longer holds of scope and returns it.
func (m roomModel) sync(s *Store, scope string) (gone []*Entry) {
	for key, e := range m[scope] {
		if got, _ := s.Peek(scope, key); got != e {
			gone = append(gone, e)
			delete(m[scope], key)
		}
	}
	return
}

// TestRoomForAgainstMapModel drives RoomFor beside random puts, reads and
// evictions under both scope caps and holds it to its promises: it never
// refuses what fits under the caps as they stand, and it admits exactly the
// Puts that evict no entry which no client was served and which descends from
// the same live transaction or a later one.
func TestRoomForAgainstMapModel(t *testing.T) {
	opts := Options{Shards: 4, MaxBytes: -1, PerScopeBytes: 20_000, MaxEntriesPerScope: 12}
	now := time.Unix(1_700_000_000, 0)
	s := testStore(opts, &now)
	exp := now.Add(time.Hour)
	costs := []time.Duration{0, 4 * time.Millisecond, 200 * time.Millisecond}
	model := roomModel{}
	rng := rand.New(rand.NewSource(20))
	var admittedFull, refused int
	for op := 0; op < 20000; op++ {
		scope := fmt.Sprintf("user-%d", rng.Intn(5))
		if model[scope] == nil {
			model[scope] = map[string]*Entry{}
		}
		switch r := rng.Intn(100); {
		case r < 25: // a Put nobody asked RoomFor about (depth 0, a refresh)
			key := fmt.Sprintf("k%d", rng.Intn(60))
			e := ent("sig", 10+rng.Intn(5000), exp)
			e.Cost, e.Root = costs[rng.Intn(len(costs))], uint64(rng.Intn(8))
			s.Put(scope, key, e)
			model[scope][key] = e
			model.sync(s, scope)
		case r < 70: // speculation: ask first
			key := fmt.Sprintf("g%d", op)
			e := ent("sig", 10+rng.Intn(5000), exp)
			e.Cost, e.Root = costs[rng.Intn(len(costs))], uint64(rng.Intn(8))
			sz := size(key, e)
			n, bytes := model.usage(scope)
			fits := n+1 <= opts.MaxEntriesPerScope && bytes+sz <= opts.PerScopeBytes
			ok := s.RoomFor(scope, sz, e.Root)
			if fits && !ok {
				t.Fatalf("op %d: RoomFor refused %d bytes in %s holding %d entries, %d bytes: under both caps", op, sz, scope, n, bytes)
			}
			if !fits {
				if ok {
					admittedFull++
				} else {
					refused++
				}
			}
			// Refused or not, store it — a task promoted to depth 0 would — and
			// see what the Put evicts: RoomFor said yes exactly when none of it
			// is an unread entry of the same transaction or a later one.
			s.Put(scope, key, e)
			model[scope][key] = e
			harm := false
			for _, v := range model.sync(s, scope) {
				harm = harm || (!v.used.Load() && v.Root >= e.Root)
			}
			if harm == ok {
				t.Fatalf("op %d: RoomFor(%s, %d, root %d) = %v, and the Put evicted an unread entry of that root or a later one: %v", op, scope, sz, e.Root, ok, harm)
			}
		case r < 95: // a client is served an entry
			for key := range model[scope] {
				if e, fresh := s.Get(scope, key); fresh {
					e.FirstUse()
				}
				break
			}
		default:
			s.DropScope(scope)
			delete(model, scope)
		}
	}
	if admittedFull < 100 || refused < 100 {
		t.Fatalf("stream admitted %d entries into a full scope and refused %d: one side unexercised", admittedFull, refused)
	}
}

// The shared scope is exempt from the caps, and a disabled cap caps nothing:
// both always have room.
func TestRoomForExemptions(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	exp := now.Add(time.Hour)
	capped := testStore(Options{Shards: 2, PerScopeBytes: 4_000, MaxEntriesPerScope: 3}, &now)
	open := testStore(Options{Shards: 2, MaxBytes: -1, PerScopeBytes: -1, MaxEntriesPerScope: -1}, &now)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		capped.Put(SharedScope, key, ent("sig", 1000, exp))
		capped.Put("u", key, ent("sig", 1000, exp))
		open.Put("u", key, ent("sig", 1000, exp))
	}
	if capped.RoomFor("u", 1000, 0) {
		t.Fatal("a full scope of unread root-0 entries has room for root-0 speculation")
	}
	if !capped.RoomFor(SharedScope, 1<<30, 0) {
		t.Fatal("the shared scope refused: it is exempt from the scope caps")
	}
	if !open.RoomFor("u", 1<<30, 0) {
		t.Fatal("a store with both scope caps disabled refused")
	}
	if !capped.RoomFor("nobody", 1<<30, 0) {
		t.Fatal("an empty scope refused: a Put never evicts the entry it stores")
	}
}

// RoomFor replays every eviction the Put would make, not the first alone: a
// later transaction may push out as many of an earlier one's unread entries,
// and of anyone's read ones, as it needs — up to the first entry that is
// neither.
func TestRoomForReplaysEveryEviction(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	exp := now.Add(time.Hour)
	s := testStore(Options{Shards: 1, PerScopeBytes: 10_000, MaxEntriesPerScope: -1}, &now)
	for i, root := range []uint64{1, 1, 3, 1, 1} {
		e := ent("sig", 1600, exp)
		e.Root = root
		s.Put("u", fmt.Sprintf("k%d", i), e)
	}
	_, held := s.ScopeStats("u")
	free, one := 10_000-held, held/5
	if !s.RoomFor("u", free, 1) || s.RoomFor("u", free+1, 1) {
		t.Fatal("root 1 over an unread head of root 1: want exactly the free room")
	}
	if !s.RoomFor("u", free+2*one, 2) {
		t.Fatal("root 2 refused the room of two unread entries of root 1")
	}
	if s.RoomFor("u", free+2*one+1, 2) {
		t.Fatal("root 2 admitted over the unread entry of root 3 that is third to go")
	}
	if e, _ := s.Get("u", "k2"); !e.FirstUse() {
		t.Fatal("k2 was already marked served")
	}
	// k2 has been served (and, touched, is now last to go): nothing in the
	// scope is due after root 2, so all of it may go — a Put never evicts what
	// it stores, however large.
	if !s.RoomFor("u", 1<<30, 2) {
		t.Fatal("root 2 refused a scope of earlier and served entries")
	}
	if s.RoomFor("u", free+1, 1) {
		t.Fatal("root 1 admitted over the unread head of root 1")
	}
}
