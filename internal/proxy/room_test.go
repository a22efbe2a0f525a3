package proxy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"appx/internal/obs"
	"appx/internal/proxy/sched"
)

// Speculation must fit (DESIGN.md §5, §14): a prefetch still speculative at
// dispatch is dropped when its only room is an unread sibling's. The tests run
// on followLab's frozen clock, one worker and stub origin, and assert on what
// the origin sees. The app is list → store → menu: a list's stores are the
// children of a live transaction (depth 0, always fetched), their menus its
// grandchildren (depth 1, speculative). Stores are small, menus menuPad bytes.

const (
	roomStores = 12
	menuPad    = 8 << 10
	// roomByteCap holds the stores and three menus; the twelve menus of one
	// list total three times it.
	roomByteCap = roomStores * menuPad / 3
)

func roomBody(name, id string) string {
	switch {
	case id == "0":
		return `{}`
	case name == "list":
		ids := make([]string, roomStores)
		for i := range ids {
			ids[i] = fmt.Sprintf("%q", fmt.Sprintf("%s%d", id, i+1))
		}
		return `{"stores":[` + strings.Join(ids, ",") + `]}`
	case name == "store":
		return fmt.Sprintf(`{"menu":%q}`, id+"m")
	}
	return `{"pad":"` + strings.Repeat("m", menuPad) + `"}`
}

// newRoomLab is a followLab over list → store → menu with user A taught and
// the cache capped as tune says.
func newRoomLab(t *testing.T, tune func(*Options)) *followLab {
	t.Helper()
	l := newFollowLabWith(t, storefront[:2], roomBody, tune)
	l.teach("A", "store", "menu")
	return l
}

func byteCapped(o *Options) { o.Config.Cache.PerUserBytes = roomByteCap }

// menus returns the menu ids among arrivals, in order, the teaching id aside.
func menus(arrivals []string) []string {
	var out []string
	for _, a := range arrivals {
		if id, ok := strings.CutPrefix(a, "menu?"); ok && id != "0" {
			out = append(out, id)
		}
	}
	return out
}

func (l *followLab) noRoom() int64 { return l.p.statsV1().Policy.NoRoomSkips }

// checkFilled asserts what one list leaves behind under a cap that holds
// `fit` of its menus: the origin saw exactly the first fit menus, the rest
// were refused for want of room and counted, nothing stored was evicted, and
// every refused task gave its claim back.
func (l *followLab) checkFilled(list string, fit int) {
	l.t.Helper()
	var want []string
	for i := 1; i <= fit; i++ {
		want = append(want, fmt.Sprintf("%s%dm", list, i))
	}
	if got := menus(l.seen()); !reflect.DeepEqual(got, want) {
		l.t.Fatalf("origin saw menus %v, want %v: only what fits is fetched", got, want)
	}
	if got := l.noRoom(); got != int64(roomStores-fit) {
		l.t.Fatalf("no_room = %d, want %d", got, roomStores-fit)
	}
	cache := l.p.statsV1().Cache
	for id, cs := range cache.Signatures {
		if cs.Evicted != 0 {
			l.t.Fatalf("%s: %+v — speculation evicted what was stored", id, cs)
		}
	}
	if got := cache.Signatures["t:menu#0"].Stored; got != int64(fit) {
		l.t.Fatalf("%d menus stored, want %d", got, fit)
	}
	for i := fit + 1; i <= roomStores; i++ {
		key := labKey("menu", fmt.Sprintf("%s%dm", list, i))
		if l.p.keys.snapshot()[issueKey("A", key)].holder != nil {
			l.t.Fatalf("menu %s%dm was refused and still holds its claim", list, i)
		}
	}
	var text strings.Builder
	l.p.Registry().WritePrometheus(&text)
	if want := fmt.Sprintf(`appx_prefetch_skipped_total{reason="no_room"} %d`+"\n", roomStores-fit); !strings.Contains(text.String(), want) {
		l.t.Fatalf("metrics lack %q", want)
	}
}

// TestSpeculationStopsAtTheByteCap: a list whose menus total three times the
// user's byte cap. The parent fetched all twelve and kept the last three.
func TestSpeculationStopsAtTheByteCap(t *testing.T) {
	l := newRoomLab(t, byteCapped)
	l.getQueued("A", "list", "A")
	l.p.Drain()
	l.checkFilled("A", 3)
	if _, bytes := l.p.Cache().ScopeStats("A"); bytes > roomByteCap || bytes+menuPad <= roomByteCap {
		t.Fatalf("scope holds %d of %d bytes: want it full to within one menu", bytes, roomByteCap)
	}
}

// TestSpeculationStopsAtTheEntryCap is the same under the entry cap.
func TestSpeculationStopsAtTheEntryCap(t *testing.T) {
	l := newRoomLab(t, func(o *Options) { o.MaxCacheEntriesPerUser = roomStores + 3 })
	l.getQueued("A", "list", "A")
	l.p.Drain()
	l.checkFilled("A", 3)
}

// TestHitFetchesRefusedChildAtDepthZero: the client opens a store whose menu
// was refused. The hit re-derives the menu at depth 0, and what a client is one
// transaction from asking for is fetched whatever the scope holds: the oldest
// unread siblings make room.
func TestHitFetchesRefusedChildAtDepthZero(t *testing.T) {
	l := newRoomLab(t, byteCapped)
	l.getQueued("A", "list", "A")
	l.p.Drain()
	refused := l.noRoom()

	mark := len(l.seen())
	if out := l.get("A", "store", "A12"); out != obs.OutcomePrefetchHit {
		t.Fatalf("store A12: %v, want prefetch-hit", out)
	}
	l.p.Drain()
	if got := l.since(mark); !reflect.DeepEqual(got, []string{"menu?A12m"}) {
		t.Fatalf("the hit sent %v to the origin, want the refused menu", got)
	}
	if got := l.noRoom(); got != refused {
		t.Fatalf("no_room moved %d → %d: a depth-0 task was refused", refused, got)
	}
	var evicted, unread, bytes int64
	for _, cs := range l.p.statsV1().Cache.Signatures {
		evicted, unread, bytes = evicted+cs.Evicted, unread+cs.EvictedUnused, bytes+cs.EvictedUnusedBytes
	}
	if evicted == 0 || unread != evicted || bytes < menuPad {
		t.Fatalf("evicted %d (%d unread, %d bytes): want unread siblings, a menu's worth, pushed out", evicted, unread, bytes)
	}
	if out := l.get("A", "menu", "A12m"); out != obs.OutcomePrefetchHit {
		t.Fatalf("menu A12m after the store hit: %v, want prefetch-hit", out)
	}
}

// TestLaterListEvictsEarlierSpeculation: the cache does not freeze on stale
// speculation. A second list's menus descend from a later live transaction
// than what fills the scope, so they take the first list's unread entries'
// room — and stop where their own siblings' begins.
func TestLaterListEvictsEarlierSpeculation(t *testing.T) {
	l := newRoomLab(t, byteCapped)
	l.getQueued("A", "list", "A")
	l.p.Drain()
	l.checkFilled("A", 3)

	mark := len(l.seen())
	l.getQueued("A", "list", "B")
	l.p.Drain()
	if got, want := menus(l.since(mark)), []string{"B1m", "B2m", "B3m"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("second list: origin saw menus %v, want %v", got, want)
	}
	for _, id := range []string{"A1m", "A2m", "A3m"} {
		if e, _ := l.p.Cache().Peek("A", menuKey(id)); e != nil {
			t.Fatalf("menu %s of the first list is still resident", id)
		}
	}
	for _, id := range []string{"B1m", "B2m", "B3m"} {
		if e, _ := l.p.Cache().Peek("A", menuKey(id)); e == nil {
			t.Fatalf("menu %s of the second list is not resident", id)
		}
	}
}

// TestPromotedTaskIsNotRefused: a menu waits at depth 1 behind a scope that
// will be full when its turn comes. The client opens its store first; the
// demand promotes the queued task to depth 0 and it is fetched, while its
// siblings, still speculative, are refused.
func TestPromotedTaskIsNotRefused(t *testing.T) {
	l := newRoomLab(t, func(o *Options) { o.MaxCacheEntriesPerUser = roomStores + 1 })
	l.park(func(name, id string) bool { return name == "menu" })
	l.getQueued("A", "list", "A")
	waitFor(t, "the first menu to reach the origin", func() bool {
		s := l.seen()
		return len(s) > 0 && s[len(s)-1] == "menu?A1m"
	})
	if out := l.get("A", "store", "A12"); out != obs.OutcomePrefetchHit {
		t.Fatalf("store A12: %v, want prefetch-hit", out)
	}
	l.release()
	l.p.Drain()
	if got, want := menus(l.seen()), []string{"A1m", "A12m"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("origin saw menus %v, want %v", got, want)
	}
	if st := l.p.statsV1(); st.Sched.Promoted != 1 || st.Policy.NoRoomSkips != roomStores-2 {
		t.Fatalf("promoted %d, no_room %d: want 1 and %d", st.Sched.Promoted, st.Policy.NoRoomSkips, roomStores-2)
	}
}

// TestForegroundMissCommitsUnderQueuedClaim: the client asks for a store whose
// prefetch is still queued. Its own fetch used to cache nothing and the task
// fetched the same bytes again; now the capture is committed under the task's
// claim, marked served, and the task finds the key resident.
func TestForegroundMissCommitsUnderQueuedClaim(t *testing.T) {
	l := newFollowLab(t, storefront[:1], 0, storefrontBody(2, 0))
	l.teach("A", "store")
	busy := make(stall)
	l.p.sched.Submit(&sched.Task{Job: busy})
	l.get("A", "list", "A")
	if out := l.get("A", "store", "A1"); out != obs.OutcomeOrigin {
		t.Fatalf("store A1 while its prefetch is queued: %v, want origin", out)
	}
	close(busy)
	l.p.Drain()
	if got, want := l.seen()[1:], []string{"list?A", "store?A1", "store?A2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("origin saw %v, want %v: store A1 fetched once", got, want)
	}
	if out := l.get("A", "store", "A1"); out != obs.OutcomePrefetchHit {
		t.Fatalf("store A1 again: %v, want prefetch-hit", out)
	}
	snap := l.p.Stats().Snapshot().PerSig["t:store#0"]
	one := int64(len(storefrontBody(2, 0)("store", "A1")))
	if snap.Prefetches != 2 || snap.PrefetchedBytes != one {
		t.Fatalf("store prefetches %d, %d bytes: want 2, one of them zero-byte (%d)", snap.Prefetches, snap.PrefetchedBytes, one)
	}
}

// TestDataBudgetDropIsCounted: tasks queued before the data budget ran out are
// dropped at dispatch — with a counter and their claims released.
func TestDataBudgetDropIsCounted(t *testing.T) {
	l := newFollowLabWith(t, storefront[:1], storefrontBody(3, 0), func(o *Options) { o.Config.DataBudgetBytes = 1 })
	l.teach("A", "store")
	l.getQueued("A", "list", "A")
	l.p.Drain()
	if got, want := l.seen()[1:], []string{"list?A", "store?A1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("origin saw %v, want %v: the first prefetch spends the budget", got, want)
	}
	if got := l.p.statsV1().Policy.DataBudgetSkips; got != 2 {
		t.Fatalf("dataBudgetSkips = %d, want 2", got)
	}
	var text strings.Builder
	l.p.Registry().WritePrometheus(&text)
	if want := `appx_prefetch_skipped_total{reason="data_budget"} 2` + "\n"; !strings.Contains(text.String(), want) {
		t.Fatalf("metrics lack %q", want)
	}
	for _, id := range []string{"A2", "A3"} {
		if l.p.keys.snapshot()[issueKey("A", labKey("store", id))].holder != nil {
			t.Fatalf("store %s was dropped and still holds its claim", id)
		}
	}
}
