package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"appx/internal/cache"
	"appx/internal/httpmsg"
	"appx/internal/obs"
	"appx/internal/proxy/sched"
	"appx/internal/stream"
)

// snapshot copies the table's records: what the tests look a key up in.
func (t *keyTable) snapshot() map[string]keyState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]keyState, len(t.keys))
	for k, ks := range t.keys {
		out[k] = ks
	}
	return out
}

func testKeyTable() (*keyTable, *stream.Pool) {
	pool := stream.NewPool(64)
	return &keyTable{keys: map[string]keyState{}, spool: func() *stream.Spool { return stream.NewSpool(pool, 1<<10, nil) }}, pool
}

// TestClaimSingleflight: one holder per key at a time; a release lets the
// next claim in.
func TestClaimSingleflight(t *testing.T) {
	kt, _ := testKeyTable()
	k := issueKey(cache.SharedScope, "k")
	a, b := new(prefetch), new(prefetch)
	if ok, _ := kt.claim(k, a, true); !ok {
		t.Fatal("first claim refused")
	}
	if ok, waiting := kt.claim(k, b, true); ok || waiting != a {
		t.Fatalf("second claim: ok %v, waiting %p; want refused, naming the queued holder %p", ok, waiting, a)
	}
	// Only the holder releases.
	kt.release(k, b)
	if ok, _ := kt.claim(k, b, true); ok {
		t.Fatal("a release by someone else freed the claim")
	}
	// A failed prefetch releases the claim for immediate retry.
	kt.release(k, a)
	if ok, _ := kt.claim(k, b, false); !ok {
		t.Fatal("claim refused after release")
	}
	// A holder that is not queued (a peer fill) is nobody's to promote.
	if ok, waiting := kt.claim(k, a, true); ok || waiting != nil {
		t.Fatalf("claim over an unqueued holder: ok %v, waiting %p", ok, waiting)
	}
	kt.release(k, b)
	if n := len(kt.snapshot()); n != 0 {
		t.Fatalf("%d records left with no claim and no flight", n)
	}
}

// The issue key must include the scope *kind*: under a plain scope+NUL+key
// concatenation these pairs collided, so one claim starved the other's
// singleflight.
func TestClaimScopeKindDisjoint(t *testing.T) {
	kt, _ := testKeyTable()
	claim := func(scope, key string) bool {
		ok, _ := kt.claim(issueKey(scope, key), new(prefetch), false)
		return ok
	}
	// Structural ambiguity of raw concatenation: ("a", "b\x00c") vs
	// ("a\x00b", "c") serialize identically without a length prefix.
	if !claim("a", "b\x00c") {
		t.Fatal("first claim refused")
	}
	if !claim("a\x00b", "c") {
		t.Fatal(`claim ("a\x00b", "c") collided with ("a", "b\x00c")`)
	}
	// Shared vs user scope of the same canonical key must be independent
	// flights — the cluster peer-fill key is issueKey(SharedScope, key).
	if !claim(cache.SharedScope, "ckey") {
		t.Fatal("shared claim refused")
	}
	if !claim("some-user", "ckey") {
		t.Fatal("user claim collided with shared claim of the same key")
	}
	if claim(cache.SharedScope, "ckey") {
		t.Fatal("duplicate shared claim admitted")
	}
	// Releasing the user's claim releases exactly that one.
	kt.release(issueKey("some-user", "ckey"), kt.snapshot()[issueKey("some-user", "ckey")].holder)
	if !claim("some-user", "ckey") {
		t.Fatal("release did not free the user's claim")
	}
	if claim(cache.SharedScope, "ckey") {
		t.Fatal("releasing a user claim released the shared claim")
	}
}

// TestSettleNamesQueuedHolder: the settle transition names the holder exactly
// while it waits — claimed, not yet dispatched — never once a worker has it or
// after it gave its claim back, and never a holder that was not queued.
func TestSettleNamesQueuedHolder(t *testing.T) {
	kt, pool := testKeyTable()
	k := issueKey("A", "k")
	settle := func() *prefetch {
		fl, _, owner := kt.open(k)
		if !owner {
			t.Fatal("a flight was already live")
		}
		fl.sp.CloseWriter(nil)
		waiting := kt.settle(k, fl)
		fl.sp.Discard()
		return waiting
	}
	if w := settle(); w != nil {
		t.Fatal("settle named a holder nobody claimed")
	}
	pf := &prefetch{task: sched.Task{Class: sched.ClassDeep}}
	kt.claim(k, pf, true)
	if w := settle(); w != pf || w.task.Class != sched.ClassDeep {
		t.Fatalf("settle = %p for a waiting deep holder %p", w, pf)
	}
	kt.dispatch(k, pf)
	if w := settle(); w != nil {
		t.Fatal("settle still names a holder a worker has")
	}
	kt.release(k, pf)
	if ok, _ := kt.claim(k, pf, false); !ok || settle() != nil {
		t.Fatal("settle named a holder that was not queued")
	}
	kt.release(k, pf)
	if n := len(kt.snapshot()); n != 0 || pool.Outstanding() != 0 {
		t.Fatalf("%d records, %d chunks left", n, pool.Outstanding())
	}
}

// modelKey is the map model of one issue key: what the table must hold, and
// the entry the store holds for it (nil when none).
type modelKey struct {
	holder   *prefetch
	queued   bool
	fl       *flight
	resident []byte
}

// reading is a holder or a client with a reader on a flight it does not own.
type reading struct {
	k  string
	pf *prefetch // nil for a foreground client
	fl *flight
	rd *stream.Reader
}

// owning is a flight's owner: a foreground miss (pf nil) or a worker.
type owning struct {
	k  string
	pf *prefetch
	fl *flight
}

// TestKeyTableAgainstModel drives the key table through one seeded random
// stream of issue (with promotion of a queued holder), foreground miss,
// attach, dispatch, room refusal, panic, fetch error, commit, entry expiry
// and eviction, in the order the proxy's paths take its transitions, against
// a map model. After every step the table holds exactly the model's records;
// an owner is only ever made while no flight is live, so no key is fetched
// twice at once; the store only ever holds a complete capture of the
// origin's body, so nothing uncommitted is served; and once every actor has
// finished, no record and no chunk is left.
func TestKeyTableAgainstModel(t *testing.T) {
	kt, pool := testKeyTable()
	rng := rand.New(rand.NewSource(11))
	const nkeys = 6
	keys := make([]string, nkeys)
	body := map[string][]byte{}
	for i := range keys {
		keys[i] = issueKey("A", fmt.Sprintf("k%d", i))
		body[keys[i]] = bytes.Repeat([]byte(fmt.Sprintf("<%d>", i)), 40+20*i)
	}
	model := map[string]*modelKey{}
	for _, k := range keys {
		model[k] = &modelKey{}
	}
	var queued, dispatched []*prefetch
	var readers []reading
	var owners []owning
	pick := func(n int) int { return rng.Intn(n) }
	removePf := func(s []*prefetch, i int) []*prefetch { return append(s[:i], s[i+1:]...) }
	counts := map[string]int{}

	// The steps. Each reports whether it applied.
	release := func(pf *prefetch, k string) {
		kt.release(k, pf)
		model[k].holder, model[k].queued = nil, false
	}
	settle := func(o owning) {
		var want *prefetch
		if m := model[o.k]; m.queued {
			want = m.holder
		}
		if got := kt.settle(o.k, o.fl); got != want {
			t.Fatalf("settle named %p, want %p", got, want)
		}
		model[o.k].fl = nil
	}
	commit := func(k string, got []byte) {
		if !bytes.Equal(got, body[k]) {
			t.Fatalf("commit of %q: %d bytes that are not the origin's", k, len(got))
		}
		model[k].resident = got
	}
	open := func(k string, pf *prefetch) {
		fl, rd, owner := kt.open(k)
		m := model[k]
		if owner != (m.fl == nil) || (!owner && fl != m.fl) {
			t.Fatalf("open of %q: owner %v with a live flight %v", k, owner, m.fl != nil)
		}
		if owner {
			m.fl = fl
			owners = append(owners, owning{k, pf, fl})
			return
		}
		if rd == nil {
			t.Fatalf("no reader on the live flight of %q", k)
		}
		readers = append(readers, reading{k, pf, fl, rd})
	}
	steps := []struct {
		name string
		run  func() bool
	}{
		{"issue", func() bool {
			k := keys[pick(nkeys)]
			m := model[k]
			if m.resident != nil {
				return false // maybePrefetch peeks the store first
			}
			pf := new(prefetch)
			ok, waiting := kt.claim(k, pf, true)
			if ok != (m.holder == nil) {
				t.Fatalf("claim of %q: ok %v with holder %p", k, ok, m.holder)
			}
			if !ok {
				if want := map[bool]*prefetch{true: m.holder}[m.queued]; waiting != want {
					t.Fatalf("refused claim of %q named %p to promote, want %p", k, waiting, want)
				}
				if waiting != nil {
					counts["promote"]++
				}
				return true
			}
			m.holder, m.queued = pf, true
			pf.ikey = k
			queued = append(queued, pf)
			return true
		}},
		{"foreground miss", func() bool {
			k := keys[pick(nkeys)]
			if r := model[k].resident; r != nil {
				// A hit: served from the store, never from the table.
				if !bytes.Equal(r, body[k]) {
					t.Fatalf("hit on %q served bytes that are not the origin's", k)
				}
				return true
			}
			if model[k].fl != nil {
				counts["attach"]++
			}
			open(k, nil)
			return true
		}},
		{"dispatch", func() bool {
			if len(queued) == 0 {
				return false
			}
			i := pick(len(queued))
			pf := queued[i]
			queued = removePf(queued, i)
			m := model[pf.ikey]
			fl, rd := kt.dispatch(pf.ikey, pf)
			m.queued = false
			if fl != m.fl || (fl != nil && rd == nil) {
				t.Fatalf("dispatch of %q: flight %p reader %v, model flight %p", pf.ikey, fl, rd != nil, m.fl)
			}
			switch {
			case fl != nil:
				readers = append(readers, reading{pf.ikey, pf, fl, rd})
			case m.resident != nil:
				// Committed under the claim while queued: a zero-byte prefetch.
				release(pf, pf.ikey)
			default:
				dispatched = append(dispatched, pf)
			}
			return true
		}},
		{"room refusal", func() bool {
			if len(dispatched) == 0 {
				return false
			}
			i := pick(len(dispatched))
			release(dispatched[i], dispatched[i].ikey)
			dispatched = removePf(dispatched, i)
			return true
		}},
		{"panic", func() bool {
			// A worker panics before it opens a flight, or while it adopts one:
			// its reader is closed by adoptFlight's defer, its claim by OnPanic.
			if i := pick(2); i == 0 && len(dispatched) > 0 {
				j := pick(len(dispatched))
				release(dispatched[j], dispatched[j].ikey)
				dispatched = removePf(dispatched, j)
				return true
			}
			for i, r := range readers {
				if r.pf != nil {
					r.rd.Close()
					release(r.pf, r.k)
					readers = append(readers[:i], readers[i+1:]...)
					return true
				}
			}
			return false
		}},
		{"open", func() bool {
			if len(dispatched) == 0 {
				return false
			}
			i := pick(len(dispatched))
			pf := dispatched[i]
			dispatched = removePf(dispatched, i)
			open(pf.ikey, pf)
			return true
		}},
		{"fetch error", func() bool {
			if len(owners) == 0 {
				return false
			}
			i := pick(len(owners))
			o := owners[i]
			owners = append(owners[:i], owners[i+1:]...)
			// failFlight's order: the table forgets the flight, then readers
			// see the error.
			settle(o)
			o.fl.err = errors.New("origin down")
			close(o.fl.ready)
			o.fl.sp.CloseWriter(o.fl.err)
			o.fl.sp.Discard()
			if o.pf != nil {
				release(o.pf, o.k)
			}
			return true
		}},
		{"commit", func() bool {
			if len(owners) == 0 {
				return false
			}
			i := pick(len(owners))
			o := owners[i]
			owners = append(owners[:i], owners[i+1:]...)
			o.fl.status = 200
			close(o.fl.ready)
			o.fl.sp.Append(body[o.k])
			o.fl.sp.CloseWriter(nil)
			waiting := model[o.k].queued
			settle(o)
			got, ok := o.fl.sp.Bytes()
			o.fl.sp.Discard()
			if !ok {
				t.Fatalf("owner of %q has no capture", o.k)
			}
			switch {
			case o.pf != nil: // commit, Put, release
				commit(o.k, got)
				release(o.pf, o.k)
			case waiting: // a foreground miss commits under the queued claim
				commit(o.k, got)
			}
			return true
		}},
		{"reader done", func() bool {
			for i, r := range readers {
				if !r.fl.sp.Done() {
					continue
				}
				readers = append(readers[:i], readers[i+1:]...)
				got, err := io.ReadAll(r.rd)
				// An adopting worker takes the capture its reader pinned, then
				// lets go of the reader (adoptFlight).
				captured, ok := r.fl.sp.Bytes()
				r.rd.Close()
				if r.fl.err == nil && (err != nil || !bytes.Equal(got, body[r.k])) {
					t.Fatalf("reader of %q read %d bytes, %v", r.k, len(got), err)
				}
				if r.pf == nil {
					return true
				}
				if ok {
					commit(r.k, captured)
				} else if r.fl.err == nil {
					t.Fatalf("adopter of %q lost the capture it pinned", r.k)
				}
				release(r.pf, r.k)
				return true
			}
			return false
		}},
		{"entry expiry", func() bool {
			k := keys[pick(nkeys)]
			model[k].resident = nil
			return true
		}},
		{"eviction", func() bool {
			k := keys[pick(nkeys)]
			model[k].resident = nil
			return true
		}},
	}
	weights := []int{20, 14, 14, 3, 2, 8, 3, 10, 12, 2, 2}
	total := 0
	for _, w := range weights {
		total += w
	}
	check := func(step string) {
		snap := kt.snapshot()
		for _, k := range keys {
			m := model[k]
			ks, held := snap[k]
			want := keyState{holder: m.holder, queued: m.queued, fl: m.fl}
			if held != (m.holder != nil || m.fl != nil) || ks != want {
				t.Fatalf("after %s: %q holds %+v (present %v), model %+v", step, k, ks, held, want)
			}
		}
		if len(snap) > nkeys {
			t.Fatalf("after %s: %d records for %d keys", step, len(snap), nkeys)
		}
	}
	for applied := 0; applied < 20000; {
		r := pick(total)
		i := 0
		for ; r >= weights[i]; i++ {
			r -= weights[i]
		}
		if steps[i].run() {
			applied++
			counts[steps[i].name]++
			check(steps[i].name)
		}
	}
	for _, s := range steps {
		if counts[s.name] == 0 {
			t.Fatalf("the stream never took %q: %v", s.name, counts)
		}
	}
	// Quiesce: every actor finishes, only the finishing steps run.
	finishing := []string{"dispatch", "open", "commit", "reader done"}
	for len(queued)+len(dispatched)+len(readers)+len(owners) > 0 {
		for _, s := range steps {
			for _, name := range finishing {
				if s.name == name && s.run() {
					check(s.name)
				}
			}
		}
	}
	if n := len(kt.snapshot()); n != 0 {
		t.Fatalf("%d records left once every actor finished", n)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d chunks outstanding", n)
	}
	t.Logf("steps: %v", counts)
}

// TestKeyLifecycleStress runs foreground requests and the fan-out they cause
// on a real proxy over a small key space — a list names four of eight items,
// every user-agnostic, so every user and every prefetch of an item meet on one
// shared key — with an origin that fails every seventh fetch. Under -race it
// is the key table's concurrency test: the origin never sees two fetches of
// one key at once, every response served with 200 carries the origin's bytes
// for its key, and once the proxy is quiescent no record and no chunk is left.
func TestKeyLifecycleStress(t *testing.T) {
	const users, rounds, items = 4, 60, 8
	g := followGraph([]edge{{"list", "item", "items[*]"}})
	body := func(name, id string) string {
		if name == "list" && id != "0" {
			n, _ := strconv.Atoi(id)
			ids := make([]string, 4)
			for i := range ids {
				ids[i] = fmt.Sprintf("%q", fmt.Sprint((n+i)%items))
			}
			return `{"items":[` + strings.Join(ids, ",") + `]}`
		}
		return fmt.Sprintf(`{"%s":%q,"pad":%q}`, name, id, strings.Repeat("x", 100+10*len(id)))
	}
	var mu sync.Mutex
	live := map[string]int{}
	var calls, overlaps int
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		name := strings.TrimPrefix(r.Path, "/")
		id, _ := r.GetQuery("id")
		key := name + "?" + id
		mu.Lock()
		calls++
		fail, streamed := calls%7 == 0, calls%2 == 0
		if live[key]++; live[key] > 1 {
			overlaps++
		}
		mu.Unlock()
		runtime.Gosched()
		mu.Lock()
		live[key]--
		mu.Unlock()
		if fail {
			return nil, errors.New("injected origin failure")
		}
		resp := &httpmsg.Response{Status: 200, Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}}}
		if streamed {
			resp.SetStream(io.NopCloser(strings.NewReader(body(name, id))))
		} else {
			resp.Body = []byte(body(name, id))
		}
		return resp, nil
	})
	// Every injected failure reaches the key table: no retry masks it, and no
	// suspension (a real second on this clock) silences the fan-out. Failures
	// are never adjacent, so the breaker stays closed at its constant.
	tun := defaultTuning()
	tun.retryAttempts, tun.prefetchFailureLimit = 1, 1<<20
	p := newProxy(Options{Graph: g, Upstream: up, Workers: 4, StreamChunkBytes: 64}, tun)
	t.Cleanup(p.Close)

	get := func(pt *proxyTransport, name, id string) {
		resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/" + name,
			Query: []httpmsg.Field{{Key: "id", Value: id}}})
		if err != nil {
			t.Error(err)
			return
		}
		if resp.Status == 200 && string(resp.Body) != body(name, id) {
			t.Errorf("%s?%s served %q, the origin's body is %q", name, id, resp.Body, body(name, id))
		}
	}
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			pt := &proxyTransport{p: p, user: fmt.Sprintf("U%d", u)}
			rng := rand.New(rand.NewSource(int64(u)))
			get(pt, "item", "0") // the exemplar items are built from
			for i := 0; i < rounds; i++ {
				if rng.Intn(3) == 0 {
					get(pt, "list", fmt.Sprint(1+rng.Intn(items)))
				} else {
					get(pt, "item", fmt.Sprint(rng.Intn(items)))
				}
			}
		}(u)
	}
	wg.Wait()
	p.Drain()

	mu.Lock()
	defer mu.Unlock()
	if overlaps != 0 {
		t.Fatalf("the origin saw %d fetches of a key another fetch of it was still running", overlaps)
	}
	if n := len(p.keys.snapshot()); n != 0 {
		t.Fatalf("%d key records left on a quiescent proxy: %v", n, p.keys.snapshot())
	}
	waitChunksReleased(t, p)
	if hits := p.spans.OutcomeCount(obs.OutcomePrefetchHit); hits == 0 || calls < 7 {
		t.Fatalf("%d prefetch hits, %d origin fetches: the stream missed a path", hits, calls)
	}
	t.Logf("%d origin fetches; outcomes: prefetch-hit %d attach-hit %d origin %d error %d", calls,
		p.spans.OutcomeCount(obs.OutcomePrefetchHit), p.spans.OutcomeCount(obs.OutcomeAttachHit),
		p.spans.OutcomeCount(obs.OutcomeOrigin), p.spans.OutcomeCount(obs.OutcomeError))
}
