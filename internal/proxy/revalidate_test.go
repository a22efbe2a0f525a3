package proxy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"appx/internal/cache"
	"appx/internal/httpmsg"
	"appx/internal/obs"
)

// Cross-user revalidation (DESIGN.md §5). The tests run a followLab over
// list → img whose origin tags every body with a strong ETag, a hash of its
// bytes, and answers a matching If-None-Match with a bodiless 304, as image
// and CDN origins do. The lab keeps each user's entries in the user's own
// scope (the shared tier is off), so every user's prefetch of img?1 is a
// fetch of its own.

const revalImgSize = 8 << 10

// etagOrigin is the lab's origin behind the tagging: the image bytes carry
// version, which a test changes to make the origin's content change.
type etagOrigin struct {
	mu          sync.Mutex
	version     string
	bodyBytes   int64 // body bytes the origin sent
	notModified int   // 304s it sent
	// failConditional makes the origin answer every conditional request
	// with a 503.
	failConditional bool
}

func (o *etagOrigin) setVersion(v string) {
	o.mu.Lock()
	o.version = v
	o.mu.Unlock()
}

func (o *etagOrigin) counts() (bodyBytes int64, notModified int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.bodyBytes, o.notModified
}

// img is the origin's image id at the current version.
func (o *etagOrigin) img(id string) string {
	o.mu.Lock()
	v := o.version
	o.mu.Unlock()
	return strings.Repeat(id+v, revalImgSize)[:revalImgSize]
}

func strongTag(b []byte) string {
	sum := sha256.Sum256(b)
	return `"` + hex.EncodeToString(sum[:8]) + `"`
}

// newRevalLab is the followLab over list → img behind an etagOrigin.
func newRevalLab(t *testing.T) (*followLab, *etagOrigin) {
	t.Helper()
	o := &etagOrigin{version: "v1"}
	body := func(name, id string) string {
		switch {
		case id == "0":
			return `{}`
		case name == "list":
			return `{"imgs":["1"]}`
		}
		return o.img(id)
	}
	l := newFollowLabWith(t, []edge{{"list", "img", "imgs[*]"}}, body, func(opts *Options) {
		inner := opts.Upstream
		opts.Upstream = UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
			resp, err := inner.RoundTrip(ctx, r)
			if err != nil {
				return nil, err
			}
			tag := strongTag(resp.Body)
			o.mu.Lock()
			defer o.mu.Unlock()
			inm, _ := r.GetHeader("If-None-Match")
			if inm != "" && o.failConditional {
				return &httpmsg.Response{Status: http.StatusServiceUnavailable}, nil
			}
			if inm == tag {
				o.notModified++
				return &httpmsg.Response{Status: http.StatusNotModified, Header: []httpmsg.Field{{Key: "Etag", Value: tag}}}, nil
			}
			o.bodyBytes += int64(len(resp.Body))
			resp.Header = append(resp.Header, httpmsg.Field{Key: "Etag", Value: tag})
			return resp, nil
		})
	})
	return l, o
}

// prefetchImg has user prefetch img?1: a live img teaches the signature, and
// a live list fans out to img?1.
func (l *followLab) prefetchImg(user string) {
	l.t.Helper()
	l.teach(user, "img")
	l.get(user, "list", "L")
	l.p.Drain()
}

// lastSent returns the last request the origin received for <name>?id=<id>.
func (l *followLab) lastSent(name, id string) *httpmsg.Request {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.arrivals) - 1; i >= 0; i-- {
		if l.arrivals[i] == name+"?"+id {
			return l.sent[i]
		}
	}
	l.t.Fatalf("the origin never saw %s?%s", name, id)
	return nil
}

func headerValues(r *httpmsg.Request, key string) []string {
	var out []string
	for _, f := range r.Header {
		if strings.EqualFold(f.Key, key) {
			out = append(out, f.Value)
		}
	}
	return out
}

// TestRevalidateNotModifiedReusesTwin: B's prefetch of the image A holds goes
// out with A's tag; the origin's 304 sends no body, and B's entry is A's bytes
// — one slice in the body table — served to B as a
// whole 200. The 304 costs no origin bytes and no data budget; the bytes it
// stood for are counted apart.
func TestRevalidateNotModifiedReusesTwin(t *testing.T) {
	l, o := newRevalLab(t)
	l.prefetchImg("A")
	key := labKey("img", "1")
	a, _ := l.p.Cache().Get("A", key)
	tagA := strongTag(a.Resp.Body)
	if got := headerValues(l.lastSent("img", "1"), "If-None-Match"); len(got) != 0 {
		t.Fatalf("the first fetch of img?1 was sent with If-None-Match %q, no user held it", got)
	}
	bytesA, _ := o.counts()
	budgetA := l.p.DataUsedBytes()

	l.prefetchImg("B")
	if got := headerValues(l.lastSent("img", "1"), "If-None-Match"); len(got) != 1 || got[0] != tagA {
		t.Fatalf("B's prefetch of img?1 sent If-None-Match %q, want A's tag %s", got, tagA)
	}
	bytesB, notModified := o.counts()
	if want := int64(len(`{}`) + len(`{"imgs":["1"]}`)); notModified != 1 || bytesB-bytesA != want {
		t.Fatalf("the origin sent %d body bytes and %d 304s for B, want %d bytes (teaching and list alone) and one 304",
			bytesB-bytesA, notModified, want)
	}
	if got := l.p.DataUsedBytes(); got != budgetA {
		t.Fatalf("data budget used %d → %d bytes across a 304", budgetA, got)
	}
	b, _ := l.p.Cache().Get("B", key)
	if b == nil || &b.Resp.Body[0] != &a.Resp.Body[0] || b.Resp.Status != 200 {
		t.Fatalf("B's entry %+v is not a 200 over A's body slice", b)
	}
	if tag, _ := b.Resp.GetHeader("Etag"); tag != tagA {
		t.Fatalf("B's entry carries ETag %q, want %s", tag, tagA)
	}
	resp, out := l.fetch("B", "img", "1")
	if out != obs.OutcomePrefetchHit || !bytes.Equal(resp.Body, a.Resp.Body) {
		t.Fatalf("B's img?1: %v, %d bytes; want a prefetch hit on A's bytes", out, len(resp.Body))
	}

	snap := l.p.Stats().Snapshot()
	img := snap.PerSig["t:img#0"]
	if snap.NotModified != 1 || snap.Modified != 0 || snap.RevalidatedPrefetchBytes != revalImgSize ||
		img.NotModified != 1 || img.RevalidatedBytes != revalImgSize || img.PrefetchedBytes != revalImgSize || img.Prefetches != 2 {
		t.Fatalf("snapshot %+v, img %+v: want one 304 of %d bytes beside A's one origin body", snap, img, revalImgSize)
	}
	if mean := l.p.sigs.byID["t:img#0"].meanPrefetchSize(); mean != revalImgSize {
		t.Fatalf("mean prefetch size %d after a 304, want the stored %d", mean, revalImgSize)
	}
	if refs := l.p.Cache().Metrics().BodyRefs; refs.Twin != 1 || refs.Hashed != 0 {
		t.Fatalf("body references %+v, want B's through the twin", refs)
	}
	if rv := l.p.statsV1().Revalidate; rv.NotModified != 1 || rv.Bytes != revalImgSize || rv.Signatures["t:img#0"].NotModified != 1 {
		t.Fatalf("/appx/v1 revalidate block %+v", rv)
	}
	var prom bytes.Buffer
	l.p.Registry().WritePrometheus(&prom)
	for _, line := range []string{
		`appx_revalidate_total{result="not_modified"} 1`,
		`appx_revalidate_total{result="modified"} 0`,
		"appx_revalidated_bytes_total " + strconv.Itoa(revalImgSize),
	} {
		if !strings.Contains(prom.String(), line+"\n") {
			t.Errorf("metrics lack %q", line)
		}
	}
}

// TestRevalidateModifiedServesOwnBytes: the origin's content changed after A
// fetched it, so it answers B's revalidation with a 200 and the new bytes.
// B's entry holds and serves those bytes, never A's; A keeps its own.
func TestRevalidateModifiedServesOwnBytes(t *testing.T) {
	l, o := newRevalLab(t)
	l.prefetchImg("A")
	v1 := o.img("1")
	o.setVersion("v2")
	l.prefetchImg("B")
	if got := headerValues(l.lastSent("img", "1"), "If-None-Match"); len(got) != 1 || got[0] != strongTag([]byte(v1)) {
		t.Fatalf("B's prefetch sent If-None-Match %q, want A's tag", got)
	}
	v2 := o.img("1")
	resp, out := l.fetch("B", "img", "1")
	if out != obs.OutcomePrefetchHit || string(resp.Body) != v2 {
		t.Fatalf("B's img?1: %v, served the new bytes %v", out, string(resp.Body) == v2)
	}
	if tag, _ := resp.GetHeader("Etag"); tag != strongTag([]byte(v2)) {
		t.Fatalf("B was served ETag %q, want the new body's", tag)
	}
	if resp, _ := l.fetch("A", "img", "1"); string(resp.Body) != v1 {
		t.Fatal("A's entry changed under B's fetch")
	}
	if snap := l.p.Stats().Snapshot(); snap.Modified != 1 || snap.NotModified != 0 || snap.PerSig["t:img#0"].PrefetchedBytes != 2*revalImgSize {
		t.Fatalf("snapshot %+v: want one full answer counted as origin bytes", snap)
	}
}

// TestRevalidateErrorIsNotModified: an origin error in answer to B's
// revalidation is neither a 304 nor a changed entity. It counts as the
// rejected prefetch it is, B stores nothing, and A keeps its entry.
func TestRevalidateErrorIsNotModified(t *testing.T) {
	l, o := newRevalLab(t)
	l.prefetchImg("A")
	o.mu.Lock()
	o.failConditional = true
	o.mu.Unlock()
	l.prefetchImg("B")
	if got := headerValues(l.lastSent("img", "1"), "If-None-Match"); len(got) != 1 {
		t.Fatalf("B's prefetch sent If-None-Match %q, want A's tag", got)
	}
	snap := l.p.Stats().Snapshot()
	if img := snap.PerSig["t:img#0"]; snap.Modified != 0 || snap.NotModified != 0 || img.PrefetchRejects != 1 {
		t.Fatalf("snapshot %+v, img %+v: want the 503 counted as one rejected prefetch and no revalidation answer", snap, img)
	}
	if b, _ := l.p.Cache().Get("B", labKey("img", "1")); b != nil {
		t.Fatalf("B stored %d bytes from a 503", len(b.Resp.Body))
	}
	if a, _ := l.p.Cache().Get("A", labKey("img", "1")); a == nil {
		t.Fatal("A's entry went with B's failed revalidation")
	}
}

// TestRevalidateOnlyPlainGets: only a GET that carries no conditional of its
// own, into a user scope, against a strong-tagged twin, is revalidated.
func TestRevalidateOnlyPlainGets(t *testing.T) {
	l, _ := newRevalLab(t)
	exp := l.p.opts.Now().Add(3600e9)
	put := func(scope, key, etag string) {
		r := &httpmsg.Response{Status: 200, Body: []byte("twin")}
		if etag != "" {
			r.Header = []httpmsg.Field{{Key: "Etag", Value: etag}}
		}
		l.p.Cache().Put(scope, key, &cache.Entry{Resp: r, SigID: "t:img#0", Expires: exp})
	}
	req := func(method, id string, header ...httpmsg.Field) *httpmsg.Request {
		return &httpmsg.Request{Method: method, Host: "h.example", Path: "/img",
			Query: []httpmsg.Field{{Key: "id", Value: id}}, Header: header}
	}
	put("A", labKey("img", "1"), `"t"`)
	put("A", labKey("img", "weak"), `W/"t"`)
	put("A", labKey("img", "none"), "")
	if _, twin := l.p.twin("B", labKey("img", "1"), req("GET", "1")); twin == nil {
		t.Fatal("a plain GET found no twin")
	}
	for _, tc := range []struct {
		name, scope, key string
		r                *httpmsg.Request
	}{
		{"POST", "B", labKey("img", "1"), req("POST", "1")},
		{"weak ETag", "B", labKey("img", "weak"), req("GET", "weak")},
		{"no ETag", "B", labKey("img", "none"), req("GET", "none")},
		{"shared scope", cache.SharedScope, labKey("img", "1"), req("GET", "1")},
		{"If-None-Match", "B", labKey("img", "1"), req("GET", "1", httpmsg.Field{Key: "If-None-Match", Value: `"x"`})},
		{"If-Modified-Since", "B", labKey("img", "1"), req("GET", "1", httpmsg.Field{Key: "If-Modified-Since", Value: "Mon, 02 Jan 2006 15:04:05 GMT"})},
		{"If-Match", "B", labKey("img", "1"), req("GET", "1", httpmsg.Field{Key: "if-match", Value: `"x"`})},
		{"If-Unmodified-Since", "B", labKey("img", "1"), req("GET", "1", httpmsg.Field{Key: "If-Unmodified-Since", Value: "Mon, 02 Jan 2006 15:04:05 GMT"})},
		{"If-Range", "B", labKey("img", "1"), req("GET", "1", httpmsg.Field{Key: "If-Range", Value: `"x"`})},
	} {
		if _, twin := l.p.twin(tc.scope, tc.key, tc.r); twin != nil {
			t.Errorf("%s: revalidated", tc.name)
		}
	}

	// End to end: a client's own conditional goes out alone, however many
	// users hold the entry under its key.
	cond := req("GET", "2", httpmsg.Field{Key: "If-None-Match", Value: `"mine"`})
	put("A", cond.CanonicalKey(), `"t"`)
	l.get("B", "img", "2", cond.Header...)
	if got := headerValues(l.lastSent("img", "2"), "If-None-Match"); len(got) != 1 || got[0] != `"mine"` {
		t.Fatalf("a client conditional went out with If-None-Match %q", got)
	}
	if snap := l.p.Stats().Snapshot(); snap.NotModified+snap.Modified != 0 {
		t.Fatalf("%d revalidations counted, want none", snap.NotModified+snap.Modified)
	}
}

// imgFlight returns the live flight of user's img?id, nil when there is none.
func (l *followLab) imgFlight(user, id string) *flight {
	return l.p.keys.snapshot()[issueKey(user, labKey("img", id))].fl
}

// waitImgAtOrigin waits until user's prefetch of img?1 has opened its flight
// and reached the (parked) origin.
func (l *followLab) waitImgAtOrigin(user string) {
	l.t.Helper()
	waitFor(l.t, user+"'s img?1 prefetch to reach the origin", func() bool {
		seen := l.seen()
		return l.imgFlight(user, "1") != nil && seen[len(seen)-1] == "img?1"
	})
}

// TestRevalidateAttachGetsFull200: a client that attaches to B's revalidating
// prefetch while it waits at the origin is answered from the 304 as a whole
// 200 of the twin's bytes.
func TestRevalidateAttachGetsFull200(t *testing.T) {
	l, o := newRevalLab(t)
	l.prefetchImg("A")
	l.teach("B", "img")
	l.park(func(name, id string) bool { return name == "img" && id == "1" })
	l.get("B", "list", "L")
	l.waitImgAtOrigin("B")
	type result struct {
		resp *httpmsg.Response
		out  obs.Outcome
	}
	done := make(chan result, 1)
	go func() {
		resp, out := l.fetch("B", "img", "1")
		done <- result{resp, out}
	}()
	waitFor(t, "the client to attach", func() bool { return l.imgFlight("B", "1").sp.Readers() == 1 })
	l.release()
	r := <-done
	if r.out != obs.OutcomeAttachHit || r.resp.Status != 200 || string(r.resp.Body) != o.img("1") {
		t.Fatalf("attached client: %v, status %d, A's bytes %v", r.out, r.resp.Status, string(r.resp.Body) == o.img("1"))
	}
	l.p.Drain()
	if _, nm := o.counts(); nm != 1 {
		t.Fatalf("%d 304s, want the prefetch's one", nm)
	}
}

// TestRevalidateTwinLeavesMidFlight: A's scope is dropped while B's
// revalidation waits at the origin. The 304 still yields B a correct entry:
// the twin's bytes stay B's body, stored like origin bytes.
func TestRevalidateTwinLeavesMidFlight(t *testing.T) {
	l, o := newRevalLab(t)
	l.prefetchImg("A")
	l.teach("B", "img")
	l.park(func(name, id string) bool { return name == "img" && id == "1" })
	l.get("B", "list", "L")
	l.waitImgAtOrigin("B")
	l.p.Cache().DropScope("A")
	l.release()
	l.p.Drain()
	if _, nm := o.counts(); nm != 1 {
		t.Fatalf("%d 304s, want one", nm)
	}
	resp, out := l.fetch("B", "img", "1")
	if out != obs.OutcomePrefetchHit || string(resp.Body) != o.img("1") {
		t.Fatalf("B's img?1: %v, correct bytes %v", out, string(resp.Body) == o.img("1"))
	}
	if m := l.p.Cache().Metrics(); m.Bodies != 1 || m.BodyRefs.Twin != 0 || m.Entries == 0 {
		t.Fatalf("store after the twin left: %d bodies, references %+v", m.Bodies, m.BodyRefs)
	}
}

// TestUnaskedNotModifiedStaysNon200: a 304 to a request the proxy did not
// make conditional is no revalidation. The client gets the 304 as it came;
// a prefetch answered with it is a rejected reconstruction, stored nowhere.
func TestUnaskedNotModifiedStaysNon200(t *testing.T) {
	body := func(name, id string) string {
		if name == "list" && id != "0" {
			return `{"imgs":["1"]}`
		}
		return `{}`
	}
	l := newFollowLabWith(t, []edge{{"list", "img", "imgs[*]"}}, body, func(opts *Options) {
		inner := opts.Upstream
		opts.Upstream = UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
			resp, err := inner.RoundTrip(ctx, r)
			if err == nil && r.Path == "/img" && r.Query[0].Value != "0" {
				resp = &httpmsg.Response{Status: http.StatusNotModified, Header: []httpmsg.Field{{Key: "Etag", Value: `"t"`}}}
			}
			return resp, err
		})
	})
	resp, err := (&proxyTransport{p: l.p, user: "A"}).RoundTrip(&httpmsg.Request{Method: "GET", Host: "h.example", Path: "/img",
		Query: []httpmsg.Field{{Key: "id", Value: "7"}}})
	if err != nil || resp.Status != http.StatusNotModified || len(resp.Body) != 0 {
		t.Fatalf("live img?7: %v, %+v; want the origin's bodiless 304", err, resp)
	}
	l.teach("A", "img")
	l.get("A", "list", "L")
	l.p.Drain()
	if e, _ := l.p.Cache().Get("A", labKey("img", "1")); e != nil {
		t.Fatalf("a 304 to a plain prefetch was stored: %+v", e.Resp)
	}
	snap := l.p.Stats().Snapshot()
	if snap.PerSig["t:img#0"].PrefetchRejects != 1 || snap.NotModified+snap.Modified != 0 {
		t.Fatalf("snapshot %+v: want one rejected prefetch and no revalidation", snap.PerSig["t:img#0"])
	}
}
