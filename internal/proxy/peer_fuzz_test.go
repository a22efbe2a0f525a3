package proxy

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"appx/internal/cache"
	"appx/internal/cluster"
	"appx/internal/httpmsg"
	"appx/internal/obs/adminv1"
)

// FuzzPeerEntry: whatever a sibling's cluster-entry body decodes to,
// entryFromPeer never panics; it returns an entry exactly when the status is
// 200 and the TTL is positive and fits a time.Duration; and a returned entry
// expires strictly after now, carries the peer's status, headers and body
// verbatim, and costs what this instance knows of the signature's origin time
// (0 for a signature it does not have).
func FuzzPeerEntry(f *testing.F) {
	now := time.Unix(1_700_000_000, 0)
	p := New(Options{Graph: sharedGraph(), Now: func() time.Time { return now },
		Cluster: cluster.Config{Self: "127.0.0.1:1", ProbeInterval: time.Hour}})
	f.Cleanup(p.Close)
	p.sigs.byID["t:item#0"].observeRespTime(50 * time.Millisecond)

	// A real answer to a sibling's peek, then the same entry with TTLs a
	// peer must not be trusted with.
	key := "GET|h.example/item?id=1"
	p.store.Put(cache.SharedScope, key, &cache.Entry{SigID: "t:item#0", Expires: now.Add(time.Minute),
		Resp: &httpmsg.Response{Status: 200, Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
			Body: []byte(`{"item":"payload"}`)}})
	rec := httptest.NewRecorder()
	p.serveClusterEntry(rec, httptest.NewRequest("GET", adminv1.PathClusterEntry+"?key="+url.QueryEscape(key), nil))
	if rec.Code != 200 {
		f.Fatalf("cluster entry = %d %q", rec.Code, rec.Body)
	}
	f.Add(rec.Body.Bytes())
	var pe adminv1.ClusterEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &pe); err != nil {
		f.Fatal(err)
	}
	for _, ttl := range []int64{-1, 0, math.MaxInt64} {
		pe.ExpiresInMs = ttl
		b, _ := json.Marshal(pe)
		f.Add(b)
	}

	maxTTL := math.MaxInt64 / int64(time.Millisecond)
	f.Fuzz(func(t *testing.T, data []byte) {
		var pe adminv1.ClusterEntry
		if json.Unmarshal(data, &pe) != nil {
			return
		}
		e := p.entryFromPeer(&pe)
		if want := pe.Status == 200 && pe.ExpiresInMs > 0 && pe.ExpiresInMs <= maxTTL; (e != nil) != want {
			t.Fatalf("status %d, TTL %d ms: entry %v, want one: %v", pe.Status, pe.ExpiresInMs, e != nil, want)
		}
		if e == nil {
			return
		}
		if !e.Expires.After(now) {
			t.Fatalf("TTL %d ms expires at %v, not after %v", pe.ExpiresInMs, e.Expires, now)
		}
		if e.SigID != pe.SigID || e.Resp.Status != pe.Status || !bytes.Equal(e.Resp.Body, pe.Body) || len(e.Resp.Header) != len(pe.Header) {
			t.Fatalf("entry %+v / %+v does not carry the peer's %+v", e, e.Resp, pe)
		}
		for i, h := range pe.Header {
			if e.Resp.Header[i] != (httpmsg.Field{Key: h.Key, Value: h.Value}) {
				t.Fatalf("header %d = %+v, peer sent %+v", i, e.Resp.Header[i], h)
			}
		}
		if want := p.sigs.byID[pe.SigID].avgRespTime(); e.Cost != want {
			t.Fatalf("sig %q: cost %v, want %v", pe.SigID, e.Cost, want)
		}
	})
}
