package proxy

import (
	"bytes"
	"fmt"
	"testing"

	"appx/internal/obs"
)

// TestProxySharesBodiesAcrossUsers: eight users each prefetch the same
// 100 KB image into their own scope (the shared tier is off, as it is for any
// request that carries per-user values). The store charges each user the whole
// body, and holds its bytes once; every user is still served them whole.
func TestProxySharesBodiesAcrossUsers(t *testing.T) {
	const users, imgSize = 8, 100_000
	img := make([]byte, imgSize)
	for i := range img {
		img[i] = byte(i * 7)
	}
	l := newFollowLab(t, []edge{{"list", "img", "imgs[*]"}}, 0, func(name, id string) string {
		switch {
		case id == "0":
			return `{}`
		case name == "list":
			return `{"imgs":["1"]}`
		}
		return string(img)
	})
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("U%d", u)
		l.teach(user, "img")
		l.get(user, "list", "L")
		l.p.Drain()
	}
	m := l.p.Cache().Metrics()
	if m.Bodies != 1 || m.BodyBytes != imgSize {
		t.Fatalf("body table holds %d bodies in %d bytes, want the one image's %d", m.Bodies, m.BodyBytes, imgSize)
	}
	if m.ResidentBytes < users*imgSize || m.ResidentBytes > users*(imgSize+1<<10) {
		t.Fatalf("resident %d bytes, want each of %d users charged the %d-byte image", m.ResidentBytes, users, imgSize)
	}
	if c := l.p.cacheV1(); c.BodyBytes != imgSize || c.SharedBodies != 1 {
		t.Fatalf("admin cache block reads %d shared bodies in %d bytes", c.SharedBodies, c.BodyBytes)
	}
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("U%d", u)
		resp, out := l.fetch(user, "img", "1")
		if out != obs.OutcomePrefetchHit || !bytes.Equal(resp.Body, img) {
			t.Fatalf("%s: outcome %v, %d bytes served, want a prefetch hit on the whole image", user, out, len(resp.Body))
		}
	}
}
