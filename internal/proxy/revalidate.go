package proxy

import (
	"net/http"
	"strconv"
	"strings"

	"appx/internal/cache"
	"appx/internal/httpmsg"
	"appx/internal/obs/adminv1"
)

// Cross-user revalidation (DESIGN.md §5). The store keeps responses per user,
// so when several users fetch the same request the origin sends the same
// bytes once per user. Before a user-scope fetch goes out, the proxy looks
// for a twin: a fresh complete 200 another user's scope holds under the same
// canonical key, with a strong ETag. The request then goes out as the user's
// own, with If-None-Match naming the twin's tag added to a clone — its key is
// untouched. A 304 is the origin's word that the twin's bytes are what it
// would have sent this user: the fetch continues as the 200 it stands for,
// over the twin's body slice. Any other answer stands as it came. Nothing
// crosses users without that 304.

// conditionalFields are the request headers that make a request
// conditional. A request carrying any of them already asks the origin a
// question of its own and is never revalidated.
var conditionalFields = [...]string{"If-None-Match", "If-Modified-Since", "If-Match", "If-Unmodified-Since", "If-Range"}

// twin returns the twin a fetch of req into scope may revalidate against and
// its tag; resp is nil when the fetch goes out as it is: into the shared
// scope, a method other than GET, a request already conditional, or no twin
// held.
func (p *Proxy) twin(scope, key string, req *httpmsg.Request) (etag string, resp *httpmsg.Response) {
	if scope == cache.SharedScope || req.Method != http.MethodGet {
		return "", nil
	}
	for _, f := range req.Header {
		for _, c := range conditionalFields {
			if strings.EqualFold(f.Key, c) {
				return "", nil
			}
		}
	}
	return p.store.Twin(scope, key)
}

// conditional returns r with If-None-Match: etag added, on a clone.
func conditional(r *httpmsg.Request, etag string) *httpmsg.Request {
	c := r.Clone()
	c.Header = append(c.Header, httpmsg.Field{Key: "If-None-Match", Value: etag})
	return c
}

// revalidated settles the origin's answer to a request sent with twin's
// validator, counting it on the signature: a 304 becomes the 200 it stands
// for (notModified200) and its body bytes count as revalidated, on a
// prefetch's counter or a forwarded miss's; a 200 counts as modified; any
// other answer is returned as it came and counted only where a non-200 is.
func (st *sigState) revalidated(twin, resp *httpmsg.Response, prefetch bool) (*httpmsg.Response, bool) {
	if resp.Status != http.StatusNotModified {
		if resp.Status == http.StatusOK {
			st.modified.Add(1)
		}
		return resp, false
	}
	resp.CloseBody() // a 304 has no body: this hands the connection back
	st.notModified.Add(1)
	if prefetch {
		st.revalidatedPrefetchBytes.Add(int64(len(twin.Body)))
	} else {
		st.revalidatedForwardBytes.Add(int64(len(twin.Body)))
	}
	return notModified200(twin, resp.Header), true
}

// notModified200 is the 200 a 304 stands for: the twin's body under the
// twin's header updated from the 304's (RFC 9111 §3.2), each field the 304
// carries replacing the twin's of that name. Three kinds of field are never
// taken from the 304: Content-Length, which describes the twin's body and is
// restated from it, the framing fields Transfer-Encoding and Content-Range,
// and the hop-by-hop fields, which describe the 304's own connection. The
// twin's Set-Cookie is the other user's and is never kept; the user's own
// cookies come with the 304. The fields stay sorted by name, as parsed
// headers are.
func notModified200(twin *httpmsg.Response, nm []httpmsg.Field) *httpmsg.Response {
	header := make([]httpmsg.Field, 0, len(twin.Header)+len(nm))
	length := false
	for _, f := range twin.Header {
		switch {
		case strings.EqualFold(f.Key, "Content-Length"):
			length = true
		case strings.EqualFold(f.Key, "Set-Cookie"), framingField(f.Key), names(nm, f.Key):
		default:
			header = append(header, f)
		}
	}
	for _, f := range nm {
		if !strings.EqualFold(f.Key, "Content-Length") && !framingField(f.Key) {
			header = append(header, f)
		}
	}
	if length {
		header = append(header, httpmsg.Field{Key: "Content-Length", Value: strconv.Itoa(len(twin.Body))})
	}
	for i := 1; i < len(header); i++ { // stable: one name's values keep their order
		for j := i; j > 0 && header[j].Key < header[j-1].Key; j-- {
			header[j], header[j-1] = header[j-1], header[j]
		}
	}
	return &httpmsg.Response{Status: http.StatusOK, Header: header, Body: twin.Body}
}

// names reports whether fields hold one named key.
func names(fields []httpmsg.Field, key string) bool {
	for _, f := range fields {
		if strings.EqualFold(f.Key, key) {
			return true
		}
	}
	return false
}

// framingField reports whether a response field describes how its message
// is framed or carried rather than the entity: neither a 304's nor a stored
// response's copy applies to the 200 built from them.
func framingField(key string) bool {
	for _, k := range [...]string{"Transfer-Encoding", "Content-Range", "Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer", "Upgrade"} {
		if strings.EqualFold(key, k) {
			return true
		}
	}
	return false
}

// revalidateV1 assembles the revalidation block of /appx/v1/stats: the
// totals, and the signatures that revalidated at all.
func (p *Proxy) revalidateV1() adminv1.Revalidate {
	out := adminv1.Revalidate{Signatures: map[string]adminv1.RevalidateCounts{}}
	for _, st := range p.sigs.all {
		c := adminv1.RevalidateCounts{
			NotModified: st.notModified.Load(),
			Modified:    st.modified.Load(),
			Bytes:       st.revalidatedBytes(),
		}
		if c == (adminv1.RevalidateCounts{}) {
			continue
		}
		out.Signatures[st.sig.ID] = c
		out.NotModified += c.NotModified
		out.Modified += c.Modified
		out.Bytes += c.Bytes
	}
	return out
}
