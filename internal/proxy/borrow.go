package proxy

import (
	"slices"
	"sort"
	"strings"

	"appx/internal/air"
	"appx/internal/httpmsg"
	"appx/internal/sig"
)

// First visits (DESIGN.md §14). Until a user sends a live instance of a
// successor, the proxy has no exemplar for it. Most of what one supplies the
// user's device has already shown the proxy on other signatures: the
// headers its HTTP stack adds, the device values static analysis traced Wild
// parts to, the cookies its origins set. The profile collects them from the
// user's own traffic, and instantiate builds the first instance from it when
// the signature has no optional field, every unknown part is a Dep on the
// plan's predecessor or a device value the profile holds, and the profile
// has stack evidence from a request whose signature named a subset of this
// one's headers. Exact match is untouched: a wrong guess costs one fetch,
// never a wrong byte. Nothing crosses users.

// isDeviceValue reports whether a Wild part's origin is a device property
// static analysis traced it to (the air.APIDevice* call). device.flag is a
// branch condition, not a value.
func isDeviceValue(origin string) bool {
	switch origin {
	case air.APIDeviceUserAgent, air.APIDeviceVersion, air.APIDeviceLocale, air.APIDeviceCookie:
		return true
	}
	return false
}

// devKey names one device value in a profile: a cookie is per host, the
// other properties are the device's.
type devKey struct{ origin, host string }

func keyOf(origin, host string) devKey {
	if origin != air.APIDeviceCookie {
		host = ""
	}
	return devKey{origin, host}
}

// compileShape fills the signature's borrow pieces (sigState) from its
// slots: the header names it names, and whether a profile may build its
// exemplar at all — no optional field, every unknown part a Dep or a device
// value, and a URI and JSON body of Deps only.
func (st *sigState) compileShape() {
	s := st.sig
	st.borrows = !hasWild(s.URI)
	for _, f := range s.BodyJSON {
		st.borrows = st.borrows && !f.Optional && !hasWild(f.Value)
	}
	for _, sl := range st.slots {
		st.borrows = st.borrows && !sl.optional
		for _, part := range sl.value.Parts {
			if part.Kind == sig.Wild {
				st.borrows = st.borrows && isDeviceValue(part.Origin)
				st.cookies = st.cookies || part.Origin == air.APIDeviceCookie
			}
		}
	}
	for _, f := range s.Header {
		if k := strings.ToLower(f.Key); !st.namesHeader(k) {
			st.names = append(st.names, k)
		}
	}
	sort.Strings(st.names)
}

func hasWild(p sig.Pattern) bool {
	return slices.ContainsFunc(p.Parts, func(part sig.Part) bool { return part.Kind == sig.Wild })
}

// namesHeader reports whether the signature names the header key.
func (st *sigState) namesHeader(key string) bool {
	return slices.ContainsFunc(st.names, func(n string) bool { return strings.EqualFold(n, key) })
}

// borrowable reports whether a plan's successor meets the conditions that
// depend on neither profile nor instance: the signature's, and every Dep on
// this plan's predecessor.
func (ps *planSucc) borrowable() bool {
	local := func(p sig.PlanPattern) bool {
		for i, part := range p.Parts {
			if part.Kind == sig.Dep && p.Deps[i] < 0 {
				return false
			}
		}
		return true
	}
	ok := ps.st.borrows && local(ps.URI)
	for _, fs := range [][]sig.PlanField{ps.Query, ps.Header, ps.Form, ps.JSON} {
		for _, f := range fs {
			ok = ok && local(f.Value)
		}
	}
	return ok
}

// profile is what one user's device has shown the proxy, learned from the
// user's own live misses (teach) and from the Set-Cookie headers of every
// response handed to the user (setCookies). Guarded by user.mu. Its slices
// and strings are replaced, never written in place, so an exemplar built
// from them stays valid after the lock is released.
type profile struct {
	// stacks holds, per set of header names a teaching signature named, the
	// headers its request carried beyond them.
	stacks []stackEvidence
	// values holds device values; a cookie value is the host's jar, as a
	// Cookie header value.
	values map[devKey]string
	// refused holds the signatures whose borrowed request the origin
	// rejected: borrowing stops there for this user.
	refused map[*sigState]bool
}

// stackEvidence is what a client stack added to a request whose signature
// named the headers in names.
type stackEvidence struct {
	names   []string
	headers []httpmsg.Field
}

// teach folds one live request of st into the profile and reports whether
// anything changed; a request that teaches nothing new allocates nothing.
func (pr *profile) teach(st *sigState, req *httpmsg.Request) bool {
	changed := pr.teachStack(st, req.Header)
	for i := range st.slots {
		sl := &st.slots[i]
		if sl.origin == "" {
			continue
		}
		var one [1]string
		if v, ok := sl.get(req, sl.key); ok {
			if c, ok := sl.value.Capture(v, one[:0]); ok {
				changed = pr.set(keyOf(sl.origin, req.Host), c[0]) || changed
			}
		}
	}
	return changed
}

func (pr *profile) set(k devKey, v string) bool {
	if old, ok := pr.values[k]; ok && old == v {
		return false
	}
	if pr.values == nil {
		pr.values = map[devKey]string{}
	}
	pr.values[k] = v
	return true
}

// stackAdded reports whether a request header is stack evidence for st: part
// of the canonical key — a body's Content-Type is no stack default — and not
// a header st names.
func stackAdded(st *sigState, key string) bool {
	return httpmsg.KeyedHeader(key) && !st.namesHeader(key)
}

func (pr *profile) teachStack(st *sigState, hdr []httpmsg.Field) bool {
	at := slices.IndexFunc(pr.stacks, func(e stackEvidence) bool { return slices.Equal(e.names, st.names) })
	var old []httpmsg.Field
	if at >= 0 {
		old = pr.stacks[at].headers
	}
	n, same := 0, at >= 0
	for _, h := range hdr {
		if stackAdded(st, h.Key) {
			same = same && n < len(old) && old[n] == h
			n++
		}
	}
	if same && n == len(old) {
		return false
	}
	added := make([]httpmsg.Field, 0, n)
	for _, h := range hdr {
		if stackAdded(st, h.Key) {
			added = append(added, h)
		}
	}
	if at < 0 {
		pr.stacks = append(pr.stacks, stackEvidence{names: st.names, headers: added})
	} else {
		pr.stacks[at].headers = added
	}
	return true
}

// stackFor returns the evidence from the largest named-header set that is a
// subset of names (both sorted), or nil.
func (pr *profile) stackFor(names []string) *stackEvidence {
	var best *stackEvidence
	for i := range pr.stacks {
		e := &pr.stacks[i]
		subset := true
		for _, n := range e.names {
			_, found := slices.BinarySearch(names, n)
			subset = subset && found
		}
		if subset && (best == nil || len(e.names) > len(best.names)) {
			best = e
		}
	}
	return best
}

// setCookies applies the Set-Cookie headers of a response from host to its
// jar and reports whether the jar changed.
func (pr *profile) setCookies(host string, hdr []httpmsg.Field) (changed bool) {
	for _, f := range hdr {
		if !strings.EqualFold(f.Key, "Set-Cookie") {
			continue
		}
		pair, _, _ := strings.Cut(f.Value, ";")
		pair = strings.TrimSpace(pair)
		if name, _, ok := strings.Cut(pair, "="); ok && name != "" {
			k := keyOf(air.APIDeviceCookie, host)
			changed = pr.set(k, withCookie(pr.values[k], name, pair)) || changed
		}
	}
	return changed
}

func hasSetCookie(hdr []httpmsg.Field) bool {
	return slices.ContainsFunc(hdr, func(f httpmsg.Field) bool { return strings.EqualFold(f.Key, "Set-Cookie") })
}

// withCookie returns the Cookie header value of a jar once the cookie pair
// (name=value) is set: RFC 6265 replaces a cookie of the same name and
// appends a new one. A jar that holds pair already is returned as is,
// without allocating.
func withCookie(jar, name, pair string) string {
	for rest := jar; rest != ""; {
		var c string
		if c, rest, _ = strings.Cut(rest, ";"); strings.TrimSpace(c) == pair {
			return jar
		}
	}
	var kept []string
	for _, c := range strings.Split(jar, ";") {
		if n, _, _ := strings.Cut(strings.TrimSpace(c), "="); n != "" && n != name {
			kept = append(kept, strings.TrimSpace(c))
		}
	}
	return strings.Join(append(kept, pair), "; ")
}

// evidence returns the stack evidence a plan's successor may borrow with, or
// nil when a condition that does not depend on the instance — everything but
// the device values — is unmet.
func (pr *profile) evidence(ps *planSucc) *stackEvidence {
	if !ps.borrow || pr.refused[ps.st] {
		return nil
	}
	return pr.stackFor(ps.st.names)
}

// exemplarFor builds the exemplar a user with no live instance of the plan's
// successor borrows for one instance, or nil when the profile cannot.
func (pr *profile) exemplarFor(ps *planSucc, vals []string) *slotExemplar {
	ev := pr.evidence(ps)
	if ev == nil {
		return nil
	}
	host := ""
	if ps.st.cookies {
		uri, _ := resolve(ps.URI, vals, nil) // unresolved: "", which splitURI refuses
		var ok bool
		if host, _, _, ok = splitURI(uri); !ok {
			return nil
		}
	}
	ex := ps.st.newExemplar(ev.headers)
	for _, fs := range [][]sig.PlanField{ps.Query, ps.Header, ps.Form} {
		for _, f := range fs {
			sl := &ps.st.slots[f.Slot]
			if !pr.fill(f.Value, host, ex.captures[sl.at:sl.end]) {
				return nil
			}
			ex.seen[f.Slot] = slotPresent | slotCaptured
		}
	}
	return ex
}

// fill writes into w what an exemplar would have captured for a field
// pattern — per unknown part the device's value, or a placeholder for a Dep,
// which resolve fills from the instance — and reports false when the profile
// has no value for a device part.
func (pr *profile) fill(p sig.PlanPattern, host string, w []string) bool {
	k := 0
	for i, part := range p.Parts {
		if part.Kind == sig.Lit {
			continue
		}
		if p.Deps[i] < 0 {
			v, ok := pr.values[keyOf(part.Origin, host)]
			if !ok {
				return false
			}
			w[k] = v
		}
		k++
	}
	return true
}

// couldBorrow reports whether the profile could build a live request's
// signature an exemplar, from some predecessor: the miss-reason test.
func (pr *profile) couldBorrow(st *sigState, host string) bool {
	if !st.borrows || pr.refused[st] || pr.stackFor(st.names) == nil {
		return false
	}
	for _, sl := range st.slots {
		for _, part := range sl.value.Parts {
			if part.Kind != sig.Wild {
				continue
			}
			if _, ok := pr.values[keyOf(part.Origin, host)]; !ok {
				return false
			}
		}
	}
	return true
}

// missReason says why a foreground miss of a matched signature found no
// prefetch (appx_miss_total{reason}).
type missReason uint8

const (
	// missUnpredicted: no dependency feeds the signature.
	missUnpredicted missReason = iota
	// missNoExemplar: the user has no live instance of the signature, and the
	// profile cannot build one.
	missNoExemplar
	// missQueued: the prefetch still waits in the queue.
	missQueued
	// missOther: the instance was derived and has since been evicted, expired
	// or refused, or was never derived for this value.
	missOther

	numMissReasons
)

func (r missReason) String() string {
	return [numMissReasons]string{"unpredicted", "no_exemplar", "queued", "other"}[r]
}

// noteMiss classifies one foreground miss of lead and folds the exchange into
// the user's profile: the request, then the Set-Cookie headers of the
// response the user was handed (in that order: a request's own Cookie
// capture must not undo the cookies its response sets). It reports whether
// the profile changed.
func noteMiss(u *user, lead *sigState, req *httpmsg.Request, respHeader []httpmsg.Field, queued bool) bool {
	u.mu.Lock()
	reason := missOther
	switch {
	case !lead.successor:
		reason = missUnpredicted
	case queued:
		reason = missQueued
	case u.exemplars[lead.sig.ID] == nil && !u.prof.couldBorrow(lead, req.Host):
		reason = missNoExemplar
	}
	changed := u.prof.teach(lead, req)
	changed = u.prof.setCookies(req.Host, respHeader) || changed
	u.mu.Unlock()
	lead.missReasons[reason].Add(1)
	return changed
}

// absorbCookies applies the Set-Cookie headers of a response handed to the
// user to the user's jar for host, and reports whether the jar changed. A
// response without Set-Cookie costs one scan of its headers.
func absorbCookies(u *user, host string, hdr []httpmsg.Field) bool {
	if !hasSetCookie(hdr) {
		return false
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.prof.setCookies(host, hdr)
}

// retryParked re-instantiates the user's parked instances whose signature the
// profile may now build; those it still cannot park again, in order.
func (p *Proxy) retryParked(u *user) {
	u.mu.Lock()
	var ids []string
	for id, pis := range u.pending {
		if u.prof.evidence(pis[0].sp) != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var retry []pendingInstance
	for _, id := range ids {
		retry = append(retry, u.pending[id]...)
		delete(u.pending, id)
	}
	u.mu.Unlock()
	for _, pi := range retry {
		p.instantiate(u, pi.sp, pi.vals, pi.depth, pi.root, pi.trig)
	}
}

// refuseBorrow stops borrowing for the user and signature of a borrowed
// prefetch the origin rejected.
func (p *Proxy) refuseBorrow(u *user, st *sigState) {
	u.mu.Lock()
	if u.prof.refused == nil {
		u.prof.refused = map[*sigState]bool{}
	}
	u.prof.refused[st] = true
	u.mu.Unlock()
	p.borrowRejected.Inc()
}
