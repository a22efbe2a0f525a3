// Package cluster implements the proxy's scale-out layer: N appx-proxy
// instances form a fleet in which each user's learned state (cache scope,
// exemplars, budget) is pinned to exactly one owner instance by a
// consistent-hash ring, and user-agnostic cache entries are shared
// fleet-wide by a peer-fill protocol that asks ring siblings before paying
// an origin round trip.
//
// The package has three parts: the hash ring (this file) — a pure function
// from (key, membership) to an owner, so every instance that agrees on who
// is alive agrees on who owns what; membership (cluster.go) — a static
// seed list health-probed over the admin API, with per-peer circuit
// breakers deciding aliveness; and the peer protocol (peer.go) — relaying
// a request to its owner and peeking a sibling's shared cache tier. Probes,
// relays and peeks all run on one httpmsg.Client, pooled per peer.
package cluster

import "sort"

// VNodes is the virtual-node count per member. Every instance must use the
// same count for ownership to agree, so it is a constant. At 128 vnodes the
// ring's key distribution is bounded by construction: the busiest member
// owns at most ~1.25x the mean share (pinned by TestRingDistributionSkew).
// This is how the ring bounds load while staying a pure function of
// membership — a dynamic bounded-load walk (skip members past c·mean
// current load) was rejected because instances would consult divergent
// local load views and route the same user differently, and ownership that
// flaps is worse than ownership 25% above mean.
const VNodes = 128

// point is one virtual node: a position on the hash circle and the member
// that owns the arc ending there.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. It is a value-style
// structure with no internal locking; Cluster guards it and rebuilds it on
// membership changes. The zero value is not usable; call NewRing.
type Ring struct {
	points  []point // sorted by (hash, node)
	members map[string]struct{}
}

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{members: map[string]struct{}{}}
}

// hash64 is FNV-1a finished with the murmur3 avalanche mix. Plain FNV
// clusters badly on short, similar strings (vnode labels differ in a digit
// or two); the finalizer spreads those deltas across all 64 bits, which the
// skew bound depends on.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// vnodeLabel names one virtual node; the '#' separator cannot appear in a
// host:port member name's port half, keeping labels collision-free.
func vnodeLabel(node string, i int) string {
	// Hand-rolled itoa keeps Add allocation-light for large vnode counts.
	buf := make([]byte, 0, len(node)+6)
	buf = append(buf, node...)
	buf = append(buf, '#')
	if i == 0 {
		buf = append(buf, '0')
	} else {
		var digits [5]byte
		n := 0
		for v := i; v > 0; v /= 10 {
			digits[n] = byte('0' + v%10)
			n++
		}
		for j := n - 1; j >= 0; j-- {
			buf = append(buf, digits[j])
		}
	}
	return string(buf)
}

// Add inserts a member and its virtual nodes. Adding an existing member is
// a no-op. Consistent hashing's minimal-movement property holds by
// construction: only keys on arcs immediately counter-clockwise of the new
// member's vnodes change owner, and they all move *to* the new member.
func (r *Ring) Add(node string) {
	if _, ok := r.members[node]; ok {
		return
	}
	r.members[node] = struct{}{}
	for i := 0; i < VNodes; i++ {
		r.points = append(r.points, point{hash: hash64(vnodeLabel(node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties break on the member name so every instance sorts
		// identically — ownership must be deterministic fleet-wide.
		return r.points[i].node < r.points[j].node
	})
}

// Members returns the members in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// search returns the index of the first point clockwise of key's hash
// (wrapping to 0 past the end).
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].node
}

// Successors returns up to n distinct members clockwise from key's
// position, starting with the owner. The peer-fill protocol probes these:
// every instance walks the same order for the same key, so sibling probes
// concentrate on the members most likely to hold (or to be filling) the
// entry.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	start := r.search(key)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
