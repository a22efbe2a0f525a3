package cluster

// Remove deletes a member and its virtual nodes. Removing an absent member
// is a no-op. Only keys the member owned change owner — each arc falls to
// its clockwise successor.
func (r *Ring) Remove(node string) {
	if _, ok := r.members[node]; !ok {
		return
	}
	delete(r.members, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }
