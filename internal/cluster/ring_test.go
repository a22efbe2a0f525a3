package cluster

import (
	"fmt"
	"testing"
)

// TestRingDistributionSkew pins the bound the ownership design relies on: at
// 128 vnodes, no member of a 3-node ring owns more than 1.25x
// the mean key share. DESIGN.md §10 cites this in place of a dynamic
// bounded-load walk.
func TestRingDistributionSkew(t *testing.T) {
	const keys = 60000
	nodes := []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"}
	r := NewRing()
	for _, n := range nodes {
		r.Add(n)
	}
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("user-%d", i))]++
	}
	mean := float64(keys) / float64(len(nodes))
	for _, n := range nodes {
		skew := float64(counts[n]) / mean
		if skew > 1.25 {
			t.Errorf("node %s owns %d keys = %.3fx mean, want <= 1.25x", n, counts[n], skew)
		}
		if counts[n] == 0 {
			t.Errorf("node %s owns no keys", n)
		}
	}
}

// TestRingMinimalMovementJoin verifies the consistent-hashing contract on
// join: every key whose owner changes moves *to* the new member, never
// between survivors.
func TestRingMinimalMovementJoin(t *testing.T) {
	const keys = 20000
	r := NewRing()
	r.Add("a:1")
	r.Add("b:1")
	r.Add("c:1")
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Owner(fmt.Sprintf("user-%d", i))
	}
	r.Add("d:1")
	moved := 0
	for i := range before {
		after := r.Owner(fmt.Sprintf("user-%d", i))
		if after == before[i] {
			continue
		}
		moved++
		if after != "d:1" {
			t.Fatalf("key user-%d moved %s -> %s, not to the joining node", i, before[i], after)
		}
	}
	// ~1/4 of keys should land on the new member; far more means the ring
	// reshuffled survivors, far fewer means the new member is underweighted.
	if lo, hi := keys/8, keys/2; moved < lo || moved > hi {
		t.Errorf("join moved %d/%d keys, want within [%d, %d]", moved, keys, lo, hi)
	}
}

// TestRingMinimalMovementLeave verifies the contract on leave: only keys the
// departed member owned change owner.
func TestRingMinimalMovementLeave(t *testing.T) {
	const keys = 20000
	r := NewRing()
	for _, n := range []string{"a:1", "b:1", "c:1"} {
		r.Add(n)
	}
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Owner(fmt.Sprintf("user-%d", i))
	}
	r.Remove("b:1")
	for i := range before {
		after := r.Owner(fmt.Sprintf("user-%d", i))
		if before[i] != "b:1" && after != before[i] {
			t.Fatalf("key user-%d owned by survivor %s moved to %s on unrelated leave", i, before[i], after)
		}
		if after == "b:1" {
			t.Fatalf("key user-%d still owned by removed node", i)
		}
	}
}

// TestRingDeterminism: two independently built rings with the same
// membership agree on every owner regardless of insertion order — the
// property the whole fleet-wide routing scheme rests on.
func TestRingDeterminism(t *testing.T) {
	r1 := NewRing()
	r2 := NewRing()
	for _, n := range []string{"a:1", "b:1", "c:1"} {
		r1.Add(n)
	}
	for _, n := range []string{"c:1", "a:1", "b:1"} {
		r2.Add(n)
	}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("user-%d", i)
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("rings disagree on %s: %s vs %s", k, r1.Owner(k), r2.Owner(k))
		}
	}
}

// TestRingSuccessors checks the sibling-walk order: distinct members, owner
// first, capped at the member count.
func TestRingSuccessors(t *testing.T) {
	r := NewRing()
	for _, n := range []string{"a:1", "b:1", "c:1"} {
		r.Add(n)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("user-%d", i)
		succ := r.Successors(k, 5)
		if len(succ) != 3 {
			t.Fatalf("Successors(%q, 5) = %v, want all 3 distinct members", k, succ)
		}
		if succ[0] != r.Owner(k) {
			t.Fatalf("Successors(%q)[0] = %s, want owner %s", k, succ[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("Successors(%q) repeats %s", k, s)
			}
			seen[s] = true
		}
	}
}

// TestRingEmptyAndSingle covers the degenerate shapes the proxy hits while
// probes are still deciding peers are dead.
func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing()
	if got := r.Owner("k"); got != "" {
		t.Fatalf("empty ring Owner = %q, want empty", got)
	}
	if got := r.Successors("k", 3); got != nil {
		t.Fatalf("empty ring Successors = %v, want nil", got)
	}
	r.Add("only:1")
	if got := r.Owner("k"); got != "only:1" {
		t.Fatalf("single ring Owner = %q", got)
	}
	r.Add("only:1") // duplicate add is a no-op
	if n := len(r.points); n != VNodes {
		t.Fatalf("duplicate Add grew points to %d, want %d", n, VNodes)
	}
	r.Remove("absent:1") // absent remove is a no-op
	if r.Len() != 1 {
		t.Fatalf("Len = %d after no-op remove, want 1", r.Len())
	}
}
