package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// reference reimplements the fan-out half of the pre-policy inline decision
// logic of internal/proxy — the depth ceiling from the old runPrefetch chain
// gate — independently of Hooks.decide, so the differential test pins the
// static policy to the historical behaviour rather than to its own
// implementation. (The issue-time half — probability, data budget, backoff,
// breaker — is pinned in internal/proxy's TestStaticChainOrderDifferential.)
func reference(maxDepth int, c Candidate) Decision {
	d := Decision{Candidate: c, Keep: true, Score: c.Prior}
	if c.Depth > 0 && c.Depth > maxDepth {
		d.Keep = false
		d.KeepReason = ReasonDepth
	}
	return d
}

// TestStaticDifferentialIdentity pins the static policy byte-identical to
// the pre-policy chain behaviour across >1000 randomized candidate batches
// and depth ceilings: same keep verdicts, same reasons, same scores, same
// order.
func TestStaticDifferentialIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 1200; iter++ {
		maxDepth := 1 + rng.Intn(5)
		n := 1 + rng.Intn(12)
		cands := make([]Candidate, n)
		want := make([]Decision, n)
		for i := range cands {
			cands[i] = Candidate{
				SigID: fmt.Sprintf("sig%d", rng.Intn(8)),
				Depth: rng.Intn(8),
				Index: i,
				Prior: rng.Float64(),
			}
			want[i] = reference(maxDepth, cands[i])
		}
		got := NewStatic(Hooks{MaxDepth: maxDepth}).Rank("u", "from", cands)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: static diverged from reference\n got %+v\nwant %+v", iter, got, want)
		}
	}
}

// TestStaticNilHooksPermissive: a static policy over the zero Hooks has no
// depth ceiling — every candidate keeps and scores by its prior.
func TestStaticNilHooksPermissive(t *testing.T) {
	cands := []Candidate{
		{SigID: "a", Depth: 30, Prior: 0.5},
		{SigID: "b", Depth: 0, Prior: 1},
	}
	for i, d := range NewStatic(Hooks{}).Rank("u", "", cands) {
		if !d.Keep || d.Score != cands[i].Prior {
			t.Fatalf("candidate %d gated by zero hooks: %+v", i, d)
		}
	}
}

// TestStaticPreservesOrder: static never reorders — output decisions carry
// the input candidates in input order.
func TestStaticPreservesOrder(t *testing.T) {
	cands := make([]Candidate, 20)
	for i := range cands {
		cands[i] = Candidate{SigID: fmt.Sprintf("s%d", i), Index: i, Prior: float64(20-i) / 20}
	}
	ds := NewStatic(Hooks{}).Rank("u", "from", cands)
	for i, d := range ds {
		if d.SigID != cands[i].SigID || d.Index != i {
			t.Fatalf("order changed at %d: %+v", i, d)
		}
	}
}

// TestHooksDecideDepth: the depth rule is the exact complement of the old
// `depth < MaxChainDepth` chain gate — live fan-out (depth 0) is never
// pruned, chained candidates prune strictly beyond MaxDepth.
func TestHooksDecideDepth(t *testing.T) {
	h := Hooks{MaxDepth: 2}
	for depth, wantKeep := range map[int]bool{0: true, 1: true, 2: true, 3: false, 4: false} {
		d := h.decide(Candidate{SigID: "s", Depth: depth, Prior: 1})
		if d.Keep != wantKeep {
			t.Fatalf("depth %d: keep = %v, want %v", depth, d.Keep, wantKeep)
		}
		if !wantKeep && d.KeepReason != ReasonDepth {
			t.Fatalf("depth %d: reason = %q", depth, d.KeepReason)
		}
	}
}
