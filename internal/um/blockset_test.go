package um

import (
	"math"
	"math/rand"
	"testing"
)

// randomBlockIDs draws n block IDs from the whole int64 range, always
// including the extremes and the values around NoBlock.
func randomBlockIDs(rng *rand.Rand, n int) []BlockID {
	bs := []BlockID{math.MinInt64, math.MaxInt64, NoBlock - 1, NoBlock, NoBlock + 1}
	for len(bs) < n {
		bs = append(bs, BlockID(rng.Uint64()))
	}
	return bs
}

// TestBlockSetMatchesMap holds the set to a Go map under a seeded random
// mix of Add, Has, Delete and Reset, checking every result and the length
// after each operation. Rounds differ in size, so the slot array grows
// while deletes punch holes into its probe runs, and a small pool of
// blocks keeps runs long and collisions frequent.
func TestBlockSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s BlockSet
	for round := 0; round < 200; round++ {
		pool := randomBlockIDs(rng, 8+rng.Intn(600))
		s.Reset()
		want := map[BlockID]bool{}
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			b := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(10); {
			case op < 5:
				if got := s.Add(b); got == want[b] {
					t.Fatalf("round %d op %d: Add(%d) = %v, but present = %v", round, i, b, got, want[b])
				}
				want[b] = true
			case op < 8:
				if got := s.Delete(b); got != want[b] {
					t.Fatalf("round %d op %d: Delete(%d) = %v, but present = %v", round, i, b, got, want[b])
				}
				delete(want, b)
			default:
				if got := s.Has(b); got != want[b] {
					t.Fatalf("round %d op %d: Has(%d) = %v, but present = %v", round, i, b, got, want[b])
				}
			}
			if s.Len() != len(want) {
				t.Fatalf("round %d op %d: Len() = %d, want %d", round, i, s.Len(), len(want))
			}
		}
		for _, b := range pool {
			if s.Has(b) != want[b] {
				t.Fatalf("round %d: Has(%d) = %v at the end, want %v", round, b, s.Has(b), want[b])
			}
		}
	}
}

// TestBlockSetGenerationWrap forces the generation counter to wrap: slots
// stamped in an earlier epoch must not read as present afterwards, and the
// set must work as before once the stamps are wiped.
func TestBlockSetGenerationWrap(t *testing.T) {
	var s BlockSet
	old := randomBlockIDs(rand.New(rand.NewSource(2)), 20)
	for _, b := range old {
		s.Add(b) // stamped with generation 1
	}
	s.gen = math.MaxUint32
	s.Reset() // wraps
	if s.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", s.gen)
	}
	for _, b := range old {
		if s.Has(b) {
			t.Fatalf("block %d stamped before the wrap reads as present", b)
		}
		if !s.Add(b) {
			t.Fatalf("block %d stamped before the wrap reads as present", b)
		}
	}
	for _, b := range old[:10] {
		if !s.Delete(b) {
			t.Fatalf("block %d added after the wrap could not be deleted", b)
		}
	}
	for i, b := range old {
		if s.Has(b) != (i >= 10) {
			t.Fatalf("block %d: Has = %v after deleting the first ten", b, s.Has(b))
		}
	}
	if s.Len() != 10 {
		t.Fatalf("Len() = %d, want 10", s.Len())
	}
}
