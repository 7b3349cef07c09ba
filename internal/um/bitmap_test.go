package um

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"deepum/internal/sim"
)

// setBits counts the blocks in m.
func setBits(m *Bitmap) int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestResidencyBitmapMatchesMap drives a residency with random Insert,
// Remove and TopUp calls and holds its bitmap to a reference map after
// every call: Resident and Has agree with the map, and Count is the number
// of set bits.
func TestResidencyBitmapMatchesMap(t *testing.T) {
	for trial := int64(0); trial < 50; trial++ {
		rng := rand.New(rand.NewSource(trial))
		s := NewSpace(0)
		r := NewResidency(s, 1<<40)
		m := r.Bitmap()
		ref := map[BlockID]bool{}
		span := 1 + rng.Intn(300) // blocks drawn from [0, span)
		for op := 0; op < 500; op++ {
			b := BlockID(rng.Intn(span))
			switch rng.Intn(3) {
			case 0:
				r.Insert(b, 1+rng.Int63n(sim.PagesPerBlock), sim.Time(op), sim.Time(op))
				ref[b] = true
			case 1:
				r.Remove(b)
				delete(ref, b)
			case 2:
				r.TopUp(b, rng.Int63n(8)) // never makes a block resident
			}
			for c := BlockID(0); c < BlockID(span)+64; c++ {
				if r.Resident(c) != ref[c] || m.Has(c) != ref[c] {
					t.Fatalf("trial %d op %d: block %d Resident %v, Has %v, want %v", trial, op, c, r.Resident(c), m.Has(c), ref[c])
				}
			}
			if r.Count() != len(ref) || setBits(m) != len(ref) {
				t.Fatalf("trial %d op %d: Count %d, %d bits set, want %d", trial, op, r.Count(), setBits(m), len(ref))
			}
		}
	}
}

// TestResidencyBitmapOutOfRange: IDs no allocation or residency ever
// reached read as absent and grow neither the bitmap nor the block table;
// a nil bitmap is empty.
func TestResidencyBitmapOutOfRange(t *testing.T) {
	s := NewSpace(0)
	r := NewResidency(s, 1<<40)
	for _, b := range []BlockID{3, 64, 65, 200} {
		r.Insert(b, 1, 0, 0)
	}
	m := r.Bitmap()
	words, blocks := len(m.words), len(s.blocks)
	for _, b := range []BlockID{-2, NoBlock, 201, 1 << 21, math.MaxInt64, math.MinInt64} {
		if r.Resident(b) || m.Has(b) {
			t.Fatalf("block %d reads resident", b)
		}
		r.Remove(b)
		r.TopUp(b, 4)
	}
	if len(m.words) != words || len(s.blocks) != blocks {
		t.Fatalf("reads grew the bitmap %d -> %d words, the block table %d -> %d blocks", words, len(m.words), blocks, len(s.blocks))
	}
	if r.Count() != 4 || setBits(m) != 4 {
		t.Fatalf("Count %d, %d bits set, want 4", r.Count(), setBits(m))
	}
	var none *Bitmap
	if none.Has(0) || none.Has(NoBlock) {
		t.Fatal("a nil bitmap holds a block")
	}
}

// TestBitmapWordMatchesHas holds Word to Has: for every block of a random
// set, bit b&63 of Word(b) is Has(b), and the word is the same for every
// block of one 64-block word. A nil bitmap, a negative ID and a word past
// the end read as empty, and reading grows nothing.
func TestBitmapWordMatchesHas(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial))
		r := NewResidency(NewSpace(0), 1<<40)
		span := 1 + rng.Intn(600)
		for i := 0; i < span/2; i++ {
			r.Insert(BlockID(rng.Intn(span)), 1, 0, 0)
		}
		m := r.Bitmap()
		words := len(m.words)
		for b := BlockID(0); b < BlockID(words*64+128); b++ {
			w := m.Word(b)
			if got := w>>(uint64(b)&63)&1 == 1; got != m.Has(b) {
				t.Fatalf("trial %d: bit %d of Word(%d) is %v, Has says %v", trial, b&63, b, got, m.Has(b))
			}
			if w != m.Word(b&^63) {
				t.Fatalf("trial %d: Word(%d) = %#x, Word(%d) = %#x", trial, b, w, b&^63, m.Word(b&^63))
			}
			if b >= BlockID(words*64) && w != 0 {
				t.Fatalf("trial %d: Word(%d) past the last word is %#x", trial, b, w)
			}
		}
		for _, b := range []BlockID{-1, NoBlock, -64, -65, math.MinInt64, math.MaxInt64, BlockID(words) << 6, 1 << 40} {
			if w := m.Word(b); w != 0 {
				t.Fatalf("trial %d: Word(%d) = %#x, want an empty word", trial, b, w)
			}
		}
		if len(m.words) != words {
			t.Fatalf("trial %d: reads grew the bitmap %d -> %d words", trial, words, len(m.words))
		}
	}
	var none *Bitmap
	for _, b := range []BlockID{0, 63, NoBlock, math.MaxInt64} {
		if none.Word(b) != 0 {
			t.Fatalf("a nil bitmap's Word(%d) is not empty", b)
		}
	}
}
