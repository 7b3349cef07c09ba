package correlation

import (
	"math/bits"

	"deepum/internal/um"
)

// blockSet is an open-addressing hash set of UM blocks that the chain
// walker empties at every kernel transition. Each slot carries the
// generation that wrote it and only slots of the current generation are
// live, so reset is O(1) and the slot array is reused, not reallocated.
// Keys are hashed, never used as indices: a decoded checkpoint may hold any
// int64 block value.
type blockSet struct {
	slots []blockSlot // power-of-two length, linear probing
	shift uint        // 64 - log2(len(slots)), for Fibonacci hashing
	gen   uint32      // stamp of live slots; 0 marks never-written slots
	n     int         // live entries
}

type blockSlot struct {
	b   um.BlockID
	gen uint32
}

const minBlockSetSlots = 64

// add inserts b and reports whether it was absent.
func (s *blockSet) add(b um.BlockID) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := (uint64(b) * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			*sl = blockSlot{b: b, gen: s.gen}
			s.n++
			return true
		}
		if sl.b == b {
			return false
		}
	}
}

// reset empties the set in O(1). When the generation counter wraps, every
// stamp is wiped so no slot written generations ago can read as live.
func (s *blockSet) reset() {
	s.n = 0
	if s.gen++; s.gen == 0 {
		clear(s.slots)
		s.gen = 1
	}
}

// grow doubles the slot array (keeping the load factor at most one half)
// and re-inserts the live entries under a fresh generation.
func (s *blockSet) grow() {
	old, live := s.slots, s.gen
	size := max(2*len(old), minBlockSetSlots)
	s.slots = make([]blockSlot, size)
	s.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	s.gen, s.n = 1, 0
	for _, sl := range old {
		if sl.gen == live {
			s.add(sl.b)
		}
	}
}
