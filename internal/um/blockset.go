package um

import "math/bits"

// BlockSet is a set of UM blocks: open addressing with linear probing over
// a power-of-two slot array, Fibonacci hashing, and backward-shift delete,
// so no tombstones build up. Each slot carries the generation that wrote
// it and only slots of the current generation are live, so Reset empties
// the set in O(1) and the slot array is reused, not reallocated. Blocks
// are hashed, never used as indices: any int64 value is a valid member.
// The zero value is an empty set.
type BlockSet struct {
	slots []blockSlot
	shift uint   // 64 - log2(len(slots))
	gen   uint32 // stamp of live slots; never 0 once slots exist
	n     int    // live entries
}

type blockSlot struct {
	b   BlockID
	gen uint32 // 0 marks a slot no generation has written, or a deleted one
}

const minBlockSetSlots = 64

// home returns b's preferred slot.
func (s *BlockSet) home(b BlockID) uint64 {
	return (uint64(b) * 0x9E3779B97F4A7C15) >> s.shift
}

// Len returns the number of blocks in the set.
func (s *BlockSet) Len() int { return s.n }

// Has reports whether b is in the set.
func (s *BlockSet) Has(b BlockID) bool {
	return s.find(b) >= 0
}

// find returns b's slot, or -1 when b is absent.
func (s *BlockSet) find(b BlockID) int {
	if s.n == 0 {
		return -1
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(b); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			return -1
		}
		if sl.b == b {
			return int(i)
		}
	}
}

// Add inserts b and reports whether it was absent.
func (s *BlockSet) Add(b BlockID) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(b); ; i = (i + 1) & mask {
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

// Delete removes b and reports whether it was present. Each live entry
// after the hole in its probe run moves back into the hole unless that
// would put it before its home slot, so every remaining entry stays
// reachable from its home.
func (s *BlockSet) Delete(b BlockID) bool {
	at := s.find(b)
	if at < 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	hole := uint64(at)
	for j := (hole + 1) & mask; s.slots[j].gen == s.gen; j = (j + 1) & mask {
		if (j-hole)&mask <= (j-s.home(s.slots[j].b))&mask {
			s.slots[hole] = s.slots[j]
			hole = j
		}
	}
	s.slots[hole].gen = 0
	s.n--
	return true
}

// Reset empties the set in O(1). When the generation counter wraps, every
// stamp is wiped so no slot written generations ago can read as live.
func (s *BlockSet) Reset() {
	s.n = 0
	if s.gen++; s.gen == 0 {
		clear(s.slots)
		s.gen = 1
	}
}

// grow doubles the slot array (keeping the load factor at most one half)
// and re-inserts the live entries under a fresh generation.
func (s *BlockSet) grow() {
	old, live := s.slots, s.gen
	size := max(2*len(old), minBlockSetSlots)
	s.slots = make([]blockSlot, size)
	s.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	s.gen, s.n = 1, 0
	for _, sl := range old {
		if sl.gen == live {
			s.Add(sl.b)
		}
	}
}
