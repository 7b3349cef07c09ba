package um

// Bitmap is a dense set of UM blocks, one bit per block ID from zero up to
// the highest block ever added. The residency manager keeps the set of
// resident blocks in one and is its only writer; a prefetch policy reads it
// to skip blocks already on the device. Reading never grows it: a negative
// ID, or one past the last word, is absent. A nil Bitmap is empty.
type Bitmap struct {
	words []uint64
}

// Has reports whether b is in the set.
func (m *Bitmap) Has(b BlockID) bool {
	if m == nil {
		return false
	}
	w := uint64(b) >> 6 // a negative ID wraps far past the last word
	return w < uint64(len(m.words)) && m.words[w]&(1<<(uint64(b)&63)) != 0
}

// Word returns the word of the set that holds b: bit i is block
// b&^63 + i. Like Has it never grows the set: for a nil Bitmap, a
// negative ID or one past the last word it returns an empty word.
func (m *Bitmap) Word(b BlockID) uint64 {
	if m == nil {
		return 0
	}
	if w := uint64(b) >> 6; w < uint64(len(m.words)) {
		return m.words[w]
	}
	return 0
}

// add inserts b, growing the words to cover it; b must not be negative.
func (m *Bitmap) add(b BlockID) {
	w := int(b >> 6)
	if w >= len(m.words) {
		m.words = append(m.words, make([]uint64, w+1-len(m.words))...)
	}
	m.words[w] |= 1 << (uint64(b) & 63)
}

// remove deletes b, which must be in the set.
func (m *Bitmap) remove(b BlockID) {
	m.words[b>>6] &^= 1 << (uint64(b) & 63)
}
