package correlation

import (
	"math/bits"
	"slices"

	"deepum/internal/um"
)

// BlockTableConfig holds the tunable parameters of a UM-block correlation
// table, the subject of the §6.3 sensitivity analysis (Table 6 / Figure 12).
type BlockTableConfig struct {
	// NumRows is the number of sets in the table.
	NumRows int
	// Assoc is the set associativity: how many distinct UM blocks can map to
	// the same row before replacement.
	Assoc int
	// NumSuccs is the number of immediate successor blocks kept per entry,
	// MRU-ordered.
	NumSuccs int
	// NumLevels is the number of predecessor levels updated per miss. DeepUM
	// uses a single level because the prefetching thread does chaining
	// (§4.2); the classic pair-based prefetcher of §4.1 uses two.
	NumLevels int
}

// DefaultBlockTableConfig is the paper's best configuration (Config9 of
// Table 6, used for all headline results): 2048 rows, 2-way, 4 successors,
// one level.
func DefaultBlockTableConfig() BlockTableConfig {
	return BlockTableConfig{NumRows: 2048, Assoc: 2, NumSuccs: 4, NumLevels: 1}
}

// BlockTable records the history of UM-block accesses within the kernel of
// one execution ID (Figure 7). Besides the set-associative correlation
// array it keeps the Start block (first faulted block after the kernel
// began) and the End block (last faulted block before the next kernel), the
// anchors of cross-kernel chaining.
//
// The array takes memory only for the rows that have held an entry. Each
// such row owns a group of Assoc ways laid side by side in tags, way 0 MRU;
// each way owns NumLevels successor lists of NumSuccs slots in succs, with
// their lengths in nsuccs; and index maps a row to its group. None of these
// slices holds a pointer, so the collector never scans them.
type BlockTable struct {
	cfg BlockTableConfig

	index []rowSlot // open addressing, power-of-two length, linear probing
	shift uint      // 64 - log2(len(index)), for Fibonacci hashing
	// nways[g] is the number of valid ways of group g, whose tags are
	// tags[g*Assoc:][:nways[g]]. Groups are never freed: a row keeps its
	// ways once it has any, as the paper's fixed array does.
	nways []int32
	tags  []um.BlockID
	// List i = (g*Assoc+way)*NumLevels+level holds up to NumSuccs
	// successor blocks, MRU first, in succs[i*NumSuccs:][:nsuccs[i]].
	succs  []um.BlockID
	nsuccs []int32

	// Start is the first faulted UM block observed right after the
	// transition into this execution ID.
	Start um.BlockID
	// End is the last faulted UM block observed right before the transition
	// out of this execution ID.
	End um.BlockID

	// last[level] are the most recent misses: last[0] is the previous miss,
	// last[1] the one before it, and so on (Last/SecondLast of §4.1).
	last []um.BlockID
	// pendingStart marks that the next miss is the first of a new kernel
	// invocation and should re-capture Start (§4.2: "Start UM block is the
	// UM block where the first faulted page resides that occurred right
	// after the execution ID transition").
	pendingStart bool

	// version counts changes to what a chain walk reads. RecordMiss is the
	// only place where successor lists, Start and End change, and it bumps
	// version; a lookup's MRU move reorders ways but changes no list. It
	// starts at 1, so a zero plan version marks no plan.
	version uint64
	// plan is the chain walk from Start, built on first use at each
	// version (startPlan).
	plan walkPlan
	// stable is the MRU-stable flag: set once a replay of a conflict-free
	// plan has walked its last head, cleared by RecordMiss and by any MRU
	// move of a way other than way 0. While it holds, every head of plan
	// sits at way 0 of its group, so replaying the plan's touches would
	// change nothing.
	stable bool
}

// walkPlan records one breadth-first chain walk of a block table: the
// blocks in discovery order, the frontier first, and for each head walked
// the discovered count after it and its group. A cursor replays a plan
// instead of re-reading successor lists, so an emit is a slice read and a
// head's MRU move is a touch of a known group.
type walkPlan struct {
	blocks []um.BlockID
	heads  []planHead
	// words are the residency-bitmap words the blocks occupy, one entry
	// per word, for a start plan whose heads are conflict-free: no two
	// share a group. It is empty for any other plan, which is never
	// stepped over.
	words []planWord
	// frontier is how many blocks the walk starts from; first is the first
	// block emitted, 1 when a seed leads the frontier (it is walked, never
	// emitted).
	frontier, first int
	version         uint64 // the table version the plan was built at
}

// planWord is one bitmap word of a plan: the word holding block at, and
// the bits of the plan's blocks in it.
type planWord struct {
	at   um.BlockID
	mask uint64
}

// planHead is head i = blocks[i] of a plan: after is len(blocks) once it
// has been walked, and group is its group, or -1 when it has no entry.
type planHead struct {
	after, group int32
}

// rowSlot maps an occupied row to its group.
type rowSlot struct {
	row   int
	group int // group number plus one; zero marks an empty slot
}

const minRowIndexSlots = 8

// NewBlockTable returns an empty table with the given configuration.
// Invalid configuration fields are raised to 1.
func NewBlockTable(cfg BlockTableConfig) *BlockTable {
	if cfg.NumRows < 1 {
		cfg.NumRows = 1
	}
	if cfg.Assoc < 1 {
		cfg.Assoc = 1
	}
	if cfg.NumSuccs < 1 {
		cfg.NumSuccs = 1
	}
	if cfg.NumLevels < 1 {
		cfg.NumLevels = 1
	}
	t := &BlockTable{
		cfg:          cfg,
		Start:        um.NoBlock,
		End:          um.NoBlock,
		last:         make([]um.BlockID, cfg.NumLevels),
		pendingStart: true,
		version:      1,
	}
	for i := range t.last {
		t.last[i] = um.NoBlock
	}
	return t
}

// Config returns the table's configuration.
func (t *BlockTable) Config() BlockTableConfig { return t.cfg }

func (t *BlockTable) row(b um.BlockID) int {
	// Multiplicative hash over the block number; block numbers of one model
	// are dense, so a simple mix spreads them across rows.
	x := uint64(b) * 0x9E3779B97F4A7C15
	return int(x % uint64(t.cfg.NumRows))
}

// group returns the group of row, or -1 when the row has never held an
// entry.
func (t *BlockTable) group(row int) int {
	if len(t.index) == 0 {
		return -1
	}
	return t.slot(row).group - 1
}

// slot returns the index slot of row, or the empty slot where it would go.
func (t *BlockTable) slot(row int) *rowSlot {
	mask := uint64(len(t.index) - 1)
	for i := (uint64(row) * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		if sl := &t.index[i]; sl.group == 0 || sl.row == row {
			return sl
		}
	}
}

// addGroup gives row a group of Assoc empty ways and returns it. The row
// must have none yet.
func (t *BlockTable) addGroup(row int) int {
	g := len(t.nways)
	if 2*(g+1) > len(t.index) {
		t.growIndex()
	}
	*t.slot(row) = rowSlot{row: row, group: g + 1}
	ways, lists := t.cfg.Assoc, t.cfg.Assoc*t.cfg.NumLevels
	t.nways = append(t.nways, 0)
	t.tags = append(t.tags, make([]um.BlockID, ways)...)
	t.nsuccs = append(t.nsuccs, make([]int32, lists)...)
	t.succs = append(t.succs, make([]um.BlockID, lists*t.cfg.NumSuccs)...)
	return g
}

// growIndex doubles the row index, keeping its load factor at most one
// half.
func (t *BlockTable) growIndex() {
	t.resizeIndex(max(2*len(t.index), minRowIndexSlots))
}

// resizeIndex rebuilds the row index with size slots, a power of two.
func (t *BlockTable) resizeIndex(size int) {
	old := t.index
	t.index = make([]rowSlot, size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for _, sl := range old {
		if sl.group != 0 {
			*t.slot(sl.row) = sl
		}
	}
}

// reserve sizes the slabs and the row index of an empty table for groups
// groups, so adding that many allocates nothing more.
func (t *BlockTable) reserve(groups int) {
	if groups == 0 {
		return
	}
	lists := groups * t.cfg.Assoc * t.cfg.NumLevels
	t.nways = make([]int32, 0, groups)
	t.tags = make([]um.BlockID, 0, groups*t.cfg.Assoc)
	t.nsuccs = make([]int32, 0, lists)
	t.succs = make([]um.BlockID, 0, lists*t.cfg.NumSuccs)
	size := minRowIndexSlots
	for size < 2*groups {
		size *= 2
	}
	t.resizeIndex(size)
}

// find returns the group holding b, after moving b's entry to way 0 (MRU
// within the set), or -1 if b has no entry. With insert set a missing b
// gets way 0, and a full row drops its LRU way to make room.
func (t *BlockTable) find(b um.BlockID, insert bool) int {
	row := t.row(b)
	g := t.group(row)
	if g < 0 {
		if !insert {
			return -1
		}
		g = t.addGroup(row)
	}
	if way := t.wayOf(g, b); way >= 0 {
		t.toFront(g, way)
		return g
	}
	if !insert {
		return -1
	}
	first, n := g*t.cfg.Assoc, int(t.nways[g])
	if n < t.cfg.Assoc {
		n++
		t.nways[g] = int32(n)
	}
	// Way n-1 is either free or the LRU entry; it becomes the new entry.
	t.toFront(g, n-1)
	t.tags[first] = b
	clear(t.nsuccs[first*t.cfg.NumLevels:][:t.cfg.NumLevels])
	return g
}

// wayOf returns the way of group g that holds b, or -1.
func (t *BlockTable) wayOf(g int, b um.BlockID) int {
	first := g * t.cfg.Assoc
	return slices.Index(t.tags[first:first+int(t.nways[g])], b)
}

// toFront moves way w of group g, with its successor lists, to way 0 and
// shifts ways 0..w-1 back by one.
func (t *BlockTable) toFront(g, w int) {
	if w == 0 {
		return
	}
	t.stable = false
	first, levels := g*t.cfg.Assoc, t.cfg.NumLevels
	rotateRight(t.tags[first:][:w+1], 1)
	rotateRight(t.nsuccs[first*levels:][:(w+1)*levels], levels)
	span := levels * t.cfg.NumSuccs
	rotateRight(t.succs[first*span:][:(w+1)*span], span)
}

// rotateRight moves the last k elements of s to its front, in place.
func rotateRight[T any](s []T, k int) {
	slices.Reverse(s)
	slices.Reverse(s[:k])
	slices.Reverse(s[k:])
}

// RecordMiss feeds one faulted UM block into the table: b becomes the
// level-l successor of the l-th previous miss for every level, MRU-ordered
// and deduplicated, exactly like the pair-based scheme of Figure 5 restricted
// to the configured number of levels.
func (t *BlockTable) RecordMiss(b um.BlockID) {
	t.version++
	t.stable = false
	for level := 0; level < t.cfg.NumLevels; level++ {
		pred := t.last[level]
		if pred == um.NoBlock || pred == b {
			continue
		}
		g := t.find(pred, true)
		t.mruInsert(g*t.cfg.Assoc*t.cfg.NumLevels+level, b)
	}
	// Shift the miss history.
	copy(t.last[1:], t.last[:len(t.last)-1])
	t.last[0] = b
	if t.pendingStart {
		t.Start = b
		t.pendingStart = false
	}
	t.End = b
}

// mruInsert puts b at the front of list i, removing an existing occurrence
// and dropping the last block when the list is full.
func (t *BlockTable) mruInsert(i int, b um.BlockID) {
	list := t.succs[i*t.cfg.NumSuccs:][:t.cfg.NumSuccs]
	n := int(t.nsuccs[i])
	at := slices.Index(list[:n], b)
	if at < 0 {
		if n < len(list) {
			n++
			t.nsuccs[i] = int32(n)
		}
		at = n - 1
	}
	copy(list[1:at+1], list[:at])
	list[0] = b
}

// Successors returns the level-0 successor blocks of b, MRU first, or nil if
// b has none. Like every lookup it moves b's entry to the MRU way of its
// set. The returned slice aliases the table: it is valid until the next
// call on the table, and callers must not modify it.
func (t *BlockTable) Successors(b um.BlockID) []um.BlockID {
	return t.SuccessorsAt(b, 0)
}

// SuccessorsAt returns the successor list at the given level, under the
// same rules as Successors.
func (t *BlockTable) SuccessorsAt(b um.BlockID, level int) []um.BlockID {
	g := t.find(b, false)
	if g < 0 || level < 0 || level >= t.cfg.NumLevels {
		return nil
	}
	i := g*t.cfg.Assoc*t.cfg.NumLevels + level
	n := int(t.nsuccs[i])
	if n == 0 {
		return nil
	}
	lo := i * t.cfg.NumSuccs
	return t.succs[lo : lo+n : lo+n]
}

// planScratch is the plan builder's scratch space, reused across builds.
type planScratch struct {
	seen   um.BlockSet
	sorted []um.BlockID
}

// startPlan returns the chain walk from Start at the table's current
// version, building it and its words on first use.
func (t *BlockTable) startPlan(s *planScratch) *walkPlan {
	if p := &t.plan; p.version != t.version {
		t.buildPlan(p, um.NoBlock, &s.seen)
		p.setWords(s)
	}
	return &t.plan
}

// setWords records the bitmap words of p's blocks, or none when two of
// its heads share a group: replaying such a plan moves one of them off
// way 0, so the table never stays MRU-stable under it. The words are
// allocated at their exact count, and only when the last build's do not
// fit.
func (p *walkPlan) setWords(s *planScratch) {
	p.words = p.words[:0]
	s.seen.Reset()
	for _, h := range p.heads {
		if h.group >= 0 && !s.seen.Add(um.BlockID(h.group)) {
			return
		}
	}
	// Sorted, the blocks of one word are adjacent: a word is b>>6, and
	// negative IDs form words of their own that no bitmap holds.
	s.sorted = append(s.sorted[:0], p.blocks...)
	slices.Sort(s.sorted)
	n := 0
	for i, b := range s.sorted {
		if i == 0 || b>>6 != s.sorted[i-1]>>6 {
			n++
		}
	}
	if cap(p.words) < n {
		p.words = make([]planWord, 0, n)
	}
	for i, b := range s.sorted {
		if i == 0 || b>>6 != s.sorted[i-1]>>6 {
			p.words = append(p.words, planWord{at: b})
		}
		p.words[len(p.words)-1].mask |= 1 << (uint64(b) & 63)
	}
}

// allResident reports whether resident holds every block of p. A plan
// without words never reads as all resident.
func (p *walkPlan) allResident(resident *um.Bitmap) bool {
	for _, w := range p.words {
		if resident.Word(w.at)&w.mask != w.mask {
			return false
		}
	}
	return len(p.words) > 0
}

// buildPlan records into p the breadth-first walk from seed (unless it is
// NoBlock) and Start: each head's level-0 successors join the walk once,
// in MRU order, skipping NoBlock. The walk ends after the head that
// discovers End, since emitting End ends prefetching for the kernel, or
// when no head is left. It reads without MRU moves: the replay makes them.
func (t *BlockTable) buildPlan(p *walkPlan, seed um.BlockID, seen *um.BlockSet) {
	p.blocks, p.heads, p.first = p.blocks[:0], p.heads[:0], 0
	p.version = t.version
	seen.Reset()
	if seed != um.NoBlock {
		p.blocks = append(p.blocks, seed)
		seen.Add(seed)
		p.first = 1
	}
	if t.Start != um.NoBlock && seen.Add(t.Start) {
		p.blocks = append(p.blocks, t.Start)
	}
	p.frontier = len(p.blocks)
	sawEnd := t.Start == t.End && p.frontier > p.first
	for w := 0; !sawEnd && w < len(p.blocks); w++ {
		g, succs := t.peek(p.blocks[w])
		for _, s := range succs {
			if s != um.NoBlock && seen.Add(s) {
				p.blocks = append(p.blocks, s)
				sawEnd = sawEnd || s == t.End
			}
		}
		p.heads = append(p.heads, planHead{after: int32(len(p.blocks)), group: int32(g)})
	}
}

// peek returns the group holding b and b's level-0 successors without
// moving b's entry, or -1 and nil when b has no entry. The slice aliases
// the table.
func (t *BlockTable) peek(b um.BlockID) (int, []um.BlockID) {
	g := t.group(t.row(b))
	if g < 0 {
		return -1, nil
	}
	way := t.wayOf(g, b)
	if way < 0 {
		return -1, nil
	}
	i := (g*t.cfg.Assoc + way) * t.cfg.NumLevels
	return g, t.succs[i*t.cfg.NumSuccs:][:t.nsuccs[i]]
}

// touch moves b's entry to the MRU way of group g, as a lookup of b does.
func (t *BlockTable) touch(g int, b um.BlockID) {
	if way := t.wayOf(g, b); way > 0 {
		t.toFront(g, way)
	}
}

// ResetCursor clears the miss-history pointers at a kernel-invocation
// boundary so that the first miss of the next invocation does not correlate
// with the last miss of an unrelated kernel. Start/End survive: they anchor
// chaining.
func (t *BlockTable) ResetCursor() {
	for i := range t.last {
		t.last[i] = um.NoBlock
	}
	t.pendingStart = true
}

// Entries returns the number of valid entries across all sets.
func (t *BlockTable) Entries() int {
	n := 0
	for _, w := range t.nways {
		n += int(w)
	}
	return n
}

// sortedRows appends the table's (row, group) pairs to dst in row order.
func (t *BlockTable) sortedRows(dst []rowSlot) []rowSlot {
	for _, sl := range t.index {
		if sl.group != 0 {
			dst = append(dst, rowSlot{row: sl.row, group: sl.group - 1})
		}
	}
	slices.SortFunc(dst, func(a, b rowSlot) int { return a.row - b.row })
	return dst
}

// SizeBytes estimates the memory footprint of the table as allocated by the
// DeepUM driver: the full NumRows x Assoc array of entries, each holding a
// tag and NumLevels x NumSuccs successor slots, plus the table header. This
// matches the paper's Table 4 accounting, where a table is allocated in full
// when a new execution ID appears. It is the driver's cost, not this
// table's heap, which holds only the rows that have held an entry.
func (t *BlockTable) SizeBytes() int64 {
	entryBytes := int64(8 + t.cfg.NumLevels*t.cfg.NumSuccs*8)
	return int64(t.cfg.NumRows)*int64(t.cfg.Assoc)*entryBytes + 64
}
