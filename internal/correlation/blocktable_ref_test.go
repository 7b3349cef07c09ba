package correlation

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"deepum/internal/um"
)

// refBlockTable lays the block table out the way the paper's driver sizes
// it: a [][]entry array with a row header for each of NumRows rows, an
// entry struct per way and a slice per successor list.
// TestBlockTableMatchesReference holds BlockTable to it step for step.
type refBlockTable struct {
	cfg          BlockTableConfig
	sets         [][]refEntry // sets[row][way], way 0 = MRU
	entries      int          // valid ways over all rows
	start, end   um.BlockID
	last         []um.BlockID
	pendingStart bool
}

type refEntry struct {
	tag   um.BlockID
	succs [][]um.BlockID // succs[level], MRU first
}

func newRefBlockTable(cfg BlockTableConfig) *refBlockTable {
	t := &refBlockTable{cfg: cfg, sets: make([][]refEntry, cfg.NumRows),
		start: um.NoBlock, end: um.NoBlock, last: make([]um.BlockID, cfg.NumLevels), pendingStart: true}
	for i := range t.last {
		t.last[i] = um.NoBlock
	}
	return t
}

func (t *refBlockTable) find(b um.BlockID, insert bool) *refEntry {
	row := int(uint64(b) * 0x9E3779B97F4A7C15 % uint64(t.cfg.NumRows))
	set := t.sets[row]
	for i := range set {
		if set[i].tag == b {
			e := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = e
			return &set[0]
		}
	}
	if !insert {
		return nil
	}
	e := refEntry{tag: b, succs: make([][]um.BlockID, t.cfg.NumLevels)}
	if len(set) < t.cfg.Assoc {
		set = append([]refEntry{e}, set...)
		t.entries++
	} else {
		copy(set[1:], set[:len(set)-1])
		set[0] = e
	}
	t.sets[row] = set
	return &t.sets[row][0]
}

func (t *refBlockTable) recordMiss(b um.BlockID) {
	for level := 0; level < t.cfg.NumLevels; level++ {
		pred := t.last[level]
		if pred == um.NoBlock || pred == b {
			continue
		}
		e := t.find(pred, true)
		list := e.succs[level]
		if i := slices.Index(list, b); i >= 0 {
			copy(list[1:i+1], list[:i])
			list[0] = b
			continue
		}
		list = append([]um.BlockID{b}, list...)
		e.succs[level] = list[:min(len(list), t.cfg.NumSuccs)]
	}
	copy(t.last[1:], t.last[:len(t.last)-1])
	t.last[0] = b
	if t.pendingStart {
		t.start = b
		t.pendingStart = false
	}
	t.end = b
}

func (t *refBlockTable) successorsAt(b um.BlockID, level int) []um.BlockID {
	e := t.find(b, false)
	if e == nil || level < 0 || level >= len(e.succs) {
		return nil
	}
	return e.succs[level]
}

func (t *refBlockTable) resetCursor() {
	for i := range t.last {
		t.last[i] = um.NoBlock
	}
	t.pendingStart = true
}

// encode writes the payload of a table set holding no execution records
// and t as the block table of id, in the dense checkpoint layout: a way
// count for every row.
func (t *refBlockTable) encode(id ExecID) []byte {
	le := binary.LittleEndian
	var buf []byte
	for _, v := range []int{t.cfg.NumRows, t.cfg.Assoc, t.cfg.NumSuccs, t.cfg.NumLevels, 0, 1, int(id)} {
		buf = le.AppendUint32(buf, uint32(v))
	}
	buf = le.AppendUint64(buf, uint64(t.start))
	buf = le.AppendUint64(buf, uint64(t.end))
	for _, b := range t.last {
		buf = le.AppendUint64(buf, uint64(b))
	}
	if t.pendingStart {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, set := range t.sets {
		buf = le.AppendUint32(buf, uint32(len(set)))
		for _, e := range set {
			buf = le.AppendUint64(buf, uint64(e.tag))
			for _, succs := range e.succs {
				buf = le.AppendUint32(buf, uint32(len(succs)))
				for _, s := range succs {
					buf = le.AppendUint64(buf, uint64(s))
				}
			}
		}
	}
	return buf
}

// encodeSparse writes the same payload in the sparse layout: a zero word
// and the layout number before the config, and for the block table the
// count of occupied rows, then each one's row index and ways.
func (t *refBlockTable) encodeSparse(id ExecID) []byte {
	le := binary.LittleEndian
	var buf []byte
	for _, v := range []int{0, 1, t.cfg.NumRows, t.cfg.Assoc, t.cfg.NumSuccs, t.cfg.NumLevels, 0, 1, int(id)} {
		buf = le.AppendUint32(buf, uint32(v))
	}
	buf = le.AppendUint64(buf, uint64(t.start))
	buf = le.AppendUint64(buf, uint64(t.end))
	for _, b := range t.last {
		buf = le.AppendUint64(buf, uint64(b))
	}
	if t.pendingStart {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	occupied := 0
	for _, set := range t.sets {
		if len(set) > 0 {
			occupied++
		}
	}
	buf = le.AppendUint32(buf, uint32(occupied))
	for row, set := range t.sets {
		if len(set) == 0 {
			continue
		}
		buf = le.AppendUint32(buf, uint32(row))
		buf = le.AppendUint32(buf, uint32(len(set)))
		for _, e := range set {
			buf = le.AppendUint64(buf, uint64(e.tag))
			for _, succs := range e.succs {
				buf = le.AppendUint32(buf, uint32(len(succs)))
				for _, s := range succs {
					buf = le.AppendUint64(buf, uint64(s))
				}
			}
		}
	}
	return buf
}

// TestBlockTableMatchesReference drives BlockTable and the reference with
// the same seeded streams of misses, lookups and cursor resets, over
// geometries from one row to the paper's 2048 and block IDs from the whole
// int64 range. After every step the lookups, Entries, Start and End must
// agree. Halfway through, the table is swapped for its own decoded
// checkpoint, whose groups are numbered in row order rather than in
// insertion order. At the end the table must encode to the reference's
// sparse bytes, and the reference's dense bytes must decode to tables that
// encode to them too.
func TestBlockTableMatchesReference(t *testing.T) {
	const id = ExecID(7)
	for _, rows := range []int{1, 7, 2048} {
		for _, assoc := range []int{1, 2, 8} {
			for _, succs := range []int{1, 4} {
				for _, levels := range []int{1, 2} {
					cfg := BlockTableConfig{NumRows: rows, Assoc: assoc, NumSuccs: succs, NumLevels: levels}
					for seed := int64(0); seed < 3; seed++ {
						rng := rand.New(rand.NewSource(seed))
						blocks := randomBlocks(rng, []int{16, 64, 4096}[seed])
						ts := NewTables(cfg)
						bt := ts.Block(id)
						ref := newRefBlockTable(cfg)
						const steps = 3000
						for step := 0; step < steps; step++ {
							if step == steps/2 {
								decoded, err := DecodeTables(EncodeTables(ts))
								if err != nil {
									t.Fatalf("%+v seed %d: %v", cfg, seed, err)
								}
								ts, bt = decoded, decoded.Block(id)
							}
							b := blocks[rng.Intn(len(blocks))]
							var got, want []um.BlockID
							switch op := rng.Intn(20); {
							case op < 12:
								bt.RecordMiss(b)
								ref.recordMiss(b)
							case op < 16:
								got, want = bt.Successors(b), ref.successorsAt(b, 0)
							case op < 19:
								level := rng.Intn(levels+2) - 1
								got, want = bt.SuccessorsAt(b, level), ref.successorsAt(b, level)
							default:
								bt.ResetCursor()
								ref.resetCursor()
							}
							if !slices.Equal(got, want) || (got == nil) != (want == nil) ||
								bt.Entries() != ref.entries || bt.Start != ref.start || bt.End != ref.end {
								t.Fatalf("%+v seed %d step %d: lookup %v, entries %d, start %d, end %d; reference %v, %d, %d, %d",
									cfg, seed, step, got, bt.Entries(), bt.Start, bt.End, want, ref.entries, ref.start, ref.end)
							}
						}
						sparse := ref.encodeSparse(id)
						if !bytes.Equal(EncodeTables(ts), sparse) {
							t.Fatalf("%+v seed %d: checkpoint bytes differ from the reference's", cfg, seed)
						}
						dense, err := DecodeTables(ref.encode(id))
						if err != nil {
							t.Fatalf("%+v seed %d: the reference's dense bytes: %v", cfg, seed, err)
						}
						if !bytes.Equal(EncodeTables(dense), sparse) {
							t.Fatalf("%+v seed %d: the reference's dense bytes re-encode differently", cfg, seed)
						}
					}
				}
			}
		}
	}
}
