package correlation

import (
	"testing"
	"testing/quick"

	"deepum/internal/um"
)

func TestExecTableRecordPredict(t *testing.T) {
	et := NewExecTable()
	hist := [3]ExecID{7, 9, 92}
	et.Record(0, hist, 75)
	if got := et.Predict(0, hist); got != 75 {
		t.Fatalf("Predict = %d, want 75", got)
	}
	if got := et.Predict(1, hist); got != NoExec {
		t.Fatalf("unknown entry Predict = %d, want NoExec", got)
	}
	// Different history for the same kernel adds another record.
	hist2 := [3]ExecID{1, 2, 3}
	et.Record(0, hist2, 42)
	if got := et.Predict(0, hist2); got != 42 {
		t.Fatalf("Predict with hist2 = %d, want 42", got)
	}
	if got := et.Predict(0, hist); got != 75 {
		t.Fatalf("Predict with hist = %d, want 75", got)
	}
	if et.Records() != 2 || et.Entries() != 1 {
		t.Fatalf("records=%d entries=%d", et.Records(), et.Entries())
	}
}

func TestExecTableMRUDedup(t *testing.T) {
	et := NewExecTable()
	h := [3]ExecID{1, 2, 3}
	et.Record(5, h, 10)
	et.Record(5, [3]ExecID{4, 5, 6}, 11)
	et.Record(5, h, 10) // duplicate: moves to front, no new record
	if et.Records() != 2 {
		t.Fatalf("records = %d, want 2 (dedup)", et.Records())
	}
	// Unmatched history falls back to the MRU record.
	if got := et.Predict(5, [3]ExecID{99, 98, 97}); got != 10 {
		t.Fatalf("MRU fallback = %d, want 10", got)
	}
}

func TestExecTableSuffixMatch(t *testing.T) {
	et := NewExecTable()
	et.Record(5, [3]ExecID{1, 2, 3}, 10)
	et.Record(5, [3]ExecID{9, 2, 3}, 20)
	// Exact match wins over suffix match regardless of MRU order.
	if got := et.Predict(5, [3]ExecID{1, 2, 3}); got != 10 {
		t.Fatalf("exact match = %d, want 10", got)
	}
	// Only the last two match: first record in MRU order with that suffix.
	if got := et.Predict(5, [3]ExecID{7, 2, 3}); got != 20 {
		t.Fatalf("suffix match = %d, want 20 (MRU)", got)
	}
}

func TestExecTableSizeBytes(t *testing.T) {
	et := NewExecTable()
	if et.SizeBytes() != 0 {
		t.Fatalf("empty table size = %d", et.SizeBytes())
	}
	et.Record(0, [3]ExecID{1, 2, 3}, 4)
	if et.SizeBytes() <= 0 {
		t.Fatal("non-empty table must have positive size")
	}
}

func TestBlockTableRecordLookup(t *testing.T) {
	bt := NewBlockTable(DefaultBlockTableConfig())
	// Miss sequence a, b, c: b is successor of a, c of b.
	bt.RecordMiss(10)
	bt.RecordMiss(20)
	bt.RecordMiss(30)
	if s := bt.Successors(10); len(s) != 1 || s[0] != 20 {
		t.Fatalf("succ(10) = %v, want [20]", s)
	}
	if s := bt.Successors(20); len(s) != 1 || s[0] != 30 {
		t.Fatalf("succ(20) = %v, want [30]", s)
	}
	if bt.Start != 10 || bt.End != 30 {
		t.Fatalf("start=%d end=%d, want 10/30", bt.Start, bt.End)
	}
	if bt.Successors(99) != nil {
		t.Fatal("unknown block must have no successors")
	}
}

func TestBlockTableMRUSuccessors(t *testing.T) {
	cfg := DefaultBlockTableConfig()
	cfg.NumSuccs = 2
	bt := NewBlockTable(cfg)
	bt.RecordMiss(1)
	bt.RecordMiss(2) // 1 -> 2
	bt.ResetCursor()
	bt.RecordMiss(1)
	bt.RecordMiss(3) // 1 -> 3 (MRU)
	if s := bt.Successors(1); len(s) != 2 || s[0] != 3 || s[1] != 2 {
		t.Fatalf("succ(1) = %v, want [3 2]", s)
	}
	bt.ResetCursor()
	bt.RecordMiss(1)
	bt.RecordMiss(4) // 1 -> 4 evicts 2 (NumSuccs=2)
	if s := bt.Successors(1); len(s) != 2 || s[0] != 4 || s[1] != 3 {
		t.Fatalf("succ(1) = %v, want [4 3]", s)
	}
	bt.ResetCursor()
	bt.RecordMiss(1)
	bt.RecordMiss(3) // re-promotion, no growth
	if s := bt.Successors(1); len(s) != 2 || s[0] != 3 || s[1] != 4 {
		t.Fatalf("succ(1) = %v, want [3 4]", s)
	}
}

func TestBlockTableSelfSuccessorSkipped(t *testing.T) {
	bt := NewBlockTable(DefaultBlockTableConfig())
	bt.RecordMiss(5)
	bt.RecordMiss(5) // repeated miss on the same block: no self edge
	if s := bt.Successors(5); len(s) != 0 {
		t.Fatalf("self successor recorded: %v", s)
	}
}

func TestBlockTableAssociativityEviction(t *testing.T) {
	cfg := BlockTableConfig{NumRows: 1, Assoc: 2, NumSuccs: 4, NumLevels: 1}
	bt := NewBlockTable(cfg)
	// All blocks map to row 0. Create entries for 1 and 2.
	bt.RecordMiss(1)
	bt.RecordMiss(2) // entry for 1
	bt.ResetCursor()
	bt.RecordMiss(2)
	bt.RecordMiss(3) // entry for 2
	if bt.Entries() != 2 {
		t.Fatalf("entries = %d, want 2", bt.Entries())
	}
	bt.ResetCursor()
	bt.RecordMiss(3)
	bt.RecordMiss(4) // entry for 3 evicts the LRU way (entry for 1)
	if bt.Entries() != 2 {
		t.Fatalf("entries = %d, want 2 (assoc cap)", bt.Entries())
	}
	if bt.Successors(1) != nil {
		t.Fatal("LRU way should have been evicted")
	}
	if s := bt.Successors(3); len(s) != 1 || s[0] != 4 {
		t.Fatalf("succ(3) = %v, want [4]", s)
	}
}

func TestBlockTableTwoLevels(t *testing.T) {
	cfg := BlockTableConfig{NumRows: 64, Assoc: 2, NumSuccs: 4, NumLevels: 2}
	bt := NewBlockTable(cfg)
	bt.RecordMiss(1)
	bt.RecordMiss(2)
	bt.RecordMiss(3)
	// Level 0: 1->2, 2->3. Level 1: 1->3 (3 follows 1 via 2), like Figure 5.
	if s := bt.SuccessorsAt(1, 0); len(s) != 1 || s[0] != 2 {
		t.Fatalf("L0 succ(1) = %v", s)
	}
	if s := bt.SuccessorsAt(1, 1); len(s) != 1 || s[0] != 3 {
		t.Fatalf("L1 succ(1) = %v", s)
	}
	if s := bt.SuccessorsAt(1, 5); s != nil {
		t.Fatalf("out-of-range level = %v", s)
	}
}

// TestBlockTableLookupAllocatesNothing: Successors hands out a view of the
// table's successor slab, so the chain walk's lookups never allocate.
func TestBlockTableLookupAllocatesNothing(t *testing.T) {
	bt := NewBlockTable(DefaultBlockTableConfig())
	for _, b := range []um.BlockID{1, 2, 3, 1, 4} {
		bt.RecordMiss(b)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if len(bt.Successors(1)) != 2 || bt.Successors(99) != nil {
			t.Fatal("lookups changed")
		}
	}); allocs != 0 {
		t.Fatalf("Successors allocates %v times per call", allocs)
	}
}

func TestBlockTableConfigClamp(t *testing.T) {
	bt := NewBlockTable(BlockTableConfig{})
	cfg := bt.Config()
	if cfg.NumRows != 1 || cfg.Assoc != 1 || cfg.NumSuccs != 1 || cfg.NumLevels != 1 {
		t.Fatalf("zero config not clamped: %+v", cfg)
	}
}

func TestBlockTableSizeBytes(t *testing.T) {
	cfg := BlockTableConfig{NumRows: 2048, Assoc: 2, NumSuccs: 4, NumLevels: 1}
	bt := NewBlockTable(cfg)
	want := int64(2048)*2*(8+4*8) + 64
	if got := bt.SizeBytes(); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

func TestTablesLazyAllocation(t *testing.T) {
	ts := NewTables(DefaultBlockTableConfig())
	if ts.blocks[3] != nil {
		t.Fatal("table should not exist yet")
	}
	if ts.NumBlockTables() != 0 {
		t.Fatal("no tables should be allocated")
	}
	ts.Block(3).RecordMiss(1)
	if ts.blocks[3] == nil || ts.NumBlockTables() != 1 {
		t.Fatal("table not allocated on first use")
	}
	base := NewBlockTable(DefaultBlockTableConfig()).SizeBytes()
	if got := ts.SizeBytes(); got < base {
		t.Fatalf("SizeBytes = %d, want >= %d", got, base)
	}
	ids := ts.ExecIDs()
	if len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("ExecIDs = %v", ids)
	}
}

// buildTwoKernelTables constructs the Figure 7 scenario: kernel 0 faults on
// blocks a,b,q (End q, Start a), kernel 1 faults on k,g,u (Start k, End u),
// and the execution table knows 0 -> 1.
func buildTwoKernelTables() *Tables {
	ts := NewTables(DefaultBlockTableConfig())
	h := [3]ExecID{NoExec, NoExec, NoExec}
	ts.Exec.Record(0, h, 1)

	bt0 := ts.Block(0)
	bt0.RecordMiss(100) // a
	bt0.RecordMiss(101) // b
	bt0.RecordMiss(102) // q = End
	bt1 := ts.Block(1)
	bt1.RecordMiss(200) // k
	bt1.RecordMiss(201) // g
	bt1.RecordMiss(202) // u = End
	return ts
}

func TestChainCursorWithinKernel(t *testing.T) {
	ts := buildTwoKernelTables()
	h := [3]ExecID{NoExec, NoExec, NoExec}
	var c ChainCursor
	c.Reset(ts, 0, h, 100)
	b, e := c.Next(nil)
	if b != 101 || e != 0 {
		t.Fatalf("first = (%d,%d), want (101,0)", b, e)
	}
	b, e = c.Next(nil)
	if b != 102 || e != 0 {
		t.Fatalf("second = (%d,%d), want (102,0)", b, e)
	}
}

func TestChainCursorCrossesKernelBoundary(t *testing.T) {
	ts := buildTwoKernelTables()
	h := [3]ExecID{NoExec, NoExec, NoExec}
	var c ChainCursor
	c.Reset(ts, 0, h, 100)
	var got []um.BlockID
	var execs []ExecID
	for {
		b, e := c.Next(nil)
		if b == um.NoBlock {
			break
		}
		got = append(got, b)
		execs = append(execs, e)
	}
	// 101, 102 for kernel 0, then Start 200 and chain 201, 202 for kernel 1,
	// then prediction for kernel 1 fails (no record) and the chain dies.
	want := []um.BlockID{101, 102, 200, 201, 202}
	if len(got) != len(want) {
		t.Fatalf("chain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v", got, want)
		}
	}
	if execs[2] != 1 || execs[4] != 1 {
		t.Fatalf("exec ids = %v", execs)
	}
	if c.Kernels() != 1 {
		t.Fatalf("kernel transitions = %d, want 1", c.Kernels())
	}
}

func TestChainCursorDeadWithoutPrediction(t *testing.T) {
	ts := NewTables(DefaultBlockTableConfig())
	ts.Block(0).RecordMiss(1) // only one miss: no successors
	h := [3]ExecID{NoExec, NoExec, NoExec}
	var c ChainCursor
	c.Reset(ts, 0, h, 1)
	if b, _ := c.Next(nil); b != um.NoBlock {
		t.Fatalf("expected dead chain, got %d", b)
	}
	// Exhausted cursor stays exhausted.
	if b, _ := c.Next(nil); b != um.NoBlock {
		t.Fatalf("dead cursor revived: %d", b)
	}
}

func TestChainCursorNoDuplicateEmission(t *testing.T) {
	ts := NewTables(DefaultBlockTableConfig())
	bt := ts.Block(0)
	// Build a cycle: 1 -> 2 -> 3 -> 1.
	bt.RecordMiss(1)
	bt.RecordMiss(2)
	bt.RecordMiss(3)
	bt.RecordMiss(1)
	h := [3]ExecID{NoExec, NoExec, NoExec}
	var c ChainCursor
	c.Reset(ts, 0, h, 1)
	seen := map[um.BlockID]bool{}
	for i := 0; i < 10; i++ {
		b, _ := c.Next(nil)
		if b == um.NoBlock {
			break
		}
		if seen[b] {
			t.Fatalf("block %d emitted twice", b)
		}
		seen[b] = true
	}
	if len(seen) == 0 || len(seen) > 3 {
		t.Fatalf("emitted %d blocks from a 3-cycle", len(seen))
	}
}

// TestBlockTableQuickNoLoss: every recorded pair (pred, succ) with a live
// entry is retrievable while within associativity and successor limits.
func TestBlockTableQuickNoLoss(t *testing.T) {
	f := func(seq []uint8) bool {
		cfg := BlockTableConfig{NumRows: 4096, Assoc: 8, NumSuccs: 16, NumLevels: 1}
		bt := NewBlockTable(cfg)
		var prev um.BlockID = um.NoBlock
		pairs := map[[2]um.BlockID]bool{}
		for _, s := range seq {
			b := um.BlockID(s % 32)
			if prev != um.NoBlock && prev != b {
				pairs[[2]um.BlockID{prev, b}] = true
			}
			bt.RecordMiss(b)
			prev = b
		}
		// With 32 distinct blocks, 4096 rows and assoc 8, collisions cannot
		// evict, and 16 successor slots cannot overflow with <=31 distinct
		// successors only when sequence is short; bound the check.
		if len(seq) > 16 {
			return true
		}
		for p := range pairs {
			found := false
			for _, s := range bt.Successors(p[0]) {
				if s == p[1] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
