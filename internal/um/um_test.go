package um

import (
	"testing"
	"testing/quick"

	"deepum/internal/sim"
)

func TestBlockOfPageOf(t *testing.T) {
	if BlockOf(0) != 0 || BlockOf(Addr(sim.BlockSize-1)) != 0 || BlockOf(Addr(sim.BlockSize)) != 1 {
		t.Fatal("BlockOf boundary broken")
	}
	if PageOf(0) != 0 || PageOf(Addr(sim.PageSize)) != 1 {
		t.Fatal("PageOf broken")
	}
	if BlockID(3).Start() != Addr(3*sim.BlockSize) {
		t.Fatal("BlockID.Start broken")
	}
}

func TestSpaceMallocFree(t *testing.T) {
	s := NewSpace(0)
	a, err := s.Malloc(10 * sim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if int64(a)%sim.PageSize != 0 {
		t.Fatalf("allocation base %d not page aligned", a)
	}
	if s.AllocatedBytes() != 10*sim.MiB {
		t.Fatalf("allocated = %d, want 10MiB", s.AllocatedBytes())
	}
	blocks := blocksOf(a, 10*sim.MiB)
	if len(blocks) != 5 {
		t.Fatalf("10MiB spans %d blocks, want 5", len(blocks))
	}
	for _, b := range blocks {
		if got := s.Block(b).AllocatedPages; got != sim.PagesPerBlock {
			t.Fatalf("block %d allocated pages = %d, want %d", b, got, sim.PagesPerBlock)
		}
	}
	s.Free(a, 10*sim.MiB)
	if s.AllocatedBytes() != 0 {
		t.Fatalf("allocated after free = %d", s.AllocatedBytes())
	}
	for _, b := range blocks {
		if got := s.Block(b).AllocatedPages; got != 0 {
			t.Fatalf("block %d pages after free = %d", b, got)
		}
	}
}

func TestSpacePartialBlock(t *testing.T) {
	s := NewSpace(0)
	a, err := s.Malloc(3 * sim.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Block(BlockOf(a)).AllocatedPages; got != 3 {
		t.Fatalf("partial block pages = %d, want 3", got)
	}
	if got := s.Block(BlockOf(a)).Bytes(); got != 3*sim.PageSize {
		t.Fatalf("partial block bytes = %d", got)
	}
	// Sub-page allocation rounds up to a page.
	b, err := s.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if int64(b)%sim.PageSize != 0 {
		t.Fatalf("sub-page allocation base %d not aligned", b)
	}
}

func TestSpaceHostLimit(t *testing.T) {
	s := NewSpace(4 * sim.MiB)
	if _, err := s.Malloc(3 * sim.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Malloc(2 * sim.MiB); err != ErrHostExhausted {
		t.Fatalf("over-limit malloc err = %v, want ErrHostExhausted", err)
	}
	// Still room for 1MiB.
	if _, err := s.Malloc(1 * sim.MiB); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceInvalidSize(t *testing.T) {
	s := NewSpace(0)
	if _, err := s.Malloc(0); err == nil {
		t.Fatal("Malloc(0) must fail")
	}
	if _, err := s.Malloc(-5); err == nil {
		t.Fatal("Malloc(-5) must fail")
	}
}

func TestPagesIn(t *testing.T) {
	base := Addr(sim.BlockSize - 2*sim.PageSize) // 2 pages in block 0, rest in 1
	n := int64(6 * sim.PageSize)
	if got := PagesIn(base, n, 0); got != 2 {
		t.Fatalf("pages in block 0 = %d, want 2", got)
	}
	if got := PagesIn(base, n, 1); got != 4 {
		t.Fatalf("pages in block 1 = %d, want 4", got)
	}
	if got := PagesIn(base, n, 2); got != 0 {
		t.Fatalf("pages in block 2 = %d, want 0", got)
	}
}

func TestBlockSpanEmpty(t *testing.T) {
	for _, a := range []Addr{0, 1, Addr(sim.BlockSize)} {
		if first, last := BlockSpan(a, 0); last >= first {
			t.Fatalf("BlockSpan(%d, 0) = [%d, %d], want empty", a, first, last)
		}
	}
}

// blocksOf lists the blocks [base, base+n) overlaps, in address order.
func blocksOf(base Addr, n int64) []BlockID {
	var bs []BlockID
	for b, last := BlockSpan(base, n); b <= last; b++ {
		bs = append(bs, b)
	}
	return bs
}

func TestRangeAllocatorReuse(t *testing.T) {
	r := NewRangeAllocator()
	a := r.Alloc(100)
	b := r.Alloc(200)
	r.Free(a, 100)
	c := r.Alloc(50) // first-fit reuses the hole at a
	if c != a {
		t.Fatalf("first fit returned %d, want %d", c, a)
	}
	r.Free(b, 200)
	r.Free(c, 50) // coalesces with the hole [a+50, a+100) already free
	if r.InUse() != 0 {
		t.Fatalf("in use after freeing everything = %d", r.InUse())
	}
	if r.HighWater() != 0 {
		t.Fatalf("high water should shrink to 0 after full coalesce, got %d", r.HighWater())
	}
}

func TestRangeAllocatorBoundedFragmentation(t *testing.T) {
	r := NewBoundedRangeAllocator(1000)
	var addrs []Addr
	for i := 0; i < 10; i++ {
		a := r.Alloc(100)
		if a < 0 {
			t.Fatalf("alloc %d failed", i)
		}
		addrs = append(addrs, a)
	}
	if r.Alloc(1) >= 0 {
		t.Fatal("full heap must reject allocation")
	}
	// Free every other 100-byte range: 500 bytes free but largest hole 100.
	for i := 0; i < 10; i += 2 {
		r.Free(addrs[i], 100)
	}
	if r.Alloc(200) >= 0 {
		t.Fatal("fragmented heap must reject a 200-byte allocation")
	}
	if r.LargestFree() != 100 {
		t.Fatalf("largest free = %d, want 100", r.LargestFree())
	}
	if a := r.Alloc(100); a < 0 {
		t.Fatal("100-byte allocation must fit a hole")
	}
}

// TestRangeAllocatorQuick: random alloc/free sequences never hand out
// overlapping ranges, and InUse matches the oracle.
func TestRangeAllocatorQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		r := NewRangeAllocator()
		type allocation struct {
			base Addr
			size int64
		}
		var live []allocation
		var inUse int64
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				size := int64(op%64+1) * 16
				base := r.Alloc(size)
				for _, l := range live {
					if int64(base) < int64(l.base)+l.size && int64(l.base) < int64(base)+size {
						return false // overlap
					}
				}
				live = append(live, allocation{base, size})
				inUse += size
			} else {
				i := int(op) % len(live)
				r.Free(live[i].base, live[i].size)
				inUse -= live[i].size
				live = append(live[:i], live[i+1:]...)
			}
			if r.InUse() != inUse {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func newTestHandler(gpuBlocks int64) (*Handler, *Space) {
	p := sim.DefaultParams()
	p.GPUMemory = gpuBlocks * sim.BlockSize
	s := NewSpace(0)
	res := NewResidency(s, p.GPUMemory)
	return &Handler{
		Params:      p,
		Space:       s,
		Res:         res,
		Link:        sim.NewDuplex(p, nil),
		Policy:      LRMPolicy{},
		Invalidator: NoInvalidate{},
	}, s
}

func TestResidencyLRMOrder(t *testing.T) {
	h, s := newTestHandler(10)
	a, _ := s.Malloc(3 * sim.BlockSize)
	bs := blocksOf(a, 3*sim.BlockSize)
	h.Res.Insert(bs[0], sim.PagesPerBlock, 10, 10)
	h.Res.Insert(bs[1], sim.PagesPerBlock, 20, 20)
	h.Res.Insert(bs[2], sim.PagesPerBlock, 30, 30)
	if h.Res.Oldest() != bs[0] {
		t.Fatalf("oldest = %d, want %d", h.Res.Oldest(), bs[0])
	}
	// Re-migration refreshes order.
	h.Res.Insert(bs[0], sim.PagesPerBlock, 40, 40)
	if h.Res.Oldest() != bs[1] {
		t.Fatalf("after refresh oldest = %d, want %d", h.Res.Oldest(), bs[1])
	}
	var walked []BlockID
	h.Res.WalkLRM(func(b BlockID) bool { walked = append(walked, b); return true })
	if len(walked) != 3 || walked[0] != bs[1] || walked[1] != bs[2] || walked[2] != bs[0] {
		t.Fatalf("walk order = %v", walked)
	}
	h.Res.Remove(bs[1])
	if h.Res.Count() != 2 || h.Res.Oldest() != bs[2] {
		t.Fatalf("after remove: count=%d oldest=%d", h.Res.Count(), h.Res.Oldest())
	}
	h.Res.Remove(bs[1]) // double remove is a no-op
	if h.Res.Count() != 2 {
		t.Fatal("double remove changed count")
	}
}

func TestResidencyAccounting(t *testing.T) {
	h, s := newTestHandler(4)
	a, _ := s.Malloc(2 * sim.BlockSize)
	bs := blocksOf(a, 2*sim.BlockSize)
	if h.Res.Free() != 4*sim.BlockSize {
		t.Fatalf("free = %d", h.Res.Free())
	}
	h.Res.Insert(bs[0], sim.PagesPerBlock, 0, 0)
	h.Res.Insert(bs[1], sim.PagesPerBlock, 0, 0)
	if h.Res.Used() != 2*sim.BlockSize || h.Res.Free() != 2*sim.BlockSize {
		t.Fatalf("used=%d free=%d", h.Res.Used(), h.Res.Free())
	}
	if !h.Res.Resident(bs[0]) || h.Res.Resident(BlockID(100)) {
		t.Fatal("Resident() wrong")
	}
	h.Res.Touch(bs[0], true)
	if !s.Block(bs[0]).Dirty {
		t.Fatal("Touch(write) did not set Dirty")
	}
}

// faultWholeBlock raises a fault covering every allocated page of b.
func faultWholeBlock(h *Handler, now sim.Time, b BlockID, write bool) sim.Time {
	return h.HandleGroups(now, []FaultGroup{{Block: b, Count: sim.PagesPerBlock, Write: write}})
}

func TestHandlerMigratesFaultedBlocks(t *testing.T) {
	h, s := newTestHandler(10)
	a, _ := s.Malloc(2 * sim.BlockSize)
	bs := blocksOf(a, 2*sim.BlockSize)
	s.Block(bs[0]).HostPopulated = true
	s.Block(bs[1]).HostPopulated = true
	var migrated []BlockID
	h.OnMigrated = func(b BlockID) { migrated = append(migrated, b) }

	end := h.HandleGroups(0, []FaultGroup{
		{Block: bs[0], Count: sim.PagesPerBlock, Write: false},
		{Block: bs[1], Count: sim.PagesPerBlock, Write: true},
	})
	if end <= 0 {
		t.Fatal("handling took no time")
	}
	if !h.Res.Resident(bs[0]) || !h.Res.Resident(bs[1]) {
		t.Fatal("faulted blocks not resident")
	}
	if len(migrated) != 2 {
		t.Fatalf("OnMigrated calls = %d, want 2", len(migrated))
	}
	if h.Stats.PageFaults != 2*sim.PagesPerBlock || h.Stats.BlocksMigrated != 2 || h.Stats.Batches != 1 {
		t.Fatalf("stats = %+v", h.Stats)
	}
	if !s.Block(bs[1]).Dirty {
		t.Fatal("write fault did not dirty the block")
	}
	// Cost must include batch overhead + 2 block transfers + replay.
	p := h.Params
	minCost := p.FaultBatchOverhead + 2*p.TransferTime(sim.BlockSize) + p.ReplayLatency
	if end.Sub(0) < minCost {
		t.Fatalf("handle cost %v < floor %v", end.Sub(0), minCost)
	}
}

func TestHandlerZeroFillFirstTouch(t *testing.T) {
	h, s := newTestHandler(10)
	a, _ := s.Malloc(sim.BlockSize)
	b := BlockOf(a)
	end := faultWholeBlock(h, 0, b, true)
	if !h.Res.Resident(b) {
		t.Fatal("zero-filled block not resident")
	}
	if h.Stats.ZeroFills != 1 {
		t.Fatalf("zero fills = %d, want 1", h.Stats.ZeroFills)
	}
	h2d, _ := h.Link.Traffic()
	if h2d != 0 {
		t.Fatalf("first touch transferred %d bytes, want 0 (zero fill)", h2d)
	}
	// Cost is overhead only: no transfer stall.
	p := h.Params
	maxCost := p.FaultBatchOverhead + p.FaultBlockOverhead + p.ReplayLatency
	if end.Sub(0) != maxCost {
		t.Fatalf("zero-fill cost %v, want %v", end.Sub(0), maxCost)
	}
	if s.Block(b).HostPopulated {
		t.Fatal("zero fill must not mark the host populated")
	}
}

func TestHandlerPartialPageMigration(t *testing.T) {
	h, s := newTestHandler(10)
	a, _ := s.Malloc(sim.BlockSize)
	b := BlockOf(a)
	s.Block(b).HostPopulated = true
	// Fault on 8 pages only (a DLRM-style sparse touch).
	h.HandleGroups(0, []FaultGroup{{Block: b, Count: 8}})
	h2d, _ := h.Link.Traffic()
	if h2d != 8*sim.PageSize {
		t.Fatalf("partial fault transferred %d, want %d", h2d, 8*sim.PageSize)
	}
	if got := s.Block(b).ResidentPages; got != 8 {
		t.Fatalf("resident pages = %d, want 8", got)
	}
	if h.Res.Used() != 8*sim.PageSize {
		t.Fatalf("device usage = %d, want 8 pages", h.Res.Used())
	}
}

func TestHandlerEmptyBatch(t *testing.T) {
	h, _ := newTestHandler(2)
	if end := h.HandleGroups(42, nil); end != 42 {
		t.Fatalf("empty batch end = %v, want 42", end)
	}
}

func TestHandlerEvictsWhenFull(t *testing.T) {
	h, s := newTestHandler(2) // room for 2 blocks
	a, _ := s.Malloc(3 * sim.BlockSize)
	bs := blocksOf(a, 3*sim.BlockSize)
	faultWholeBlock(h, 0, bs[0], true)
	faultWholeBlock(h, 0, bs[1], true)
	if h.Stats.BlocksEvicted != 0 {
		t.Fatal("premature eviction")
	}
	faultWholeBlock(h, 0, bs[2], true)
	if h.Stats.BlocksEvicted != 1 {
		t.Fatalf("evicted = %d, want 1", h.Stats.BlocksEvicted)
	}
	// LRM policy must have evicted bs[0], the first migrated.
	if h.Res.Resident(bs[0]) {
		t.Fatal("LRM victim selection evicted the wrong block")
	}
	if !h.Res.Resident(bs[1]) || !h.Res.Resident(bs[2]) {
		t.Fatal("resident set wrong after eviction")
	}
	if h.Stats.EvictStall <= 0 {
		t.Fatal("eviction must cost time on the critical path")
	}
	_, d2h := h.Link.Traffic()
	if d2h != sim.BlockSize {
		t.Fatalf("eviction D2H traffic = %d, want one block", d2h)
	}
	// The evicted block's content now lives on the host: re-faulting it
	// costs a real transfer.
	if !s.Block(bs[0]).HostPopulated {
		t.Fatal("eviction must populate the host copy")
	}
	faultWholeBlock(h, 0, bs[0], false)
	h2d, _ := h.Link.Traffic()
	if h2d != sim.BlockSize {
		t.Fatalf("refetch H2D traffic = %d, want one block", h2d)
	}
}

type invalidateAll struct{}

func (invalidateAll) CanInvalidate(BlockID) bool { return true }

func TestHandlerInvalidationSkipsTransfer(t *testing.T) {
	h, s := newTestHandler(1)
	a, _ := s.Malloc(2 * sim.BlockSize)
	bs := blocksOf(a, 2*sim.BlockSize)
	h.Invalidator = invalidateAll{}
	faultWholeBlock(h, 0, bs[0], true)
	faultWholeBlock(h, 0, bs[1], true)
	if h.Stats.BlocksDropped != 1 || h.Stats.BlocksEvicted != 0 {
		t.Fatalf("dropped=%d evicted=%d", h.Stats.BlocksDropped, h.Stats.BlocksEvicted)
	}
	_, d2h := h.Link.Traffic()
	if d2h != 0 {
		t.Fatalf("invalidation produced D2H traffic %d", d2h)
	}
	if s.Block(bs[0]).HostPopulated {
		t.Fatal("invalidated victim must not gain a host copy")
	}
}

func TestHandlerResidentFaultWaitsForReady(t *testing.T) {
	h, s := newTestHandler(4)
	a, _ := s.Malloc(sim.BlockSize)
	b := BlockOf(a)
	// Simulate a prefetch in flight: resident but ready only at t=1000000.
	h.Res.Insert(b, sim.PagesPerBlock, 0, 1_000_000)
	end := h.HandleGroups(0, []FaultGroup{{Block: b, Count: 1}})
	if end < 1_000_000 {
		t.Fatalf("fault on in-flight block finished at %v, want >= readyAt", end)
	}
	if h.Stats.BlocksMigrated != 0 {
		t.Fatal("in-flight block must not be migrated again")
	}
}

func TestHandlerZeroPageFault(t *testing.T) {
	h, _ := newTestHandler(4)
	// Fault on a block with no allocation: maps a zero page, no transfer.
	end := h.HandleGroups(0, []FaultGroup{{Block: 9999, Count: 1}})
	h2d, _ := h.Link.Traffic()
	if h2d != 0 {
		t.Fatalf("zero-page fault transferred %d bytes", h2d)
	}
	if end <= 0 {
		t.Fatal("zero-page fault must still cost handling time")
	}
}

func TestLRMPolicySelectsEnough(t *testing.T) {
	h, s := newTestHandler(8)
	a, _ := s.Malloc(5 * sim.BlockSize)
	bs := blocksOf(a, 5*sim.BlockSize)
	for i, b := range bs {
		h.Res.Insert(b, sim.PagesPerBlock, sim.Time(i), sim.Time(i))
	}
	victims := LRMPolicy{}.SelectVictims(h.Res, 3*sim.BlockSize)
	if len(victims) != 3 {
		t.Fatalf("victims = %d, want 3", len(victims))
	}
	for i, v := range victims {
		if v != bs[i] {
			t.Fatalf("victim[%d] = %d, want %d (LRM order)", i, v, bs[i])
		}
	}
}
