// Package um models CUDA Unified Memory as described in §2.2-§2.3 of the
// DeepUM paper: a single address space shared by CPU and GPU, 4 KiB pages
// grouped into UM blocks of up to 512 contiguous pages (2 MiB), and the
// NVIDIA driver's nine-step page-fault handling pipeline with eviction on
// the critical path.
//
// The package is the substrate the DeepUM driver (internal/core) optimizes;
// it is deliberately policy-free: eviction victim selection and invalidation
// decisions are injected through small interfaces.
package um

import (
	"fmt"

	"deepum/internal/sim"
)

// Addr is a byte address in the unified virtual address space.
type Addr int64

// BlockID identifies a UM block: the index of a 2 MiB-aligned region of the
// unified address space.
type BlockID int64

// NoBlock is the nil value for block references.
const NoBlock BlockID = -1

// BlockOf returns the UM block containing the address.
func BlockOf(a Addr) BlockID { return BlockID(int64(a) / sim.BlockSize) }

// PageOf returns the page index (global, within the whole space) of a.
func PageOf(a Addr) int64 { return int64(a) / sim.PageSize }

// Start returns the first byte address of the block.
func (b BlockID) Start() Addr { return Addr(int64(b) * sim.BlockSize) }

// Block holds the driver-side state of one UM block. All pages of a block
// are processed together by the fault handler, matching the NVIDIA driver's
// management granularity, but population is tracked at page counts so that
// sparse workloads (DLRM) migrate only the pages they fault on.
type Block struct {
	// AllocatedPages is the number of pages of this block that belong to a
	// live UM allocation.
	AllocatedPages int64
	// ResidentPages is the number of pages materialized on the device while
	// the block is resident (Residency.Resident): faulted pages for
	// on-demand migration, all allocated pages for a prefetch.
	ResidentPages int64
	// HostPopulated reports whether the host backing store holds content
	// for this block. A fresh allocation is unpopulated: its first GPU
	// access zero-fills device pages without any H2D transfer, and only an
	// eviction writes content back to the host.
	HostPopulated bool
	// ReadyAt is the time the most recent H2D migration completes; accesses
	// before it stall until then.
	ReadyAt sim.Time
	// LastMigrated is the time of the most recent H2D migration, the key of
	// the least-recently-migrated eviction order.
	LastMigrated sim.Time
	// Dirty marks device-side writes since migration.
	Dirty bool

	// prev/next chain the block into the residency manager's LRM list.
	prev, next BlockID
}

// Bytes returns the allocated payload size of the block.
func (b *Block) Bytes() int64 { return b.AllocatedPages * sim.PageSize }

// ResidentBytes returns the device memory the block currently occupies.
func (b *Block) ResidentBytes() int64 { return b.ResidentPages * sim.PageSize }

// Space is the unified virtual address space: a growable table of UM blocks
// plus a range allocator handing out page-aligned allocations, mirroring
// cudaMallocManaged.
type Space struct {
	alloc  *RangeAllocator
	blocks []Block
	// allocatedBytes tracks the total live UM allocation, bounded by host
	// memory (the backing store).
	allocatedBytes int64
	hostLimit      int64
}

// NewSpace returns an empty unified address space whose total allocation is
// bounded by hostLimit bytes (the CPU backing store capacity). A hostLimit
// of zero or less means unbounded.
func NewSpace(hostLimit int64) *Space {
	return &Space{alloc: NewRangeAllocator(), hostLimit: hostLimit}
}

// ErrHostExhausted is returned when a UM allocation would exceed the CPU
// backing store: the hard capacity wall of DeepUM (Table 3: "batch size that
// requires the peak memory usage to be almost the same as the total CPU
// memory size").
var ErrHostExhausted = fmt.Errorf("um: host backing store exhausted")

// Malloc allocates n bytes of unified memory, page aligned, and returns the
// base address. It extends the block table as the VA grows.
func (s *Space) Malloc(n int64) (Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("um: invalid allocation size %d", n)
	}
	rounded := roundUp(n, sim.PageSize)
	if s.hostLimit > 0 && s.allocatedBytes+rounded > s.hostLimit {
		return 0, ErrHostExhausted
	}
	base := s.alloc.Alloc(rounded)
	s.allocatedBytes += rounded
	s.cover(base, rounded, +1)
	return base, nil
}

// Free releases an allocation made by Malloc.
func (s *Space) Free(base Addr, n int64) {
	rounded := roundUp(n, sim.PageSize)
	s.alloc.Free(base, rounded)
	s.allocatedBytes -= rounded
	s.cover(base, rounded, -1)
}

// cover adjusts AllocatedPages of every block overlapped by [base, base+n).
func (s *Space) cover(base Addr, n int64, sign int64) {
	end := int64(base) + n
	for off := int64(base); off < end; {
		b := BlockID(off / sim.BlockSize)
		s.grow(b)
		blockEnd := (int64(b) + 1) * sim.BlockSize
		span := min64(end, blockEnd) - off
		s.blocks[b].AllocatedPages += sign * span / sim.PageSize
		if s.blocks[b].AllocatedPages < 0 {
			s.blocks[b].AllocatedPages = 0
		}
		off += span
	}
}

func (s *Space) grow(b BlockID) {
	for BlockID(len(s.blocks)) <= b {
		s.blocks = append(s.blocks, Block{prev: NoBlock, next: NoBlock})
	}
}

// Block returns the state of block b, growing the table if needed.
func (s *Space) Block(b BlockID) *Block {
	s.grow(b)
	return &s.blocks[b]
}

// Lookup returns the state of block b, or nil when b lies outside the
// table: no allocation ever covered it, so it is neither resident nor
// anything to migrate. Unlike Block it never grows the table, so a block
// named by untrusted state, such as a resumed checkpoint, costs nothing.
func (s *Space) Lookup(b BlockID) *Block {
	if uint64(b) >= uint64(len(s.blocks)) {
		return nil
	}
	return &s.blocks[b]
}

// AllocatedBytes returns the total live UM allocation.
func (s *Space) AllocatedBytes() int64 { return s.allocatedBytes }

// BlockSpan returns the first and last blocks overlapped by [base, base+n);
// last is below first when n is not positive.
func BlockSpan(base Addr, n int64) (first, last BlockID) {
	if n <= 0 {
		return 0, -1
	}
	return BlockOf(base), BlockOf(base + Addr(n-1))
}

// PagesIn returns how many pages of [base, base+n) fall inside block b.
func PagesIn(base Addr, n int64, b BlockID) int64 {
	lo := max64(int64(base), int64(b)*sim.BlockSize)
	hi := min64(int64(base)+n, (int64(b)+1)*sim.BlockSize)
	if hi <= lo {
		return 0
	}
	return (roundUp(hi, sim.PageSize) - roundDown(lo, sim.PageSize)) / sim.PageSize
}

func roundUp(n, to int64) int64   { return (n + to - 1) / to * to }
func roundDown(n, to int64) int64 { return n / to * to }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
