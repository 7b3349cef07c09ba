package um

import (
	"deepum/internal/sim"
)

// Residency tracks which UM blocks currently occupy GPU memory and keeps
// them ordered by migration time, oldest first — the NVIDIA driver's
// least-recently-migrated eviction order that both the stock eviction policy
// and DeepUM's pre-eviction policy (§5.1) walk.
type Residency struct {
	space *Space
	// resident is the one record of which blocks are on the device. It is
	// allocated apart from the residency so that a prefetch policy can hold
	// it without keeping the space's block table alive.
	resident *Bitmap
	capacity int64 // bytes of device memory
	used     int64 // bytes occupied by resident blocks
	count    int   // resident blocks

	head, tail BlockID // LRM list: head = least recently migrated
}

// NewResidency returns an empty residency manager for a device with the
// given memory capacity in bytes.
func NewResidency(space *Space, capacity int64) *Residency {
	return &Residency{space: space, resident: &Bitmap{}, capacity: capacity, head: NoBlock, tail: NoBlock}
}

// Bitmap returns the set of resident blocks. It stays current as blocks
// come and go; only the residency writes it.
func (r *Residency) Bitmap() *Bitmap { return r.resident }

// Capacity returns the device memory size in bytes.
func (r *Residency) Capacity() int64 { return r.capacity }

// Used returns the bytes occupied by resident blocks.
func (r *Residency) Used() int64 { return r.used }

// Free returns the unoccupied device memory in bytes.
func (r *Residency) Free() int64 { return r.capacity - r.used }

// Count returns the number of resident blocks.
func (r *Residency) Count() int { return r.count }

// Resident reports whether block b is mapped on the device. It never grows
// the block table: a block outside it is not resident.
func (r *Residency) Resident(b BlockID) bool { return r.resident.Has(b) }

// BlockResidentBytes returns the device memory block b currently occupies.
func (r *Residency) BlockResidentBytes(b BlockID) int64 {
	return r.space.Block(b).ResidentBytes()
}

// Insert marks block b resident as of time now with pages materialized on
// the device, its migration finishing at ready. The block moves to the
// most-recently-migrated end of the LRM list. Inserting an already-resident
// block refreshes its migration time and tops up its page count (a fault
// that materializes more pages, or a re-migration after eviction).
func (r *Residency) Insert(b BlockID, pages int64, now, ready sim.Time) {
	blk := r.space.Block(b)
	if pages > blk.AllocatedPages {
		pages = blk.AllocatedPages
	}
	if pages < 1 {
		pages = 1
	}
	if r.resident.Has(b) {
		r.unlink(b)
		if pages > blk.ResidentPages {
			r.used += (pages - blk.ResidentPages) * sim.PageSize
			blk.ResidentPages = pages
		}
	} else {
		r.resident.add(b)
		blk.ResidentPages = pages
		r.used += pages * sim.PageSize
		r.count++
	}
	blk.LastMigrated = now
	blk.ReadyAt = ready
	blk.Dirty = false
	r.pushBack(b)
}

// TopUp materializes additional pages of an already-resident block without
// refreshing its position in the LRM order: the engine uses it when a kernel
// touches pages of a resident block that an earlier, smaller fault did not
// cover (e.g. a second tensor sharing the block).
func (r *Residency) TopUp(b BlockID, pages int64) {
	if !r.resident.Has(b) || pages <= 0 {
		return
	}
	blk := r.space.Block(b)
	total := blk.ResidentPages + pages
	if total > blk.AllocatedPages {
		total = blk.AllocatedPages
	}
	if total > blk.ResidentPages {
		r.used += (total - blk.ResidentPages) * sim.PageSize
		blk.ResidentPages = total
	}
}

// Remove unmaps block b from the device (eviction or invalidation). It is a
// no-op for non-resident blocks.
func (r *Residency) Remove(b BlockID) {
	if !r.resident.Has(b) {
		return
	}
	r.resident.remove(b)
	blk := r.space.Block(b)
	r.used -= blk.ResidentBytes()
	blk.ResidentPages = 0
	r.count--
	r.unlink(b)
}

// Touch marks a device-side write to a resident block.
func (r *Residency) Touch(b BlockID, write bool) {
	if write {
		r.space.Block(b).Dirty = true
	}
}

// Oldest returns the least-recently-migrated resident block, or NoBlock.
func (r *Residency) Oldest() BlockID { return r.head }

// WalkLRM calls fn on resident blocks from least to most recently migrated
// until fn returns false.
func (r *Residency) WalkLRM(fn func(BlockID) bool) {
	for b := r.head; b != NoBlock; {
		next := r.space.Block(b).next // fn may remove b
		if !fn(b) {
			return
		}
		b = next
	}
}

// WalkMRM calls fn on resident blocks from most to least recently migrated
// until fn returns false — the order in which over-eager prefetches are
// sacrificed when everything resident is predicted for upcoming kernels.
func (r *Residency) WalkMRM(fn func(BlockID) bool) {
	for b := r.tail; b != NoBlock; {
		prev := r.space.Block(b).prev // fn may remove b
		if !fn(b) {
			return
		}
		b = prev
	}
}

func (r *Residency) pushBack(b BlockID) {
	blk := r.space.Block(b)
	blk.prev, blk.next = r.tail, NoBlock
	if r.tail != NoBlock {
		r.space.Block(r.tail).next = b
	} else {
		r.head = b
	}
	r.tail = b
}

func (r *Residency) unlink(b BlockID) {
	blk := r.space.Block(b)
	if blk.prev != NoBlock {
		r.space.Block(blk.prev).next = blk.next
	} else {
		r.head = blk.next
	}
	if blk.next != NoBlock {
		r.space.Block(blk.next).prev = blk.prev
	} else {
		r.tail = blk.prev
	}
	blk.prev, blk.next = NoBlock, NoBlock
}
