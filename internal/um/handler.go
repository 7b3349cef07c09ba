package um

import (
	"context"

	"deepum/internal/obs"
	"deepum/internal/sim"
)

// EvictionPolicy selects victim blocks when the fault handler (or the
// pre-evictor) needs device space. Implementations walk the residency
// manager's least-recently-migrated order; DeepUM's policy additionally
// skips blocks predicted for the next N kernels (§5.1).
type EvictionPolicy interface {
	// SelectVictims returns resident blocks to evict so that at least need
	// bytes become free. It must not return non-resident blocks. Returning
	// fewer bytes than requested makes the handler fail the migration
	// (device memory wedged) — callers size requests against Capacity.
	SelectVictims(r *Residency, need int64) []BlockID
}

// LRMPolicy is the stock NVIDIA eviction policy: evict pages that were least
// recently migrated to the GPU.
type LRMPolicy struct{}

// SwitchPolicy delegates victim selection to Base until UseFallback reports
// true, then to Fallback. The health controller's degradation ladder uses it
// to drop back to stock LRM at L3, where the driver's protected-set
// predictions are speculation the run no longer honors. The switch is
// evaluated per eviction cycle, so a recovering run resumes prediction-aware
// eviction without rebuilding the handler.
type SwitchPolicy struct {
	Base, Fallback EvictionPolicy
	UseFallback    func() bool
}

// SelectVictims implements EvictionPolicy.
func (p SwitchPolicy) SelectVictims(r *Residency, need int64) []BlockID {
	if p.UseFallback != nil && p.UseFallback() {
		return p.Fallback.SelectVictims(r, need)
	}
	return p.Base.SelectVictims(r, need)
}

// SelectVictims walks the LRM list from the oldest block.
func (LRMPolicy) SelectVictims(r *Residency, need int64) []BlockID {
	var victims []BlockID
	var freed int64
	r.WalkLRM(func(b BlockID) bool {
		victims = append(victims, b)
		freed += r.space.Block(b).ResidentBytes()
		return freed < need
	})
	return victims
}

// Invalidator decides whether a victim block's content is dead to the
// application (its PT block is inactive, §5.2) and can be dropped without a
// D2H copy. The zero-value NoInvalidate keeps every victim's data.
type Invalidator interface {
	CanInvalidate(BlockID) bool
}

// NoInvalidate is the Invalidator that never allows dropping a victim.
type NoInvalidate struct{}

// CanInvalidate always returns false.
func (NoInvalidate) CanInvalidate(BlockID) bool { return false }

// HandlerStats aggregates fault-handling work. Fault counts follow the
// paper's Table 5 accounting: one fault per distinct faulted page per
// handling cycle.
type HandlerStats struct {
	Batches        int64 // fault-handling cycles
	PageFaults     int64 // distinct faulted pages handled
	BlocksMigrated int64 // UM blocks populated on the device by the handler
	ZeroFills      int64 // blocks populated without a transfer (first touch)
	BlocksEvicted  int64 // victims transferred D2H
	BlocksDropped  int64 // victims invalidated (no transfer)
	EvictStall     sim.Duration
	TransferStall  sim.Duration
	Overhead       sim.Duration

	// TransferRetries counts demand transfers re-attempted after an
	// injected transient link failure; RetryStall is the extra time the
	// failed attempts and their exponential backoff cost. Both stay zero
	// without fault injection.
	TransferRetries int64
	RetryStall      sim.Duration
}

// Handler implements the NVIDIA page-fault handling pipeline of Figure 3:
// (1) fetch faults from the buffer, (2) preprocess (dedup, group per UM
// block), then per faulted UM block (3) check space, (4) evict if needed,
// (5) populate, (6) transfer, (7) map, (8) loop, and finally (9) replay.
// Steps 1-2 cost FaultBatchOverhead; the caller passes the groups they
// produce. The fault buffer's finite size is the caller's batch cap.
//
// A faulted block whose host side is unpopulated (first touch of a fresh
// allocation) is zero-filled on the device: full handling cost, no
// transfer. On-demand migration moves only the faulted pages; whole-block
// movement is the prefetcher's job.
type Handler struct {
	Params      sim.Params
	Space       *Space
	Res         *Residency
	Link        *sim.Duplex
	Policy      EvictionPolicy
	Invalidator Invalidator

	// DensityPrefetch enables the NVIDIA driver's tree-based neighborhood
	// heuristic: once a fault batch touches a block densely enough, the
	// driver migrates the whole block in one coalesced transfer instead of
	// streaming faulted chunks. An ablation point between naive UM and
	// DeepUM (which achieves the same coalescing by prediction, ahead of
	// the fault).
	DensityPrefetch bool

	// OnMigrated, if set, is called for each block the handler maps onto the
	// device (the DeepUM correlator records faulted blocks from here).
	OnMigrated func(b BlockID)
	// OnBatch, if set, is called once per fault-handling cycle with its
	// interrupt-to-replay window (the health controller's fault-batch
	// latency feed).
	OnBatch func(start, end sim.Time, blocks int)
	// OnTransferRetry, if set, is called for each demand-transfer attempt
	// that transiently failed and is being retried (the health controller's
	// link-failure feed; demand retries signal link sickness just as hard
	// as prefetch failures do).
	OnTransferRetry func(at sim.Time)
	// OnEvicted, if set, is called for each victim (dropped or transferred).
	OnEvicted func(b BlockID)

	// Ctx, if set, lets a supervisor interrupt fault handling between block
	// groups: once the context is done, HandleGroups finishes the group in
	// flight (demand work already started must drain — a half-migrated block
	// would violate the served invariant) and returns without starting the
	// next. A nil Ctx never interrupts.
	Ctx context.Context

	// Obs, if set, receives a fault-batch span per handling cycle and an
	// evict event per critical-path victim. Nil (the default) costs one
	// branch per cycle and per victim.
	Obs *obs.Recorder

	Stats HandlerStats
}

// FaultGroup is the unit the fault handler processes: the distinct faulted
// pages of one UM block. The engine builds groups from a kernel's touches,
// so they arrive already deduplicated and grouped per block (step 2).
type FaultGroup struct {
	Block BlockID
	// Count is the number of distinct faulted pages; zero counts as one.
	Count int64
	Write bool
}

// PageCount returns the number of distinct faulted pages in the group.
func (g FaultGroup) PageCount() int64 {
	if g.Count > 0 {
		return g.Count
	}
	return 1
}

// HandleGroups runs one fault-handling cycle for the grouped faults,
// starting at time now (when the interrupt is raised). It returns the time
// the replay signal is delivered, i.e. when the GPU may re-execute the
// faulted accesses. An empty batch returns now.
func (h *Handler) HandleGroups(now sim.Time, groups []FaultGroup) sim.Time {
	if len(groups) == 0 {
		return now
	}
	h.Stats.Batches++
	pagesBefore := h.Stats.PageFaults
	t := now.Add(h.Params.FaultBatchOverhead) // steps 1-2
	h.Stats.Overhead += h.Params.FaultBatchOverhead

	for _, g := range groups {
		if h.Ctx != nil && h.Ctx.Err() != nil {
			// Cancelled: the groups already handled are fully served (demand
			// work drains); the rest are abandoned — on a real GPU their
			// faults simply replay into a run that is being torn down. The
			// engine skips the served-invariant audit for an interrupted
			// cycle.
			break
		}
		pages := g.PageCount()
		h.Stats.PageFaults += pages
		blk := h.Space.Block(g.Block)
		if pages > blk.AllocatedPages {
			pages = blk.AllocatedPages
		}
		if h.Res.Resident(g.Block) {
			// Another entry of the same batch (or an in-flight prefetch)
			// already migrated the block: wait for it to be ready, map only.
			t = sim.Max(t, blk.ReadyAt)
			h.Res.Touch(g.Block, g.Write)
			continue
		}
		t = t.Add(h.Params.FaultBlockOverhead) // steps 3, 5, 7 bookkeeping
		h.Stats.Overhead += h.Params.FaultBlockOverhead

		if blk.AllocatedPages == 0 {
			// Faulted access to an unallocated region; map a zero page.
			continue
		}
		if h.DensityPrefetch && blk.HostPopulated && pages*2 >= blk.AllocatedPages {
			// Dense fault: the driver's neighborhood heuristic migrates the
			// whole block in one coalesced transfer.
			pages = blk.AllocatedPages
		}
		need := pages * sim.PageSize
		// Step 4: evict synchronously on the critical path if no space.
		if h.Res.Free() < need {
			t = h.evict(t, need)
		}
		// Step 6: transfer the faulted pages — or zero-fill a first touch.
		// On-demand migration is chunked: the GPU only faults on pages as
		// threads reach them, so a block streams in FaultChunkPages at a
		// time, paying a handling round trip and a latency-dominated small
		// transfer per chunk. (Prefetches move whole blocks in one shot.)
		if blk.HostPopulated {
			chunk := h.Params.FaultChunkPages
			if chunk <= 0 {
				chunk = pages
			}
			if h.DensityPrefetch && pages == blk.AllocatedPages {
				chunk = pages // one coalesced transfer
			}
			for moved := int64(0); moved < pages; moved += chunk {
				n := chunk
				if pages-moved < n {
					n = pages - moved
				}
				t = t.Add(h.Params.FaultChunkOverhead)
				h.Stats.Overhead += h.Params.FaultChunkOverhead
				end := h.transfer(t, n*sim.PageSize, sim.HostToDevice)
				h.Stats.TransferStall += end.Sub(t)
				t = end
			}
		} else {
			h.Stats.ZeroFills++
		}
		h.Res.Insert(g.Block, pages, t, t)
		h.Res.Touch(g.Block, g.Write)
		h.Stats.BlocksMigrated++
		if h.OnMigrated != nil {
			h.OnMigrated(g.Block)
		}
	}
	// Step 9: replay.
	t = t.Add(h.Params.ReplayLatency)
	h.Stats.Overhead += h.Params.ReplayLatency
	if h.Obs != nil {
		h.Obs.Span(obs.KindFaultBatch, obs.TrackFaultHandler, int64(now), int64(t),
			"", 0, h.Stats.PageFaults-pagesBefore, int64(len(groups)))
	}
	if h.OnBatch != nil {
		h.OnBatch(now, t, len(groups))
	}
	return t
}

// evict synchronously frees at least need bytes starting at time t and
// returns the time eviction completes. Victims whose content is invalidated
// are dropped without a transfer; the rest are copied D2H on the link. The
// handler waits for the writeback before reusing the space, which is why
// eviction sits on the critical path (§5.1).
func (h *Handler) evict(t sim.Time, need int64) sim.Time {
	start := t
	for h.Res.Free() < need {
		victims := h.Policy.SelectVictims(h.Res, need-h.Res.Free())
		if len(victims) == 0 {
			break // nothing evictable; the transfer will be short on space
		}
		for _, v := range victims {
			t = t.Add(h.Params.EvictBlockOverhead)
			vb := h.Space.Block(v)
			if h.Invalidator != nil && h.Invalidator.CanInvalidate(v) {
				h.Res.Remove(v)
				h.Stats.BlocksDropped++
				if h.Obs != nil {
					h.Obs.Instant(obs.KindEvict, obs.TrackFaultHandler, int64(t),
						"", int64(v), 0, obs.EvictCritical|obs.EvictInvalidated)
				}
				if h.OnEvicted != nil {
					h.OnEvicted(v)
				}
				continue
			}
			wb := vb.ResidentBytes()
			t = h.transfer(t, wb, sim.DeviceToHost)
			vb.HostPopulated = true
			h.Res.Remove(v)
			h.Stats.BlocksEvicted++
			if h.Obs != nil {
				h.Obs.Instant(obs.KindEvict, obs.TrackFaultHandler, int64(t),
					"", int64(v), wb, obs.EvictCritical)
			}
			if h.OnEvicted != nil {
				h.OnEvicted(v)
			}
		}
	}
	h.Stats.EvictStall += t.Sub(start)
	return t
}

// transfer moves n bytes with demand priority starting at t and returns the
// completion time. Under fault injection a transfer can transiently fail;
// the demand path cannot give up — the GPU is stalled on this data — so it
// retries after sim.RetryBackoff, up to sim.MaxTransferRetries, past which
// the transfer is taken as delivered.
func (h *Handler) transfer(t sim.Time, n int64, dir sim.Direction) sim.Time {
	for attempt := 0; ; attempt++ {
		_, end, ok := h.Link.ReserveChecked(t, n, dir)
		if ok || attempt >= sim.MaxTransferRetries {
			return end
		}
		h.Stats.TransferRetries++
		if h.OnTransferRetry != nil {
			h.OnTransferRetry(end)
		}
		backoff := sim.RetryBackoff(attempt)
		h.Stats.RetryStall += end.Sub(t) + backoff
		t = end.Add(backoff)
	}
}
