// Package core implements the DeepUM driver — the paper's primary
// contribution (§3.1, §4.2, §5): prefetching of UM blocks, page
// pre-eviction coupled with the prefetcher's predicted set, and
// invalidation of UM blocks belonging to inactive PyTorch blocks.
//
// The driver is mechanism only: it owns the bounded prefetch queue, the
// dedup and protected-set bookkeeping, the capacity throttle, observer
// hooks, and health-gate plumbing. *What to fetch next* is delegated to a
// pluggable policy (internal/policy), which skips blocks the device's
// residency bitmap already holds; the paper's correlation chaser
// (internal/policy/correlation) is the default, selected by Options.Policy.
//
// On a real system the driver is a Linux kernel module with four kernel
// threads joined by queues, where fault work preempts prefetch work
// (Fig. 4); here it is a deterministic state machine driven by the
// simulation engine (internal/engine), which runs that queue discipline in
// virtual time.
package core

import (
	"fmt"

	"deepum/internal/correlation"
	"deepum/internal/obs"
	"deepum/internal/policy"
	"deepum/internal/sim"
	"deepum/internal/um"

	// The default policy registers itself; the driver must always be able
	// to resolve policy.DefaultName.
	_ "deepum/internal/policy/correlation"
)

// Options select which DeepUM mechanisms are active; the Figure 10 ablation
// toggles them one by one.
type Options struct {
	// Prefetch enables correlation prefetching (§4.2).
	Prefetch bool
	// Preevict enables page pre-eviction off the fault-handling critical
	// path (§5.1).
	Preevict bool
	// Invalidate enables dropping victim blocks that belong to inactive
	// PyTorch blocks instead of writing them back (§5.2).
	Invalidate bool
	// Degree is N, the number of kernels ahead the prefetcher chains before
	// pausing (§4.2); the paper's sweet spot is 32 (Figure 11).
	Degree int
	// TableConfig parameterizes the UM-block correlation tables (Table 6).
	TableConfig correlation.BlockTableConfig
	// TakeWindow overrides the migration thread's service window (how many
	// queue-front commands count as effectively in flight); zero keeps the
	// default of 64, which models roughly ten milliseconds of link work at
	// full block size. Scaled-down simulations shrink it proportionally.
	TakeWindow int
	// Policy names the prefetch policy deciding what to fetch next; the
	// empty string selects the default ("correlation", the paper's chaser).
	// See internal/policy for the registry.
	Policy string
	// WarmPayload, when set, seeds the policy with its own checkpoint
	// payload (the envelope's policy name must match Policy).
	WarmPayload []byte
}

// DefaultOptions returns the configuration used for the paper's headline
// results: all optimizations on, N=32, Config9 tables.
func DefaultOptions() Options {
	return Options{
		Prefetch:    true,
		Preevict:    true,
		Invalidate:  true,
		Degree:      32,
		TableConfig: correlation.DefaultBlockTableConfig(),
	}
}

// PrefetchCommand pairs a UM block address with the execution ID of the
// kernel it is predicted to serve, exactly the payload of the paper's
// prefetch queue. It is the policy seam's Command type.
type PrefetchCommand = policy.Command

// Stats aggregates driver-side counters.
type Stats struct {
	KernelLaunches   int64
	PrefetchIssued   int64 // commands enqueued
	PrefetchUseful   int64 // prefetched blocks later hit by the kernel
	Preevictions     int64 // blocks evicted off the critical path
	Invalidations    int64 // victim blocks dropped without transfer
	ChainRestarts    int64
	PredictionFails  int64 // chain died because the next kernel was unknown
	DeathNoExec      int64 // chain deaths: no execution-table prediction
	DeathSkips       int64 // chain deaths: too many anchorless kernels
	WindowMisses     int64 // queued block touched outside the service window
	ProtectedSkipped int64 // eviction candidates skipped by the N-kernel rule
}

// Driver is the DeepUM driver state machine. It receives the engine's
// kernel-launch callbacks (KernelLaunch, KernelComplete) and implements
// um.EvictionPolicy (the §5.1 victim policy) and um.Invalidator (§5.2).
type Driver struct {
	opts Options

	// pol decides what to fetch next; the driver feeds it the launch and
	// fault streams and drains its prediction steps into the queue.
	pol policy.Policy

	// current is the execution ID of the running kernel, tracked so
	// NoteEviction requeues attribute their command to it.
	current correlation.ExecID

	queue []PrefetchCommand
	// head indexes the logical front of queue (popped entries are not
	// copied away on every pop).
	head int
	// queued tracks blocks currently in the prefetch queue to avoid
	// duplicate commands; every fault restart empties it.
	queued um.BlockSet
	// protected holds blocks predicted for the current and next N kernels:
	// the pre-eviction policy must not evict them (§5.1).
	protected um.BlockSet

	// activeBytes holds, indexed by UM block, how many bytes belong to
	// active PyTorch blocks; a block with none is invalidatable. Its IDs
	// come from the allocator's callbacks and resident victims, never from
	// a checkpoint, so it is no larger than the space's block table.
	activeBytes []int64

	// res is the device the driver prefetches into: its capacity bounds the
	// protected set, and its bitmap lets the policy skip resident blocks,
	// which get no command and no protection, so a resident predicted block
	// stays an eviction candidate. Nil means neither.
	res *um.Residency

	// obs receives a prefetch-issue event per enqueued command; obsClock
	// supplies the timestamp (the driver itself has no clock — the engine
	// drives it in virtual time).
	obs      *obs.Recorder
	obsClock func() int64

	// gate, when set, lets the health controller's degradation ladder
	// throttle speculation at the enqueue point.
	gate HealthGate

	// victimBuf backs the slices VictimsForPrefetch and SelectVictims
	// return. No caller asks for victims while it still walks earlier ones.
	victimBuf []um.BlockID

	Stats Stats
}

// HealthGate is the slice of the degradation ladder the prefetching thread
// consults before creating new speculation (internal/health implements it).
// It is the policy seam's Gate type: the driver forwards it to the policy,
// which consults DegreeCap before emitting, while the driver itself applies
// SpeculativeRequeue on the requeue path.
type HealthGate = policy.Gate

// Compile-time interface checks.
var (
	_ um.EvictionPolicy = (*Driver)(nil)
	_ um.Invalidator    = (*Driver)(nil)
)

// NewDriverFor returns a driver running the policy named by opts.Policy
// (empty selects the default correlation chaser) for the device whose
// residency is res. The policy gets only res's bitmap. A nil res filters
// nothing and leaves the protected set unthrottled. It fails when the
// policy is unknown or its warm state cannot be decoded — both conditions
// callers want as typed errors before any run state exists.
func NewDriverFor(opts Options, res *um.Residency) (*Driver, error) {
	if opts.Degree < 1 {
		opts.Degree = 1
	}
	if opts.TableConfig.NumRows == 0 {
		opts.TableConfig = correlation.DefaultBlockTableConfig()
	}
	var resident *um.Bitmap
	if res != nil {
		resident = res.Bitmap()
	}
	pol, err := policy.New(opts.Policy, policy.Options{
		Prefetch:    opts.Prefetch,
		Degree:      opts.Degree,
		TableConfig: opts.TableConfig,
		WarmPayload: opts.WarmPayload,
		Resident:    resident,
	})
	if err != nil {
		return nil, err
	}
	return &Driver{opts: opts, pol: pol, current: correlation.NoExec, res: res}, nil
}

// Options returns the driver's configuration.
func (d *Driver) Options() Options { return d.opts }

// Policy returns the active prefetch policy and the warm state it has
// learned: its name, its state size (Table 4) and, through Save, the
// payload of a checkpoint envelope.
func (d *Driver) Policy() policy.Policy { return d.pol }

// KernelLaunch receives the execution ID of the kernel about to run — the
// ioctl callback of §3.1 — and forwards it to the policy's learner.
func (d *Driver) KernelLaunch(id correlation.ExecID) {
	d.Stats.KernelLaunches++
	d.current = id
	d.pol.KernelLaunch(id)
}

// KernelComplete slides the policy's lookahead window: a paused chain may
// resume because one more kernel of budget is available (§4.2: "The
// prefetching thread resumes after the currently executing kernel
// finishes"). Refilling is unconditional — an idle policy simply pauses.
func (d *Driver) KernelComplete(id correlation.ExecID) {
	d.pol.KernelComplete(id)
	d.fillQueue(refillBatch)
}

// Current returns the execution ID of the kernel the driver believes is
// running.
func (d *Driver) Current() correlation.ExecID { return d.current }

// OnFault is invoked by the fault-handling path for every faulted UM block.
// The correlator updates the block table of the current kernel, and — when
// prefetching is enabled — the prefetching thread restarts chaining from the
// faulted block (§4.2: "The chaining ends when a new page fault interrupt
// signal is raised", i.e. each fault restarts the chain).
func (d *Driver) OnFault(b um.BlockID) {
	if !d.pol.OnFault(b) {
		return // the policy learned from the fault but restarts nothing
	}
	// The fault obsoletes the old prediction's outstanding commands: the GPU
	// has demonstrably diverged from the prediction that produced them, and
	// the new prediction's commands must reach the front of the queue to be
	// timely.
	d.queue = d.queue[:0]
	d.head = 0
	d.queued.Reset()
	d.Stats.ChainRestarts++
	d.fillQueue(restartFill)
}

// maxQueue bounds the prefetch queue, as the single-producer/single-consumer
// queue between the prefetching and migration threads is on a real system.
// A full queue pauses the chain; consumption resumes it as commands drain.
const (
	maxQueue    = 8192
	restartFill = 256  // commands emitted synchronously on a chain restart
	refillBatch = 1024 // commands emitted when consumption drains the queue
	refillBelow = 512  // queue depth that triggers a refill
)

// fillQueue drains the policy's prediction stream into the prefetch queue
// until the given budget of new commands is emitted, the policy pauses (at
// the degree boundary or a gated ladder level), the queue fills, or the
// prediction dies.
func (d *Driver) fillQueue(budget int) {
	limit := d.protectLimit()
	for budget > 0 && d.qlen() < maxQueue &&
		int64(d.protected.Len()) < limit {
		st := d.pol.Next()
		switch st.Out {
		case policy.Pause:
			return
		case policy.Dead:
			d.Stats.PredictionFails++
			switch st.Cause {
			case correlation.DeathNoExec:
				d.Stats.DeathNoExec++
			case correlation.DeathSkips:
				d.Stats.DeathSkips++
			}
			return
		}
		b := st.Cmd.Block
		if d.queued.Has(b) {
			continue
		}
		d.protected.Add(b)
		d.queued.Add(b)
		d.queue = append(d.queue, st.Cmd)
		d.Stats.PrefetchIssued++
		d.noteIssue(b)
		budget--
	}
}

// SetObserver installs the tracing recorder and the clock that timestamps
// its events; a nil recorder disables emission.
func (d *Driver) SetObserver(rec *obs.Recorder, clock func() int64) {
	d.obs = rec
	d.obsClock = clock
}

// SetHealthGate installs the degradation-ladder gate consulted before new
// speculation is queued; nil disables gating. The gate is shared with the
// policy (the degree capability) while the driver applies the requeue
// capability itself.
func (d *Driver) SetHealthGate(g HealthGate) {
	d.gate = g
	d.pol.SetGate(g)
}

// noteIssue emits a prefetch-issue event when tracing is attached.
func (d *Driver) noteIssue(b um.BlockID) {
	if d.obs != nil {
		d.obs.Instant(obs.KindPrefetchIssue, obs.TrackDriver, d.obsClock(), d.pol.Name(), int64(b), 0, 0)
	}
}

// NoteEviction tells the driver a block left the device. If the block is
// still predicted for the next N kernels (it was evicted through the
// fallback path under extreme pressure), the prefetching thread immediately
// re-queues a command for it so the upcoming access finds an in-flight
// migration instead of faulting.
func (d *Driver) NoteEviction(b um.BlockID) {
	if !d.opts.Prefetch {
		return
	}
	d.pol.NoteEviction(b)
	if d.gate != nil && !d.gate.SpeculativeRequeue() {
		return // ladder at L1+: only the chain itself may issue commands
	}
	if !d.protected.Has(b) || d.queued.Has(b) || d.qlen() >= maxQueue {
		return
	}
	d.queued.Add(b)
	d.queue = append(d.queue, PrefetchCommand{Block: b, Exec: d.current})
	d.Stats.PrefetchIssued++
	d.noteIssue(b)
}

// NextPrefetch pops the next prefetch command, or ok=false when the queue is
// empty. The migration thread calls this whenever the fault queue is empty
// (§3.1 queue priority). Commands whose block was already taken out of turn
// (TakeQueued) are skipped.
func (d *Driver) NextPrefetch() (PrefetchCommand, bool) {
	for d.qlen() > 0 {
		cmd := d.queue[d.head]
		d.head++
		d.compact()
		if d.qlen() < refillBelow {
			d.fillQueue(refillBatch) // resume a paused chain
		}
		if !d.queued.Delete(cmd.Block) {
			continue
		}
		return cmd, true
	}
	d.fillQueue(refillBatch)
	return PrefetchCommand{}, false
}

func (d *Driver) qlen() int { return len(d.queue) - d.head }

func (d *Driver) compact() {
	if d.head > maxQueue {
		d.queue = append(d.queue[:0], d.queue[d.head:]...)
		d.head = 0
	}
}

// IsQueued reports whether a prefetch command for block b is outstanding.
func (d *Driver) IsQueued(b um.BlockID) bool { return d.queued.Has(b) }

// takeWindow is how far into the prefetch queue the migration thread has
// visibility when the GPU is about to touch a block: a command near the
// front is effectively in flight and the GPU merely waits for it; a command
// buried deep in the queue will not start before the access faults. The
// window is what preserves the §6.2 DLRM behaviour — with input-dependent
// access order, the stale queue order almost never matches the demanded
// order, so commands are not at the front when needed and prefetching stops
// helping.
const takeWindow = 64

// window returns the effective service window.
func (d *Driver) window() int {
	if d.opts.TakeWindow > 0 {
		return d.opts.TakeWindow
	}
	return takeWindow
}

// TakeQueued claims the outstanding prefetch command for block b if it sits
// within the migration thread's service window, converting a would-be fault
// into an in-flight migration the GPU merely waits on. It returns false
// when no timely command for b exists.
func (d *Driver) TakeQueued(b um.BlockID) bool {
	if !d.queued.Has(b) {
		return false
	}
	end := d.head + d.window()
	if end > len(d.queue) {
		end = len(d.queue)
	}
	for i := d.head; i < end; i++ {
		if d.queue[i].Block != b {
			continue
		}
		// Swap the head command into the vacated slot; order within the
		// service window is immaterial.
		d.queue[i] = d.queue[d.head]
		d.head++
		d.compact()
		d.queued.Delete(b)
		if d.qlen() < refillBelow {
			d.fillQueue(refillBatch)
		}
		return true
	}
	d.Stats.WindowMisses++
	return false
}

// PendingPrefetches returns the prefetch-queue depth.
func (d *Driver) PendingPrefetches() int { return d.qlen() }

// DiscardPrefetches drops every outstanding prefetch command and kills the
// active chain. The run-lifecycle supervisor calls it when a run is
// cancelled: demand work drains, speculative work is thrown away. It returns
// how many live commands were discarded.
func (d *Driver) DiscardPrefetches() int64 {
	var n int64
	for i := d.head; i < len(d.queue); i++ {
		if d.queued.Has(d.queue[i].Block) {
			n++
		}
	}
	d.queue = d.queue[:0]
	d.head = 0
	d.queued.Reset()
	d.pol.Discard()
	return n
}

// ProtectedCount returns the size of the predicted (protected) set.
func (d *Driver) ProtectedCount() int { return d.protected.Len() }

// CheckInvariants audits the driver's queue and protection bookkeeping; the
// chaos invariant checker runs it at iteration boundaries under every
// scenario. It verifies the queue indices are coherent, every entry of the
// dedup map corresponds to a live queue command (a stale entry would
// silently swallow future prefetches for that block), and the protected set
// respects the capacity throttle — the "no protected block silently lost"
// accounting: protection is only ever granted alongside a queued command,
// and NoteEviction re-queues any protected block evicted under pressure.
func (d *Driver) CheckInvariants() error {
	if d.head < 0 || d.head > len(d.queue) {
		return fmt.Errorf("core: invariant violated: queue head %d out of range [0,%d]", d.head, len(d.queue))
	}
	// The queued set holds only blocks with a live command exactly when
	// every one of its blocks is among the distinct live blocks.
	var live um.BlockSet
	marked := 0
	for i := d.head; i < len(d.queue); i++ {
		if b := d.queue[i].Block; live.Add(b) && d.queued.Has(b) {
			marked++
		}
	}
	if stale := d.queued.Len() - marked; stale > 0 {
		return fmt.Errorf("core: invariant violated: %d blocks marked queued have no live queue entry", stale)
	}
	if limit := d.protectLimit(); int64(d.protected.Len()) > limit {
		return fmt.Errorf("core: invariant violated: protected set %d exceeds capacity throttle %d", d.protected.Len(), limit)
	}
	return nil
}

// protectLimit is the capacity throttle on the protected set: the predicted
// set must fit comfortably in device memory or aggressive chaining would
// displace blocks that will be accessed sooner (§6.2: "aggressive
// prefetching may hurt performance ... and evicts pages that will be
// accessed soon"). Without a device capacity there is no throttle.
func (d *Driver) protectLimit() int64 {
	if d.res == nil || d.res.Capacity() <= 0 {
		return 1 << 62
	}
	return d.res.Capacity() * 4 / sim.BlockSize
}

// BeginIteration clears the protected set; the engine calls it at iteration
// boundaries so stale predictions do not pin blocks forever.
func (d *Driver) BeginIteration() {
	d.protected.Reset()
}

// Unprotect removes b from the predicted set — the engine calls it when the
// running kernel touches the block, so protection covers only outstanding
// predictions, not history. Shrinking the set may unblock a throttled chain.
func (d *Driver) Unprotect(b um.BlockID) {
	if !d.protected.Delete(b) {
		return
	}
	// A chain paused on the capacity throttle resumes as soon as the
	// predicted set shrinks; fillQueue re-checks the limit and early-exits
	// when still over it.
	d.fillQueue(64)
}

// VictimsForPrefetch selects eviction victims for a background prefetch:
// unlike the demand path it never falls back to evicting protected blocks —
// displacing a block predicted for the next N kernels to make room for a
// later prediction is self-defeating. ok is false when not enough
// unprotected memory exists; the prefetch then waits. The victims live in
// a buffer the driver reuses: the slice is valid until the next call of
// VictimsForPrefetch or SelectVictims.
func (d *Driver) VictimsForPrefetch(r *um.Residency, need int64) ([]um.BlockID, bool) {
	victims := d.victimBuf[:0]
	var freed int64
	r.WalkLRM(func(b um.BlockID) bool {
		if d.protected.Has(b) {
			return true
		}
		victims = append(victims, b)
		freed += r.BlockResidentBytes(b)
		return freed < need
	})
	d.victimBuf = victims
	return victims, freed >= need
}

// --- §5.1: pre-eviction policy -------------------------------------------

// SelectVictims implements the DeepUM eviction policy: least recently
// migrated, excluding blocks expected to be accessed by the currently
// executing kernel and the next N kernels (the protected set maintained from
// the correlation tables). When every resident block is protected it falls
// back to plain LRM — the driver must free space to make progress. The
// victims live in the buffer VictimsForPrefetch uses: the slice is valid
// until the next call of either.
func (d *Driver) SelectVictims(r *um.Residency, need int64) []um.BlockID {
	victims := d.victimBuf[:0]
	var freed int64
	r.WalkLRM(func(b um.BlockID) bool {
		if d.protected.Has(b) {
			d.Stats.ProtectedSkipped++
			return true
		}
		victims = append(victims, b)
		freed += r.BlockResidentBytes(b)
		return freed < need
	})
	if freed < need {
		// Fallback when everything resident is predicted for upcoming
		// kernels: sacrifice the most recently migrated blocks — those carry
		// the farthest-future predictions, so dropping them wastes the least.
		victims = victims[:0]
		freed = 0
		r.WalkMRM(func(b um.BlockID) bool {
			victims = append(victims, b)
			freed += r.BlockResidentBytes(b)
			return freed < need
		})
	}
	d.victimBuf = victims
	return victims
}

// preevictWatermark is the share of device memory the pre-evictor keeps
// free, as a divisor: free >= capacity/preevictWatermark.
const preevictWatermark = 48

// PreevictTarget returns how many bytes the pre-evictor should free right
// now to restore the watermark, or zero when disabled or satisfied.
func (d *Driver) PreevictTarget(r *um.Residency) int64 {
	if !d.opts.Preevict {
		return 0
	}
	watermark := r.Capacity() / preevictWatermark
	if r.Free() >= watermark {
		return 0
	}
	return watermark - r.Free()
}

// NotePreeviction counts a block evicted off the critical path.
func (d *Driver) NotePreeviction() { d.Stats.Preevictions++ }

// --- §5.2: invalidation ----------------------------------------------------

// OnPTActive is wired to the allocator's OnActive callback.
func (d *Driver) OnPTActive(base um.Addr, size int64) { d.adjustActive(base, size, +1) }

// OnPTInactive is wired to the allocator's OnInactive callback: the "few
// lines of code added to the PyTorch memory allocator" of §5.2.
func (d *Driver) OnPTInactive(base um.Addr, size int64) { d.adjustActive(base, size, -1) }

func (d *Driver) adjustActive(base um.Addr, size int64, sign int64) {
	end := int64(base) + size
	for off := int64(base); off < end; {
		b := um.BlockOf(um.Addr(off))
		blockEnd := (int64(b) + 1) * sim.BlockSize
		span := blockEnd - off
		if end-off < span {
			span = end - off
		}
		if int(b) >= len(d.activeBytes) {
			d.activeBytes = append(d.activeBytes, make([]int64, int(b)+1-len(d.activeBytes))...)
		}
		// A block's count never goes below zero: a release of bytes never
		// counted active leaves it inactive, not in debt.
		d.activeBytes[b] = max(0, d.activeBytes[b]+sign*span)
		off += span
	}
}

// CanInvalidate reports whether no active PyTorch block overlaps UM block b,
// in which case an eviction victim's content is dead and the driver simply
// invalidates the UM block in GPU memory (§5.2).
func (d *Driver) CanInvalidate(b um.BlockID) bool {
	if !d.opts.Invalidate {
		return false
	}
	return uint64(b) >= uint64(len(d.activeBytes)) || d.activeBytes[b] == 0
}

// NoteInvalidation counts a dropped victim.
func (d *Driver) NoteInvalidation() { d.Stats.Invalidations++ }

// NotePrefetchUseful counts a prefetched block that a kernel subsequently
// accessed while resident.
func (d *Driver) NotePrefetchUseful() { d.Stats.PrefetchUseful++ }
