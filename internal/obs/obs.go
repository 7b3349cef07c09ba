// Package obs is the structured event-tracing layer of the UM substrate:
// typed, timestamped events covering the fault-handling pipeline, the
// prefetch lifecycle, evictions, link occupancy, circuit-breaker
// transitions, health-ladder samples and queue depths, accumulated in a
// bounded ring buffer and exported as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing) or as an offline analysis report,
// including a per-kernel breakdown of faults, evictions, prefetches and
// stalls.
//
// The package is deliberately dependency-free: timestamps are plain int64
// nanoseconds of the engine's virtual (simulated) time, so it imports no
// clock. Attachment is designed to be zero-cost when disabled — every emit
// site in the substrate guards on a nil *Recorder, so a run without
// tracing pays one predictable branch per site and allocates nothing.
package obs

import "sync"

// Kind discriminates trace events. The taxonomy follows the paper's
// anatomy of a UM training iteration: kernel launches on the GPU, fault
// batches through the nine-step handling pipeline (Fig. 3), the prefetch
// lifecycle issue -> transfer -> hit/waste (§4), evictions on and off the
// critical path (§5.1), link occupancy (§3.1), and the run-level
// supervision machinery layered on top.
type Kind uint8

// Event kinds. The comment on each kind documents the payload convention
// (which fields of Event carry what).
const (
	// KindNone is the zero value; never recorded.
	KindNone Kind = iota
	// KindIteration is a per-training-iteration span. Block = iteration
	// index, Arg = page faults in the iteration, Arg2 = 1 for warmup.
	KindIteration
	// KindKernel is one kernel's span from launch to completion (faulting
	// walk plus compute). Name = kernel name.
	KindKernel
	// KindFaultBatch is one fault-handling cycle (steps 1-9 of the
	// pipeline) from interrupt to replay. Arg = distinct faulted pages,
	// Arg2 = UM blocks in the batch.
	KindFaultBatch
	// KindEvict is one victim leaving device memory. Block = victim,
	// Arg = bytes written back (0 when invalidated), Arg2 = flag bits
	// (EvictCritical, EvictInvalidated).
	KindEvict
	// KindLinkTransfer is one link reservation. Name = "h2d" or "d2h",
	// Arg = bytes, Arg2 = 1 when the transfer transiently failed.
	KindLinkTransfer
	// KindPrefetchIssue marks the driver enqueueing a prefetch command.
	// Block = predicted UM block.
	KindPrefetchIssue
	// KindPrefetch is a prefetch migration span from transfer start to the
	// block becoming ready on the device. Block = block, Arg = bytes.
	KindPrefetch
	// KindPrefetchHit marks a kernel access served by an earlier prefetch.
	// Block = block, Arg = lead time in ns (ready-before-access; negative
	// means the access had to stall on the in-flight transfer).
	KindPrefetchHit
	// KindPrefetchWaste marks a prefetched block evicted before any access
	// used it. Block = block.
	KindPrefetchWaste
	// KindStall marks the GPU waiting on an in-flight migration.
	// Block = block, Arg = stall ns.
	KindStall
	// KindBreaker is a prefetch circuit-breaker transition. Name =
	// "from->to" state names.
	KindBreaker
	// KindQueueDepth is a counter sample. Name = queue name, Arg = depth.
	KindQueueDepth
	// KindHealth is a health-controller sample. Ladder transitions carry
	// Name = "L<from>-><L<to>" with Arg = new level and Arg2 = the driving
	// component; score samples carry Name = component name with Arg = score
	// in parts-per-million and Arg2 = the component.
	KindHealth
)

// Evict flag bits for KindEvict.Arg2.
const (
	// EvictCritical marks a synchronous eviction on the fault-handling
	// critical path (the GPU is stalled behind the writeback).
	EvictCritical int64 = 1 << iota
	// EvictInvalidated marks a victim dropped without writeback (its PT
	// block was inactive).
	EvictInvalidated
)

func (k Kind) String() string {
	switch k {
	case KindIteration:
		return "iteration"
	case KindKernel:
		return "kernel"
	case KindFaultBatch:
		return "fault-batch"
	case KindEvict:
		return "evict"
	case KindLinkTransfer:
		return "link-transfer"
	case KindPrefetchIssue:
		return "prefetch-issue"
	case KindPrefetch:
		return "prefetch"
	case KindPrefetchHit:
		return "prefetch-hit"
	case KindPrefetchWaste:
		return "prefetch-waste"
	case KindStall:
		return "stall"
	case KindBreaker:
		return "breaker"
	case KindQueueDepth:
		return "queue-depth"
	case KindHealth:
		return "health"
	}
	return "none"
}

// kindByName is the inverse of Kind.String, used by the trace reader.
func kindByName(s string) (Kind, bool) {
	for k := KindIteration; k.String() != "none"; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return KindNone, false
}

// Track assigns an event to a logical timeline (a Perfetto thread row).
type Track uint8

// Tracks. The numbering is stable: it is the tid of the exported Chrome
// trace events, so reordering would silently re-label existing traces.
const (
	// TrackRun carries iteration spans and run-level marks.
	TrackRun Track = iota
	// TrackGPU carries kernel spans, stalls, and prefetch hits.
	TrackGPU
	// TrackFaultHandler carries fault-batch spans and critical evictions.
	TrackFaultHandler
	// TrackLinkH2D and TrackLinkD2H carry per-lane link occupancy.
	TrackLinkH2D
	TrackLinkD2H
	// TrackDriver carries the prefetch lifecycle and queue depths.
	TrackDriver
	// TrackBreaker carries circuit-breaker transitions.
	TrackBreaker
	// Tid 7 is reserved: it named a track that no longer exists.
	_
	// TrackHealth carries degradation-ladder transitions and component
	// score samples.
	TrackHealth
	numTracks
)

func (t Track) String() string {
	switch t {
	case TrackRun:
		return "run"
	case TrackGPU:
		return "gpu"
	case TrackFaultHandler:
		return "fault-handler"
	case TrackLinkH2D:
		return "link-h2d"
	case TrackLinkD2H:
		return "link-d2h"
	case TrackDriver:
		return "driver"
	case TrackBreaker:
		return "breaker"
	case TrackHealth:
		return "health"
	}
	return "unknown"
}

// Event is one timestamped occurrence. TS and Dur are nanoseconds of
// virtual time; Dur is zero for instants and counter samples.
// The per-kind payload conventions are documented on the Kind constants.
type Event struct {
	TS    int64
	Dur   int64
	Kind  Kind
	Track Track
	Name  string
	Block int64
	Arg   int64
	Arg2  int64
}

// Recorder accumulates events in a bounded ring: beyond the capacity the
// oldest events are overwritten (and counted), so tracing an arbitrarily
// long run uses constant memory. Record is safe for concurrent use; the
// critical section is a few stores (no allocation once the ring is full),
// which keeps the enabled path cheap and the disabled path — a nil
// *Recorder checked at every emit site — free.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	cap     int
	next    int // ring cursor once len(buf) == cap
	dropped int64
}

// DefaultCapacity is the ring size NewRecorder uses for capacity <= 0.
const DefaultCapacity = 1 << 20

// NewRecorder returns a recorder retaining up to capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity}
}

// Record appends one event. Safe for concurrent use.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next++
		if r.next == r.cap {
			r.next = 0
		}
		r.dropped++
	}
	r.mu.Unlock()
}

// Span records a [start, end) span of the given kind.
func (r *Recorder) Span(kind Kind, track Track, start, end int64, name string, block, arg, arg2 int64) {
	r.Record(Event{TS: start, Dur: end - start, Kind: kind, Track: track,
		Name: name, Block: block, Arg: arg, Arg2: arg2})
}

// Instant records a zero-duration event.
func (r *Recorder) Instant(kind Kind, track Track, ts int64, name string, block, arg, arg2 int64) {
	r.Record(Event{TS: ts, Kind: kind, Track: track, Name: name, Block: block, Arg: arg, Arg2: arg2})
}

// Counter records a counter sample (exported as a Chrome "C" event).
func (r *Recorder) Counter(track Track, ts int64, name string, value int64) {
	r.Record(Event{TS: ts, Kind: KindQueueDepth, Track: track, Name: name, Arg: value})
}

// Events returns the retained events oldest-first. The returned slice is a
// copy; it is safe to keep across further recording.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == r.cap {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Len returns how many events are currently retained.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many old events the ring overwrote.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
