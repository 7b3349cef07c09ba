package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// Analysis is the offline digest of an event trace: the timing-overlap
// questions the aggregate counters cannot answer. Link utilisation tells
// whether the claimed prefetch/demand overlap actually happened; the
// fault-batch histogram shows whether faults arrive in the large batches
// the handler amortizes over (Fig. 3); the prefetch lead-time distribution
// separates prefetches that truly hid latency from those the GPU still
// stalled on; the critical-path eviction count is the direct measure of
// what pre-eviction (§5.1) failed to move off the fault path; the
// per-kernel table shows which kernels the faults and stalls belong to.
type Analysis struct {
	Events  int
	SpanNs  int64 // first to last event timestamp
	Dropped int64 // ring overwrites reported by the recorder (0 if unknown)

	Iterations int
	Kernels    int64

	// Link occupancy per lane: busy ns, bytes, utilisation percent of the
	// trace span, and transiently failed reservation attempts.
	LinkBusyH2DNs, LinkBusyD2HNs   int64
	LinkBytesH2D, LinkBytesD2H     int64
	LinkUtilH2DPct, LinkUtilD2HPct float64
	FailedTransfers                int64

	// Fault-handling pipeline.
	FaultBatches     int64
	FaultPages       int64
	FaultBatchNs     int64        // total time inside fault-handling cycles
	BatchSizeHist    []HistBucket // pages per batch, power-of-two buckets
	EvictCritical    int64        // synchronous evictions on the fault path
	EvictBackground  int64        // pre-evictions off the critical path
	EvictInvalidated int64        // victims dropped without writeback

	// Prefetch lifecycle.
	PrefetchIssued    int64
	PrefetchTransfers int64
	PrefetchHits      int64
	PrefetchWasted    int64
	PrefetchLateHits  int64 // hits whose lead time was negative (stalled)
	LeadNsMin         int64
	LeadNsP50         int64
	LeadNsP90         int64
	LeadNsMax         int64

	// GPU stalls on in-flight migrations.
	Stalls  int64
	StallNs int64

	// Breaker transitions, in order.
	BreakerTransitions []string

	// Health-controller timeline: degradation-ladder transitions in order
	// ("L0->L1" labels), the highest level reached, the final level, and
	// the per-component peak score (0..1) sampled from the trace.
	HealthTransitions []string
	HealthMaxLevel    int64
	HealthFinalLevel  int64
	HealthScorePeak   map[string]float64

	// QueueDepthMax holds the maximum sampled depth per queue name.
	QueueDepthMax map[string]int64

	// PerKernel aggregates the trace per kernel name, ordered by fault
	// pages descending (see KernelProfile).
	PerKernel []KernelProfile
}

// KernelProfile is one kernel name's share of a trace. Each event is
// charged to the kernel span that started latest at or before it; events
// before the first kernel span are charged to none.
type KernelProfile struct {
	Kernel     string
	Launches   int64 // kernel spans
	FaultPages int64 // pages faulted in the kernel's fault batches
	Migrated   int64 // UM blocks in the kernel's fault batches
	Evicted    int64 // critical-path evictions with writeback
	Prefetches int64 // prefetch transfers started
	StallNs    int64 // GPU time stalled on in-flight migrations
}

// HistBucket is one bucket of a power-of-two histogram: counts of samples
// in [Lo, Hi].
type HistBucket struct {
	Lo, Hi int64
	Count  int64
}

// Analyze digests an event stream (live from a Recorder or round-tripped
// through ReadChromeTrace).
func Analyze(events []Event) *Analysis {
	a := &Analysis{Events: len(events), QueueDepthMax: map[string]int64{},
		HealthScorePeak: map[string]float64{}}
	if len(events) == 0 {
		return a
	}
	first, last := events[0].TS, events[0].TS
	var batchPages []int64
	var leads []int64
	for _, e := range events {
		if e.TS < first {
			first = e.TS
		}
		if end := e.TS + e.Dur; end > last {
			last = end
		}
		switch e.Kind {
		case KindIteration:
			a.Iterations++
		case KindKernel:
			a.Kernels++
		case KindFaultBatch:
			a.FaultBatches++
			a.FaultPages += e.Arg
			a.FaultBatchNs += e.Dur
			batchPages = append(batchPages, e.Arg)
		case KindEvict:
			switch {
			case e.Arg2&EvictInvalidated != 0:
				a.EvictInvalidated++
			case e.Arg2&EvictCritical != 0:
				a.EvictCritical++
			default:
				a.EvictBackground++
			}
		case KindLinkTransfer:
			if e.Track == TrackLinkH2D {
				a.LinkBusyH2DNs += e.Dur
				a.LinkBytesH2D += e.Arg
			} else {
				a.LinkBusyD2HNs += e.Dur
				a.LinkBytesD2H += e.Arg
			}
			if e.Arg2 != 0 {
				a.FailedTransfers++
			}
		case KindPrefetchIssue:
			a.PrefetchIssued++
		case KindPrefetch:
			a.PrefetchTransfers++
		case KindPrefetchHit:
			a.PrefetchHits++
			if e.Arg < 0 {
				a.PrefetchLateHits++
			}
			leads = append(leads, e.Arg)
		case KindPrefetchWaste:
			a.PrefetchWasted++
		case KindStall:
			a.Stalls++
			a.StallNs += e.Arg
		case KindBreaker:
			a.BreakerTransitions = append(a.BreakerTransitions, e.Name)
		case KindHealth:
			if strings.Contains(e.Name, "->") {
				a.HealthTransitions = append(a.HealthTransitions, e.Name)
				a.HealthFinalLevel = e.Arg
				if e.Arg > a.HealthMaxLevel {
					a.HealthMaxLevel = e.Arg
				}
			} else if s := float64(e.Arg) / 1e6; s > a.HealthScorePeak[e.Name] {
				a.HealthScorePeak[e.Name] = s
			}
		case KindQueueDepth:
			if e.Arg > a.QueueDepthMax[e.Name] {
				a.QueueDepthMax[e.Name] = e.Arg
			}
		}
	}
	a.SpanNs = last - first
	if a.SpanNs > 0 {
		a.LinkUtilH2DPct = 100 * float64(a.LinkBusyH2DNs) / float64(a.SpanNs)
		a.LinkUtilD2HPct = 100 * float64(a.LinkBusyD2HNs) / float64(a.SpanNs)
	}
	a.BatchSizeHist = pow2Hist(batchPages)
	if len(leads) > 0 {
		sort.Slice(leads, func(i, j int) bool { return leads[i] < leads[j] })
		a.LeadNsMin = leads[0]
		a.LeadNsMax = leads[len(leads)-1]
		a.LeadNsP50 = leads[len(leads)/2]
		a.LeadNsP90 = leads[len(leads)*9/10]
	}
	a.PerKernel = perKernel(events)
	return a
}

// perKernel builds Analysis.PerKernel. A kernel span is recorded when the
// kernel completes, after its own events, so the spans are sorted by start
// before events are matched to them.
func perKernel(events []Event) []KernelProfile {
	type start struct {
		ts   int64
		prof *KernelProfile
	}
	byName := map[string]*KernelProfile{}
	var starts []start
	for _, e := range events {
		if e.Kind != KindKernel {
			continue
		}
		p := byName[e.Name]
		if p == nil {
			p = &KernelProfile{Kernel: e.Name}
			byName[e.Name] = p
		}
		p.Launches++
		starts = append(starts, start{e.TS, p})
	}
	if len(starts) == 0 {
		return nil
	}
	sort.SliceStable(starts, func(i, j int) bool { return starts[i].ts < starts[j].ts })
	for _, e := range events {
		switch e.Kind {
		case KindFaultBatch, KindEvict, KindPrefetch, KindStall:
		default:
			continue
		}
		i := sort.Search(len(starts), func(i int) bool { return starts[i].ts > e.TS })
		if i == 0 {
			continue
		}
		p := starts[i-1].prof
		switch e.Kind {
		case KindFaultBatch:
			p.FaultPages += e.Arg
			p.Migrated += e.Arg2
		case KindEvict:
			if e.Arg2&EvictCritical != 0 && e.Arg2&EvictInvalidated == 0 {
				p.Evicted++
			}
		case KindPrefetch:
			p.Prefetches++
		case KindStall:
			p.StallNs += e.Arg
		}
	}
	out := make([]KernelProfile, 0, len(byName))
	for _, p := range byName {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FaultPages != out[j].FaultPages {
			return out[i].FaultPages > out[j].FaultPages
		}
		return out[i].Kernel < out[j].Kernel
	})
	return out
}

// pow2Hist buckets positive samples into power-of-two ranges [2^k, 2^(k+1)-1].
func pow2Hist(samples []int64) []HistBucket {
	if len(samples) == 0 {
		return nil
	}
	counts := map[int]int64{}
	maxB := 0
	for _, s := range samples {
		if s < 1 {
			s = 1
		}
		b := bits.Len64(uint64(s)) - 1
		counts[b]++
		if b > maxB {
			maxB = b
		}
	}
	out := make([]HistBucket, 0, maxB+1)
	for b := 0; b <= maxB; b++ {
		lo := int64(1) << b
		hi := lo*2 - 1
		out = append(out, HistBucket{Lo: lo, Hi: hi, Count: counts[b]})
	}
	return out
}

// Check audits trace-level invariants that a well-formed run must satisfy.
// It returns the first violation, or nil. These are the semantic checks on
// top of ReadChromeTrace's syntactic schema validation: per-lane link
// spans must not overlap (each lane is a serialized resource), fault
// batches must fault at least one page, utilisation cannot exceed 100%,
// and prefetch hits cannot outnumber prefetch transfers.
func Check(events []Event) error {
	type laneEnd struct {
		end int64
		set bool
	}
	var lanes [numTracks]laneEnd
	healthLevel := int64(0)
	for i, e := range events {
		if e.Dur < 0 {
			return fmt.Errorf("trace invariant: event %d (%s) has negative duration %d", i, e.Kind, e.Dur)
		}
		switch e.Kind {
		case KindHealth:
			if !strings.Contains(e.Name, "->") {
				break // score sample, not a transition
			}
			// The ladder is graduated: every transition moves exactly one
			// level, inside [L0, L3].
			to := e.Arg
			if to < 0 || to > 3 {
				return fmt.Errorf("trace invariant: health transition %q at %d ns targets level %d outside [0,3]",
					e.Name, e.TS, to)
			}
			if d := to - healthLevel; d != 1 && d != -1 {
				return fmt.Errorf("trace invariant: health transition %q at %d ns jumps from L%d to L%d (must move one level)",
					e.Name, e.TS, healthLevel, to)
			}
			healthLevel = to
		case KindFaultBatch:
			if e.Arg <= 0 {
				return fmt.Errorf("trace invariant: fault batch at %d ns faults %d pages (must be >= 1)", e.TS, e.Arg)
			}
		case KindLinkTransfer:
			if e.Arg <= 0 {
				return fmt.Errorf("trace invariant: link transfer at %d ns moves %d bytes (must be >= 1)", e.TS, e.Arg)
			}
			l := &lanes[e.Track]
			if l.set && e.TS < l.end {
				return fmt.Errorf("trace invariant: overlapping transfers on %s: one starts at %d ns before the previous ends at %d ns",
					e.Track, e.TS, l.end)
			}
			if end := e.TS + e.Dur; !l.set || end > l.end {
				l.end, l.set = end, true
			}
		}
	}
	a := Analyze(events)
	if a.LinkUtilH2DPct > 100.000001 || a.LinkUtilD2HPct > 100.000001 {
		return fmt.Errorf("trace invariant: link utilisation over 100%% (h2d %.2f%%, d2h %.2f%%)",
			a.LinkUtilH2DPct, a.LinkUtilD2HPct)
	}
	if a.PrefetchHits > a.PrefetchTransfers && a.PrefetchTransfers > 0 {
		return fmt.Errorf("trace invariant: %d prefetch hits exceed %d prefetch transfers",
			a.PrefetchHits, a.PrefetchTransfers)
	}
	return nil
}

// String renders the analysis as an aligned human-readable report.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events spanning %s", a.Events, fmtNs(a.SpanNs))
	if a.Dropped > 0 {
		fmt.Fprintf(&b, " (%d oldest overwritten)", a.Dropped)
	}
	fmt.Fprintf(&b, "\n")
	fmt.Fprintf(&b, "run: %d iterations, %d kernel launches\n", a.Iterations, a.Kernels)
	fmt.Fprintf(&b, "\nlink utilisation\n")
	fmt.Fprintf(&b, "  h2d  %6.2f%%  busy %-12s %10.2f MiB, %d failed attempts\n",
		a.LinkUtilH2DPct, fmtNs(a.LinkBusyH2DNs), float64(a.LinkBytesH2D)/(1<<20), a.FailedTransfers)
	fmt.Fprintf(&b, "  d2h  %6.2f%%  busy %-12s %10.2f MiB\n",
		a.LinkUtilD2HPct, fmtNs(a.LinkBusyD2HNs), float64(a.LinkBytesD2H)/(1<<20))
	fmt.Fprintf(&b, "\nfault handling: %d batches, %d pages, %s inside the handler\n",
		a.FaultBatches, a.FaultPages, fmtNs(a.FaultBatchNs))
	if len(a.BatchSizeHist) > 0 {
		fmt.Fprintf(&b, "  batch size (pages)  count\n")
		for _, h := range a.BatchSizeHist {
			fmt.Fprintf(&b, "  %6d-%-6d %11d\n", h.Lo, h.Hi, h.Count)
		}
	}
	fmt.Fprintf(&b, "evictions: %d critical-path, %d background, %d invalidated\n",
		a.EvictCritical, a.EvictBackground, a.EvictInvalidated)
	fmt.Fprintf(&b, "\nprefetch: %d issued, %d transferred, %d hits (%d late), %d wasted\n",
		a.PrefetchIssued, a.PrefetchTransfers, a.PrefetchHits, a.PrefetchLateHits, a.PrefetchWasted)
	if a.PrefetchHits > 0 {
		fmt.Fprintf(&b, "  lead time: min %s  p50 %s  p90 %s  max %s\n",
			fmtNs(a.LeadNsMin), fmtNs(a.LeadNsP50), fmtNs(a.LeadNsP90), fmtNs(a.LeadNsMax))
	}
	fmt.Fprintf(&b, "gpu stalls on in-flight migrations: %d for %s\n", a.Stalls, fmtNs(a.StallNs))
	if len(a.BreakerTransitions) > 0 {
		fmt.Fprintf(&b, "breaker: %s\n", strings.Join(a.BreakerTransitions, ", "))
	}
	if len(a.HealthTransitions) > 0 || len(a.HealthScorePeak) > 0 {
		fmt.Fprintf(&b, "health: max L%d, final L%d", a.HealthMaxLevel, a.HealthFinalLevel)
		if len(a.HealthTransitions) > 0 {
			fmt.Fprintf(&b, "; ladder %s", strings.Join(a.HealthTransitions, ", "))
		}
		fmt.Fprintf(&b, "\n")
		if len(a.HealthScorePeak) > 0 {
			comps := make([]string, 0, len(a.HealthScorePeak))
			for c := range a.HealthScorePeak {
				comps = append(comps, c)
			}
			sort.Strings(comps)
			fmt.Fprintf(&b, "  peak scores:")
			for _, c := range comps {
				fmt.Fprintf(&b, " %s=%.2f", c, a.HealthScorePeak[c])
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	if len(a.QueueDepthMax) > 0 {
		names := make([]string, 0, len(a.QueueDepthMax))
		for n := range a.QueueDepthMax {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "queue depth maxima:")
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, a.QueueDepthMax[n])
		}
		fmt.Fprintf(&b, "\n")
	}
	if len(a.PerKernel) > 0 {
		n := min(len(a.PerKernel), 20)
		fmt.Fprintf(&b, "\nper kernel: top %d of %d by fault pages\n", n, len(a.PerKernel))
		fmt.Fprintf(&b, "  migrated = UM blocks in fault batches, evicted = critical-path writebacks,\n")
		fmt.Fprintf(&b, "  prefetch = prefetch transfers started\n")
		fmt.Fprintf(&b, "%-24s %8s %12s %10s %10s %10s %12s\n",
			"kernel", "launches", "fault pages", "migrated", "evicted", "prefetch", "stall")
		for _, p := range a.PerKernel[:n] {
			fmt.Fprintf(&b, "%-24s %8d %12d %10d %10d %10d %12v\n",
				p.Kernel, p.Launches, p.FaultPages, p.Migrated, p.Evicted,
				p.Prefetches, time.Duration(p.StallNs))
		}
	}
	return b.String()
}

// fmtNs renders nanoseconds with an adaptive unit.
func fmtNs(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%s%.3fs", neg, float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%s%.3fms", neg, float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%s%.3fus", neg, float64(ns)/1e3)
	}
	return fmt.Sprintf("%s%dns", neg, ns)
}
