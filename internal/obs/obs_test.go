package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRecorderAppendsInOrder(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Instant(KindHealth, TrackHealth, int64(i*100), "m", 0, int64(i), 0)
	}
	ev := r.Events()
	if len(ev) != 5 || r.Len() != 5 {
		t.Fatalf("got %d events, Len %d, want 5", len(ev), r.Len())
	}
	for i, e := range ev {
		if e.TS != int64(i*100) || e.Arg != int64(i) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
}

func TestRecorderRingOverwritesOldest(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Instant(KindHealth, TrackHealth, int64(i), "m", 0, int64(i), 0)
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	// Oldest-first: the last 4 recorded, in recording order.
	for i, e := range ev {
		if want := int64(6 + i); e.Arg != want {
			t.Fatalf("event %d: Arg = %d, want %d", i, e.Arg, want)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
}

func TestRecorderCapEviction(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Instant(KindFaultBatch, TrackFaultHandler, int64(i), "f", 0, 1, 0)
	}
	if len(r.Events()) > 4 {
		t.Fatalf("recorder exceeded cap: %d", len(r.Events()))
	}
	if r.Dropped() == 0 {
		t.Fatal("no drops counted despite overflow")
	}
	// Retained events are the most recent ones, still ordered.
	ev := r.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatal("events out of order after overwrite")
		}
	}
	// A zero capacity selects DefaultCapacity: no overflow for small loads.
	big := NewRecorder(0)
	for i := 0; i < 100; i++ {
		big.Instant(KindHealth, TrackHealth, int64(i), "m", 0, 0, 0)
	}
	if big.Dropped() != 0 || len(big.Events()) != 100 {
		t.Fatal("default-cap recorder dropped small load")
	}
}

// TestKindString pins the kind names written into Chrome traces; the trace
// reader maps them back, so renaming one orphans existing trace files.
func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindNone: "none", KindIteration: "iteration", KindKernel: "kernel",
		KindFaultBatch: "fault-batch", KindEvict: "evict",
		KindLinkTransfer: "link-transfer", KindPrefetchIssue: "prefetch-issue",
		KindPrefetch: "prefetch", KindPrefetchHit: "prefetch-hit",
		KindPrefetchWaste: "prefetch-waste", KindStall: "stall",
		KindBreaker: "breaker", KindQueueDepth: "queue-depth",
		KindHealth: "health", Kind(99): "none",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestRecorderSpan(t *testing.T) {
	r := NewRecorder(4)
	r.Span(KindKernel, TrackGPU, 1000, 4000, "conv1", 7, 2, 3)
	ev := r.Events()
	want := Event{TS: 1000, Dur: 3000, Kind: KindKernel, Track: TrackGPU,
		Name: "conv1", Block: 7, Arg: 2, Arg2: 3}
	if len(ev) != 1 || !reflect.DeepEqual(ev[0], want) {
		t.Fatalf("got %+v, want %+v", ev, want)
	}
}

func TestRecorderConcurrentRecord(t *testing.T) {
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Instant(KindHealth, TrackHealth, int64(i), "w", int64(g), int64(i), 0)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Len() + int(r.Dropped()); got != 800 {
		t.Fatalf("retained+dropped = %d, want 800", got)
	}
}

func TestKindAndTrackNamesRoundTrip(t *testing.T) {
	for k := KindIteration; k.String() != "none"; k++ {
		got, ok := kindByName(k.String())
		if !ok || got != k {
			t.Fatalf("kindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := kindByName("no-such-kind"); ok {
		t.Fatal("kindByName accepted an unknown name")
	}
	const reserved = Track(7)
	seen := map[string]bool{}
	for tr := Track(0); tr < numTracks; tr++ {
		if tr == reserved {
			continue
		}
		s := tr.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("track %d has bad or duplicate name %q", tr, s)
		}
		seen[s] = true
	}
	if s := reserved.String(); s != "unknown" {
		t.Fatalf("reserved tid 7 is named %q", s)
	}
	// Tids are the Chrome trace's thread IDs: the tracks after the reserved
	// slot must keep their numbers so existing traces keep their labels.
	for tr, tid := range map[Track]int{TrackHealth: 8} {
		if int(tr) != tid {
			t.Fatalf("track %q has tid %d, want %d", tr, int(tr), tid)
		}
	}
}

func TestAnalyze(t *testing.T) {
	events := []Event{
		{TS: 0, Dur: 10_000, Kind: KindIteration, Track: TrackRun, Block: 0, Arg: 12},
		{TS: 0, Dur: 4_000, Kind: KindKernel, Track: TrackGPU, Name: "conv1"},
		{TS: 500, Dur: 2_000, Kind: KindFaultBatch, Track: TrackFaultHandler, Arg: 96, Arg2: 3},
		{TS: 600, Dur: 1_000, Kind: KindLinkTransfer, Track: TrackLinkH2D, Name: "h2d", Arg: 1 << 20},
		{TS: 1_700, Dur: 500, Kind: KindLinkTransfer, Track: TrackLinkD2H, Name: "d2h", Arg: 1 << 19},
		{TS: 1_700, Kind: KindEvict, Track: TrackFaultHandler, Block: 9, Arg: 1 << 19, Arg2: EvictCritical},
		{TS: 2_000, Kind: KindEvict, Track: TrackDriver, Block: 10, Arg2: EvictInvalidated},
		{TS: 2_100, Kind: KindEvict, Track: TrackDriver, Block: 11, Arg: 1 << 19},
		{TS: 3_000, Kind: KindPrefetchIssue, Track: TrackDriver, Block: 4},
		{TS: 3_100, Dur: 900, Kind: KindPrefetch, Track: TrackDriver, Block: 4, Arg: 1 << 21},
		{TS: 4_200, Dur: 600, Kind: KindPrefetch, Track: TrackDriver, Block: 5, Arg: 1 << 20},
		{TS: 5_000, Kind: KindPrefetchHit, Track: TrackGPU, Block: 4, Arg: 1_000},
		{TS: 5_500, Kind: KindPrefetchHit, Track: TrackGPU, Block: 5, Arg: -200},
		{TS: 6_000, Kind: KindPrefetchWaste, Track: TrackDriver, Block: 6},
		{TS: 6_500, Kind: KindStall, Track: TrackGPU, Block: 5, Arg: 200},
		{TS: 7_000, Kind: KindBreaker, Track: TrackBreaker, Name: "closed->open"},
		{TS: 7_500, Kind: KindQueueDepth, Track: TrackDriver, Name: "faultq", Arg: 3},
		{TS: 8_000, Kind: KindQueueDepth, Track: TrackDriver, Name: "faultq", Arg: 7},
	}
	a := Analyze(events)
	if a.SpanNs != 10_000 {
		t.Errorf("SpanNs = %d, want 10000", a.SpanNs)
	}
	if a.Iterations != 1 || a.Kernels != 1 {
		t.Errorf("iterations/kernels = %d/%d, want 1/1", a.Iterations, a.Kernels)
	}
	if a.FaultBatches != 1 || a.FaultPages != 96 || a.FaultBatchNs != 2_000 {
		t.Errorf("fault batch stats = %+v", a)
	}
	if a.LinkBusyH2DNs != 1_000 || a.LinkBusyD2HNs != 500 {
		t.Errorf("link busy = %d/%d", a.LinkBusyH2DNs, a.LinkBusyD2HNs)
	}
	if a.LinkUtilH2DPct != 10 || a.LinkUtilD2HPct != 5 {
		t.Errorf("link util = %v/%v, want 10/5", a.LinkUtilH2DPct, a.LinkUtilD2HPct)
	}
	if a.EvictCritical != 1 || a.EvictBackground != 1 || a.EvictInvalidated != 1 {
		t.Errorf("evictions = %d/%d/%d, want 1/1/1", a.EvictCritical, a.EvictBackground, a.EvictInvalidated)
	}
	if a.PrefetchIssued != 1 || a.PrefetchTransfers != 2 || a.PrefetchHits != 2 || a.PrefetchWasted != 1 {
		t.Errorf("prefetch lifecycle = %+v", a)
	}
	if a.PrefetchLateHits != 1 || a.LeadNsMin != -200 || a.LeadNsMax != 1_000 {
		t.Errorf("lead stats: late=%d min=%d max=%d", a.PrefetchLateHits, a.LeadNsMin, a.LeadNsMax)
	}
	if a.Stalls != 1 || a.StallNs != 200 {
		t.Errorf("stalls = %d/%d ns", a.Stalls, a.StallNs)
	}
	if len(a.BreakerTransitions) != 1 || a.BreakerTransitions[0] != "closed->open" {
		t.Errorf("breaker = %v", a.BreakerTransitions)
	}
	if a.QueueDepthMax["faultq"] != 7 {
		t.Errorf("queue depth max = %d, want 7", a.QueueDepthMax["faultq"])
	}
	if len(a.BatchSizeHist) == 0 {
		t.Fatal("no batch-size histogram")
	}
	last := a.BatchSizeHist[len(a.BatchSizeHist)-1]
	if last.Lo != 64 || last.Hi != 127 || last.Count != 1 {
		t.Errorf("top histogram bucket = %+v, want 64-127 x1", last)
	}
	if err := Check(events); err != nil {
		t.Errorf("Check: %v", err)
	}
	out := a.String()
	for _, want := range []string{"link utilisation", "fault handling", "prefetch", "closed->open", "faultq=7"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeConsumesEveryKind checks that every kind has a reader: a
// one-event trace of each kind must move some field of the analysis
// beyond the event count and span, which a kind-less event moves too.
func TestAnalyzeConsumesEveryKind(t *testing.T) {
	one := func(k Kind) *Analysis {
		return Analyze([]Event{{Dur: 1, Arg: 1, Kind: k, Name: "x"}})
	}
	base := one(KindNone)
	for k := KindIteration; k.String() != "none"; k++ {
		if reflect.DeepEqual(one(k), base) {
			t.Errorf("kind %q: Analyze reads nothing from it", k)
		}
	}
}

func TestCheckCatchesOverlappingTransfers(t *testing.T) {
	events := []Event{
		{TS: 0, Dur: 1_000, Kind: KindLinkTransfer, Track: TrackLinkH2D, Name: "h2d", Arg: 64},
		{TS: 500, Dur: 1_000, Kind: KindLinkTransfer, Track: TrackLinkH2D, Name: "h2d", Arg: 64},
	}
	if err := Check(events); err == nil {
		t.Fatal("Check accepted overlapping transfers on one lane")
	}
}

func TestCheckCatchesEmptyFaultBatch(t *testing.T) {
	events := []Event{{TS: 0, Dur: 100, Kind: KindFaultBatch, Track: TrackFaultHandler, Arg: 0}}
	if err := Check(events); err == nil {
		t.Fatal("Check accepted a zero-page fault batch")
	}
}

// TestAnalyzePerKernel: events are charged to the latest kernel span at or
// before them, although each span is recorded after its own events; only
// critical-path writebacks count as evicted.
func TestAnalyzePerKernel(t *testing.T) {
	events := []Event{
		// Before the first kernel: charged to none.
		{TS: 0, Dur: 100, Kind: KindFaultBatch, Track: TrackFaultHandler, Arg: 5, Arg2: 1},
		{TS: 100, Kind: KindStall, Track: TrackGPU, Block: 1, Arg: 7},
		// conv: its span follows its events in recording order.
		{TS: 1_000, Dur: 500, Kind: KindFaultBatch, Track: TrackFaultHandler, Arg: 100, Arg2: 2},
		{TS: 1_200, Kind: KindEvict, Track: TrackFaultHandler, Block: 8, Arg: 4096, Arg2: EvictCritical},
		{TS: 1_300, Kind: KindEvict, Track: TrackFaultHandler, Block: 9, Arg2: EvictCritical | EvictInvalidated},
		{TS: 1_600, Kind: KindStall, Track: TrackGPU, Block: 2, Arg: 5_000},
		{TS: 1_700, Dur: 300, Kind: KindPrefetch, Track: TrackDriver, Block: 3, Arg: 4096},
		{TS: 1_000, Dur: 2_000, Kind: KindKernel, Track: TrackGPU, Name: "conv"},
		// gemm, launched twice.
		{TS: 3_000, Dur: 400, Kind: KindFaultBatch, Track: TrackFaultHandler, Arg: 700, Arg2: 3},
		{TS: 3_100, Kind: KindEvict, Track: TrackDriver, Block: 10, Arg: 4096}, // background
		{TS: 3_500, Kind: KindEvict, Track: TrackFaultHandler, Block: 11, Arg: 4096, Arg2: EvictCritical},
		{TS: 3_000, Dur: 1_000, Kind: KindKernel, Track: TrackGPU, Name: "gemm"},
		{TS: 4_000, Dur: 1_000, Kind: KindKernel, Track: TrackGPU, Name: "gemm"},
		{TS: 4_000, Dur: 200, Kind: KindPrefetch, Track: TrackDriver, Block: 4, Arg: 4096},
	}
	got := Analyze(events).PerKernel
	want := []KernelProfile{
		// Ordered by fault pages descending.
		{Kernel: "gemm", Launches: 2, FaultPages: 700, Migrated: 3, Evicted: 1, Prefetches: 1},
		{Kernel: "conv", Launches: 1, FaultPages: 100, Migrated: 2, Evicted: 1, Prefetches: 1, StallNs: 5_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PerKernel =\n%+v\nwant\n%+v", got, want)
	}
	out := Analyze(events).String()
	for _, row := range []string{"gemm", "conv", "5\u00b5s"} {
		if !strings.Contains(out, row) {
			t.Fatalf("report missing %q:\n%s", row, out)
		}
	}
	if Analyze(events[:2]).PerKernel != nil {
		t.Fatal("a trace without kernel spans has a per-kernel table")
	}
}
