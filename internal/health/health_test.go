package health

import (
	"testing"

	"deepum/internal/obs"
)

// testOptions gives a slow half-life (negligible decay across the short
// timestamps the tests use) and tight dwell/probe clocks so sequences stay
// readable: dwell 100ns, probes every 1000ns.
func testOptions() Options {
	return Options{
		HalfLife:      1_000_000,
		Dwell:         100,
		ProbeInterval: 1000,
	}
}

func TestEscalationOneLevelPerDwell(t *testing.T) {
	c := NewController(testOptions())
	// Two transfer failures stack to 0.6 — exactly the up threshold.
	c.ObserveTransferFailure(200)
	if got := c.Level(); got != L0 {
		t.Fatalf("after one failure: level %s, want L0", got)
	}
	c.ObserveTransferFailure(200)
	if got := c.Level(); got != L1 {
		t.Fatalf("after two failures: level %s, want L1", got)
	}
	// Score is still over the threshold, but the dwell clock just reset:
	// more impulses at the same instant must not ratchet further.
	c.ObserveTransferFailure(200)
	c.ObserveTransferFailure(200)
	if got := c.Level(); got != L1 {
		t.Fatalf("impulses inside dwell: level %s, want L1", got)
	}
	// One level per elapsed dwell, and the ladder tops out at L3.
	c.ObserveTransferFailure(301)
	c.ObserveTransferFailure(402)
	c.ObserveTransferFailure(503)
	c.ObserveTransferFailure(604)
	if got := c.Level(); got != L3 {
		t.Fatalf("saturated ladder: level %s, want L3", got)
	}
	if got := c.MaxLevel(); got != L3 {
		t.Fatalf("max level %s, want L3", got)
	}
	for i, tr := range c.Transitions() {
		if tr.To != tr.From+1 {
			t.Errorf("transition %d jumps %s->%s", i, tr.FromName, tr.ToName)
		}
	}
}

func TestRecoveryWalksDownOneLevelPerProbe(t *testing.T) {
	opt := testOptions()
	c := NewController(opt)
	c.ObserveBreaker(100, "closed", "open") // 0.9: straight past the threshold
	c.ObserveTransferFailure(201)
	c.ObserveTransferFailure(302)
	if got := c.Level(); got != L3 {
		t.Fatalf("setup: level %s, want L3", got)
	}
	// Let the scores decay to ~0 (many half-lives), then tick repeatedly:
	// recovery must step one rung per probe interval, not collapse to L0.
	base := int64(302 + 40*opt.HalfLife)
	c.Tick(base)
	if got := c.Level(); got != L2 {
		t.Fatalf("first probe: level %s, want L2", got)
	}
	c.Tick(base + 1) // inside the probe interval
	if got := c.Level(); got != L2 {
		t.Fatalf("tick inside probe interval moved the ladder: level %s", got)
	}
	c.Tick(base + opt.ProbeInterval)
	c.Tick(base + 2*opt.ProbeInterval)
	if got := c.Level(); got != L0 {
		t.Fatalf("after three probes: level %s, want L0", got)
	}
	c.Tick(base + 3*opt.ProbeInterval)
	if got := c.Level(); got != L0 {
		t.Fatalf("probe below L0: level %s", got)
	}
	// MaxLevel keeps the high-water mark through recovery.
	if got := c.MaxLevel(); got != L3 {
		t.Fatalf("max level %s, want L3", got)
	}
}

func TestHysteresisBandHolds(t *testing.T) {
	opt := testOptions()
	c := NewController(opt)
	c.ObserveTransferFailure(100)
	c.ObserveTransferFailure(100) // 0.6 -> L1
	if got := c.Level(); got != L1 {
		t.Fatalf("setup: level %s, want L1", got)
	}
	// One half-life decays 0.6 to 0.3 — inside (Down, Up): the ladder must
	// hold L1 in both directions no matter how often it is re-evaluated.
	ts := 100 + opt.HalfLife
	for i := int64(0); i < 5; i++ {
		c.Tick(ts + i*opt.ProbeInterval)
		if got := c.Level(); got != L1 {
			t.Fatalf("tick %d in hysteresis band: level %s, want L1", i, got)
		}
	}
}

func TestNilControllerPermissive(t *testing.T) {
	var c *Controller
	if c.Level() != L0 || c.MaxLevel() != L0 {
		t.Fatal("nil controller not at L0")
	}
	if !c.AllowPrefetch() || !c.AllowPreevict() || !c.SpeculativeRequeue() {
		t.Fatal("nil controller gated something")
	}
	if c.UseFallbackEviction() {
		t.Fatal("nil controller forced fallback eviction")
	}
	if got := c.DegreeCap(8); got != 8 {
		t.Fatalf("nil DegreeCap(8) = %d", got)
	}
	if got := c.FaultBatchCap(64); got != 64 {
		t.Fatalf("nil FaultBatchCap(64) = %d", got)
	}
	// Every input must be a no-op, not a nil dereference.
	c.ObserveTransferFailure(1)
	c.ObserveTransferSuccess(2)
	c.ObservePrefetchRetry(3)
	c.ObservePrefetchGiveUp(4)
	c.ObservePrefetchWaste(5)
	c.ObserveLateHit(6)
	c.ObserveBreaker(7, "closed", "open")
	c.ObserveFaultBatch(8, 1000)
	c.ObserveMigratorStall(9, 1000)
	c.Tick(11)
	c.SetObserver(obs.NewRecorder(0))
	if c.Report() != nil || c.Transitions() != nil {
		t.Fatal("nil controller produced a report")
	}
}

func TestFixedNeverTransitions(t *testing.T) {
	c := Fixed(L2)
	for ts := int64(0); ts < 100_000; ts += 50 {
		c.ObserveBreaker(ts, "closed", "open")
	}
	if got := c.Level(); got != L2 {
		t.Fatalf("frozen controller moved to %s", got)
	}
	if n := len(c.Transitions()); n != 0 {
		t.Fatalf("frozen controller logged %d transitions", n)
	}
	// Gates reflect the pinned level.
	if c.AllowPreevict() {
		t.Fatal("L2 allows pre-eviction")
	}
	if !c.AllowPrefetch() {
		t.Fatal("L2 blocks prefetch")
	}
	// Signals still score (the report stays useful for diagnostics).
	if rep := c.Report(); rep.Impulses == 0 || rep.Level != "L2" || rep.MaxLevel != "L2" {
		t.Fatalf("frozen report %+v", rep)
	}
	if Fixed(numLevels+3).Level() != L3 {
		t.Fatal("out-of-range Fixed level not clamped to L3")
	}
}

func TestLadderGatesByLevel(t *testing.T) {
	cases := []struct {
		level                           Level
		prefetch, preevict, specRequeue bool
		fallbackEvict                   bool
		degreeCap8, batchCap64          int
	}{
		{L0, true, true, true, false, 8, 64},
		{L1, true, true, false, false, 4, 64},
		{L2, true, false, false, false, 1, 32},
		{L3, false, false, false, true, 0, 16},
	}
	for _, tc := range cases {
		c := Fixed(tc.level)
		if c.AllowPrefetch() != tc.prefetch {
			t.Errorf("%s: AllowPrefetch = %v", tc.level, c.AllowPrefetch())
		}
		if c.AllowPreevict() != tc.preevict {
			t.Errorf("%s: AllowPreevict = %v", tc.level, c.AllowPreevict())
		}
		if c.SpeculativeRequeue() != tc.specRequeue {
			t.Errorf("%s: SpeculativeRequeue = %v", tc.level, c.SpeculativeRequeue())
		}
		if c.UseFallbackEviction() != tc.fallbackEvict {
			t.Errorf("%s: UseFallbackEviction = %v", tc.level, c.UseFallbackEviction())
		}
		if got := c.DegreeCap(8); got != tc.degreeCap8 {
			t.Errorf("%s: DegreeCap(8) = %d, want %d", tc.level, got, tc.degreeCap8)
		}
		if got := c.FaultBatchCap(64); got != tc.batchCap64 {
			t.Errorf("%s: FaultBatchCap(64) = %d, want %d", tc.level, got, tc.batchCap64)
		}
	}
}

func TestOnTransitionCallback(t *testing.T) {
	var seen []Transition
	opt := testOptions()
	opt.OnTransition = func(tr Transition) { seen = append(seen, tr) }
	c := NewController(opt)
	c.ObserveBreaker(200, "closed", "open")
	c.ObserveTransferFailure(301)
	if len(seen) != 2 {
		t.Fatalf("callback fired %d times, want 2", len(seen))
	}
	if seen[0].From != L0 || seen[0].To != L1 || seen[1].To != L2 {
		t.Fatalf("callback transitions %+v", seen)
	}
	if seen[0].Component != "link" {
		t.Fatalf("transition component %q, want link", seen[0].Component)
	}
}

func TestSlowFaultBatchDetection(t *testing.T) {
	c := NewController(testOptions())
	// Establish the latency baseline: the first batches never alarm, even
	// wild ones, until slowBatchMinSamples have been seen.
	ts := int64(100)
	for i := 0; i < slowBatchMinSamples; i++ {
		c.ObserveFaultBatch(ts, 1_000)
		ts += 10
	}
	if rep := c.Report(); rep.Scores["migrator"] != 0 {
		t.Fatalf("baseline batches scored migrator %.2f", rep.Scores["migrator"])
	}
	// A batch 10x over the mean is a migrator impulse...
	c.ObserveFaultBatch(ts, 10_000)
	if rep := c.Report(); rep.Scores["migrator"] <= 0 {
		t.Fatal("slow batch did not score the migrator")
	}
	// ...and it also raises the baseline, so detection adapts rather than
	// alarming forever on a persistently slow handler.
	before := c.Report().Scores["migrator"]
	c.ObserveFaultBatch(ts+10, 3_000)
	if after := c.Report().Scores["migrator"]; after > before {
		t.Fatalf("in-band batch raised the score %.3f -> %.3f", before, after)
	}
}

func TestScoreDecay(t *testing.T) {
	opt := testOptions()
	c := NewController(opt)
	c.ObserveTransferFailure(0) // 0.30
	c.Tick(opt.HalfLife)
	rep := c.Report()
	if s := rep.Scores["link"]; s < 0.14 || s > 0.16 {
		t.Fatalf("one half-life: link score %.3f, want ~0.15", s)
	}
	if p := rep.PeakScores["link"]; p < 0.29 || p > 0.31 {
		t.Fatalf("peak score %.3f, want ~0.30", p)
	}
	// Clock regression must not re-inflate scores or panic.
	c.Tick(opt.HalfLife / 2)
	if s := c.Report().Scores["link"]; s > 0.16 {
		t.Fatalf("backwards tick inflated score to %.3f", s)
	}
}

func TestObserverEmitsHealthEvents(t *testing.T) {
	rec := obs.NewRecorder(0)
	c := NewController(testOptions())
	c.SetObserver(rec)
	c.ObserveBreaker(200, "closed", "open") // L0->L1 plus a score sample
	var transitions, samples int
	for _, e := range rec.Events() {
		if e.Kind != obs.KindHealth || e.Track != obs.TrackHealth {
			t.Fatalf("unexpected event %+v", e)
		}
		if e.Name == "L0->L1" {
			transitions++
			if e.Arg != int64(L1) {
				t.Fatalf("transition event Arg = %d, want %d", e.Arg, L1)
			}
		} else {
			samples++
		}
	}
	if transitions != 1 || samples == 0 {
		t.Fatalf("got %d transition events, %d score samples", transitions, samples)
	}
}

func TestLevelNames(t *testing.T) {
	for l := L0; l < numLevels; l++ {
		back, ok := LevelByName(l.String())
		if !ok || back != l {
			t.Errorf("level %s did not round trip", l)
		}
	}
	if _, ok := LevelByName("L9"); ok {
		t.Error("LevelByName accepted L9")
	}
	if numLevels.String() != "L?" {
		t.Errorf("out-of-range level prints %q", numLevels.String())
	}
}

func TestOptionsDefaults(t *testing.T) {
	got := Options{}.withDefaults()
	if got.HalfLife != DefaultHalfLife || got.Dwell != DefaultDwell ||
		got.ProbeInterval != DefaultProbeInterval {
		t.Fatalf("zero options resolved to %+v", got)
	}
}

func TestReportContents(t *testing.T) {
	c := NewController(testOptions())
	c.ObserveTransferFailure(100)
	c.ObserveTransferFailure(100)
	rep := c.Report()
	if rep.Level != "L1" || rep.MaxLevel != "L1" || rep.Transitions != 1 ||
		len(rep.TransitionLog) != 1 || rep.Impulses != 2 {
		t.Fatalf("report %+v", rep)
	}
	if rep.MaxLevelValue() != L1 {
		t.Fatalf("MaxLevelValue = %s", rep.MaxLevelValue())
	}
	var nilRep *Report
	if nilRep.MaxLevelValue() != L0 {
		t.Fatal("nil report MaxLevelValue != L0")
	}
}

func TestPressureGaugeDrivesMigratorScore(t *testing.T) {
	opt := testOptions()
	opt.HalfLife = 100 // sample every 100ns so the test stays short
	gauge := 0.0
	calls := 0
	opt.Pressure = func() float64 { calls++; return gauge }
	c := NewController(opt)

	// Zero pressure: ticks sample the gauge but fold no impulse.
	for ts := int64(100); ts <= 1000; ts += 100 {
		c.Tick(ts)
	}
	if calls == 0 {
		t.Fatal("gauge never sampled")
	}
	if got := c.Level(); got != L0 {
		t.Fatalf("zero pressure escalated to %s", got)
	}

	// Full pressure sustained across samples: steady state ~2·wPressure
	// crosses upThreshold and the ladder escalates.
	gauge = 1.0
	for ts := int64(1100); ts <= 20_000; ts += 100 {
		c.Tick(ts)
	}
	if got := c.Level(); got == L0 {
		t.Fatal("sustained full pressure never escalated the ladder")
	}
	rep := c.Report()
	if rep.Scores[Migrator.String()] < 0.5 {
		t.Fatalf("migrator score %v under sustained pressure, want >= 0.5", rep.Scores[Migrator.String()])
	}

	// Sampling is throttled: ticks inside one half-life reuse the last
	// sample.
	before := calls
	c.Tick(20_010)
	c.Tick(20_020)
	if calls != before {
		t.Fatalf("gauge sampled %d extra times inside one half-life", calls-before)
	}

	// Moderate pressure (0.5) decays back below the threshold: recovery.
	gauge = 0.0
	for ts := int64(21_000); ts <= 60_000; ts += 100 {
		c.Tick(ts)
	}
	if got := c.Level(); got != L0 {
		t.Fatalf("pressure released but ladder stuck at %s", got)
	}
}

func TestModeratePressureStaysBelowThreshold(t *testing.T) {
	opt := testOptions()
	opt.HalfLife = 100
	opt.Pressure = func() float64 { return 0.5 }
	c := NewController(opt)
	for ts := int64(100); ts <= 50_000; ts += 100 {
		c.Tick(ts)
	}
	if got := c.Level(); got != L0 {
		t.Fatalf("moderate pressure 0.5 escalated to %s, want L0", got)
	}
}
