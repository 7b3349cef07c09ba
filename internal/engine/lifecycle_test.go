package engine

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"deepum/internal/chaos"
	"deepum/internal/core"
	"deepum/internal/correlation"
	"deepum/internal/models"
	"deepum/internal/sim"
	"deepum/internal/workload"
)

// countdownCtx is a context whose Err flips to the configured error after a
// fixed number of Err calls — a deterministic stand-in for "the supervisor
// cancelled us mid-run", since the engine polls Err at every event boundary.
type countdownCtx struct {
	context.Context
	calls  int
	fireAt int
	err    error
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.fireAt {
		return c.err
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return nil }

func lifecycleProgram(t *testing.T) *workload.Program {
	t.Helper()
	p, err := models.Build(models.Spec{Model: "bert-large", Dataset: "wikitext"}, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func lifecycleConfig(p *workload.Program) Config {
	return Config{
		Params:        sim.DefaultParams().Scale(64),
		Program:       p,
		Policy:        PolicyDeepUM,
		DriverOptions: core.DefaultOptions(),
		Warmup:        2,
		Iterations:    2,
		Seed:          1,
	}
}

// TestRunContextPreCancelled: a context cancelled before the run starts stops
// it at the very first event — zero iterations, StatusCancelled, nil error.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, lifecycleConfig(lifecycleProgram(t)))
	if err != nil {
		t.Fatalf("pre-cancelled run errored: %v", err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
	if res.Iterations != 0 || len(res.IterStats) != 0 {
		t.Fatalf("pre-cancelled run reported %d iterations, %d iter stats",
			res.Iterations, len(res.IterStats))
	}
}

// TestRunContextCancelMidRun: a cancellation landing mid-run (after a fixed
// number of event-boundary polls) returns the partial measurements with
// StatusCancelled, leaves consistent state (the invariant checker runs on the
// partial iteration), and leaks no goroutines — the engine is synchronous,
// and cancellation must not change that.
func TestRunContextCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx := &countdownCtx{Context: context.Background(), fireAt: 2000, err: context.Canceled}
	res, err := RunContext(ctx, lifecycleConfig(lifecycleProgram(t)))
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
	if res.Iterations >= 2 {
		t.Fatalf("cancelled run completed all %d measured iterations", res.Iterations)
	}
	if res.Invariant != nil {
		t.Fatalf("cancellation corrupted state: %v", res.Invariant)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked across cancellation: %d before, %d after", before, g)
	}
}

// TestRunContextDeadlineError: a context whose Err reports DeadlineExceeded
// classifies the stop as deadline-exceeded, not cancelled.
func TestRunContextDeadlineError(t *testing.T) {
	ctx := &countdownCtx{Context: context.Background(), fireAt: 2000, err: context.DeadlineExceeded}
	res, err := RunContext(ctx, lifecycleConfig(lifecycleProgram(t)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDeadlineExceeded {
		t.Fatalf("status = %v, want deadline-exceeded", res.Status)
	}
}

// TestVirtualDeadlineDiscardsPrefetches: a virtual-time deadline calibrated
// to land inside a measured iteration (tables warm, prefetch queue busy)
// stops the run deterministically: demand work has drained at the event
// boundary, and the queued speculation is discarded and counted.
func TestVirtualDeadlineDiscardsPrefetches(t *testing.T) {
	p := lifecycleProgram(t)
	clean, err := Run(lifecycleConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.IterStats) != 4 {
		t.Fatalf("calibration run has %d iter stats, want 4", len(clean.IterStats))
	}
	cfg := lifecycleConfig(p)
	cfg.Deadline = clean.IterStats[0].Time + clean.IterStats[1].Time + clean.IterStats[2].Time/2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDeadlineExceeded {
		t.Fatalf("status = %v, want deadline-exceeded", res.Status)
	}
	if len(res.IterStats) != 2 {
		t.Fatalf("run past a mid-iteration-2 deadline completed %d iterations, want 2", len(res.IterStats))
	}
	if res.DiscardedPrefetches == 0 {
		t.Fatal("no queued prefetches discarded at a mid-iteration stop (queue should be busy)")
	}
	if res.Invariant != nil {
		t.Fatalf("deadline stop corrupted state: %v", res.Invariant)
	}
	// Determinism: the virtual deadline cuts at the same event every time.
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalTime != res.TotalTime || res2.DiscardedPrefetches != res.DiscardedPrefetches ||
		res2.Handler.PageFaults != res.Handler.PageFaults {
		t.Fatal("virtual deadline stop is not deterministic")
	}
}

// TestBreakerStateMachine pins the prefetch breaker's transitions: threshold
// consecutive failures open it, the cooldown half-opens it, a delivered probe
// closes it, a failed probe reopens it — every step logged.
func TestBreakerStateMachine(t *testing.T) {
	cd := breakerCooldown
	b := newPrefetchBreaker()
	at := sim.Time(1000)
	if !b.allow(at) {
		t.Fatal("fresh breaker not closed")
	}
	for i := 1; i < breakerThreshold; i++ {
		b.failure(at)
	}
	if b.state != BreakerClosed {
		t.Fatalf("state after %d/%d failures = %s", breakerThreshold-1, breakerThreshold, b.state)
	}
	b.success(at)
	for i := 1; i < breakerThreshold; i++ {
		b.failure(at)
	}
	if b.state != BreakerClosed {
		t.Fatal("success did not reset the consecutive-failure count")
	}
	b.failure(at)
	if b.state != BreakerOpen || b.opens != 1 {
		t.Fatalf("state after %d consecutive failures = %s (opens %d)", breakerThreshold, b.state, b.opens)
	}
	if b.allow(at.Add(cd / 2)) {
		t.Fatal("open breaker allowed work inside the cooldown")
	}
	if b.short != 1 {
		t.Fatalf("short-circuit count = %d, want 1", b.short)
	}
	if !b.allow(at.Add(cd)) || b.state != BreakerHalfOpen {
		t.Fatalf("cooldown elapsed but state = %s", b.state)
	}
	b.failure(at.Add(cd))
	if b.state != BreakerOpen || b.opens != 2 {
		t.Fatalf("failed probe did not reopen: state %s, opens %d", b.state, b.opens)
	}
	reopenAt := at.Add(cd)
	if !b.allow(reopenAt.Add(cd)) {
		t.Fatal("second cooldown did not half-open")
	}
	b.success(reopenAt.Add(cd))
	if b.state != BreakerClosed {
		t.Fatalf("delivered probe did not close: state %s", b.state)
	}

	snap := b.snapshot()
	if snap.Opens != 2 || !snap.EverOpened || snap.State != BreakerClosed ||
		snap.Threshold != breakerThreshold || snap.Cooldown != cd {
		t.Fatalf("snapshot %+v", snap)
	}
	// The transition log is a connected chain starting from closed.
	tr := snap.Transitions
	if len(tr) == 0 || tr[0].From != BreakerClosed {
		t.Fatalf("transition log %v", tr)
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].From != tr[i-1].To || tr[i].At < tr[i-1].At {
			t.Fatalf("transition chain broken at %d: %v", i, tr)
		}
	}

	// Nil breaker (non-DeepUM policies): inert on every path.
	var nb *prefetchBreaker
	if !nb.allow(0) {
		t.Fatal("nil breaker blocked work")
	}
	nb.success(0)
	nb.failure(0)
	if s := nb.snapshot(); s.EverOpened || s.State != "" {
		t.Fatalf("nil snapshot %+v", s)
	}
}

// TestBreakerOpensOnWedgedLink: a link failing nearly every transfer trips
// the breaker; the run survives in pure on-demand mode and finishes
// StatusDegraded with the trip recorded in the transition log.
func TestBreakerOpensOnWedgedLink(t *testing.T) {
	cfg := lifecycleConfig(lifecycleProgram(t))
	cfg.Chaos = chaos.NewInjector(chaos.Scenario{
		Name:                "wedged-link",
		TransferFailProb:    0.9,
		MaxConsecutiveFails: 64,
	}, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Breaker.EverOpened || res.Breaker.Opens == 0 {
		t.Fatalf("breaker never opened under a 90%%-failure link: %+v", res.Breaker)
	}
	if res.Status != StatusDegraded {
		t.Fatalf("status = %v, want degraded (breaker opened but run completed)", res.Status)
	}
	if res.Iterations != 2 {
		t.Fatalf("degraded run completed %d measured iterations, want 2 (breaker must not end the run)", res.Iterations)
	}
	if res.FaultsPerIter == 0 {
		t.Fatal("no demand faults while prefetching was suspended")
	}
	opens := int64(0)
	for _, tr := range res.Breaker.Transitions {
		if tr.To == BreakerOpen {
			opens++
		}
	}
	if opens != res.Breaker.Opens {
		t.Fatalf("transition log records %d opens, stats say %d", opens, res.Breaker.Opens)
	}
}

// TestBreakerUntrippedByBuiltinScenarios: the builtin chaos scenarios degrade
// via retries but must never trip the breaker (their consecutive-failure
// bound sits below the default threshold) — prefetching keeps working under
// ordinary chaos.
func TestBreakerUntrippedByBuiltinScenarios(t *testing.T) {
	cfg := lifecycleConfig(lifecycleProgram(t))
	sc, err := chaos.ByName("flaky-link")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = chaos.NewInjector(sc, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breaker.EverOpened {
		t.Fatalf("flaky-link tripped the breaker: %+v", res.Breaker)
	}
	if res.Status != StatusCompleted {
		t.Fatalf("status = %v, want completed", res.Status)
	}
}

// TestCheckpointKillResumeEquivalence is the acceptance test for warm-state
// checkpoint/resume: a run killed mid-iteration checkpoints its correlation
// tables; a resumed run (one warmup iteration to rebuild residency) produces
// a per-iteration trace — faults, prefetches issued, prefetch hits, even
// iteration time — identical to the uninterrupted run's from its second
// post-resume iteration onward.
func TestCheckpointKillResumeEquivalence(t *testing.T) {
	p, err := models.Build(models.Spec{Model: "dcgan", Dataset: "celeba"}, 1400, 64)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Params:        sim.DefaultParams().Scale(64),
		Program:       p,
		Policy:        PolicyDeepUM,
		DriverOptions: core.DefaultOptions(),
		Seed:          1,
	}

	// The uninterrupted reference: 2 warmup + 4 measured iterations.
	ucfg := base
	ucfg.Warmup, ucfg.Iterations = 2, 4
	u, err := Run(ucfg)
	if err != nil {
		t.Fatal(err)
	}
	if u.Status != StatusCompleted || len(u.IterStats) != 6 {
		t.Fatalf("reference run: status %v, %d iter stats", u.Status, len(u.IterStats))
	}

	// Kill a second run mid-iteration-2 via a virtual deadline (deterministic,
	// unaligned to an iteration boundary), then checkpoint its policy state
	// through the full save/frame/load path.
	acfg := base
	acfg.Warmup, acfg.Iterations = 2, 4
	acfg.Deadline = u.IterStats[0].Time + u.IterStats[1].Time + u.IterStats[2].Time/2
	a, err := Run(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != StatusDeadlineExceeded {
		t.Fatalf("killed run status = %v", a.Status)
	}
	if len(a.IterStats) >= len(u.IterStats) {
		t.Fatalf("killed run completed %d iterations, reference %d", len(a.IterStats), len(u.IterStats))
	}
	var payload, ckpt bytes.Buffer
	if err := a.Prefetcher.Save(&payload); err != nil {
		t.Fatal(err)
	}
	if err := correlation.WriteEnvelope(&ckpt, a.Prefetcher.Name(), payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	name, restored, err := correlation.ReadEnvelope(&ckpt)
	if err != nil {
		t.Fatal(err)
	}

	// Resume from the checkpoint: one warmup iteration rebuilds residency.
	bcfg := base
	bcfg.DriverOptions.Policy = name
	bcfg.DriverOptions.WarmPayload = restored
	bcfg.Warmup, bcfg.Iterations = 1, 3
	b, err := Run(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Status != StatusCompleted || len(b.IterStats) != 4 {
		t.Fatalf("resumed run: status %v, %d iter stats", b.Status, len(b.IterStats))
	}

	// Equivalence from the resumed run's iteration 2 onward: B[2..3] must be
	// identical to the uninterrupted steady state U[4..5], field by field.
	for i := 2; i < len(b.IterStats); i++ {
		got, want := b.IterStats[i], u.IterStats[i+2]
		if got.Faults != want.Faults || got.PrefetchIssued != want.PrefetchIssued ||
			got.PrefetchUseful != want.PrefetchUseful || got.Time != want.Time {
			t.Fatalf("resumed iteration %d diverges from reference: %+v vs %+v", i, got, want)
		}
	}
	// And the steady state is not vacuous: the workload faults every iteration.
	if last := b.IterStats[len(b.IterStats)-1]; last.Faults == 0 {
		t.Fatal("steady state has zero faults; the equivalence check checks nothing")
	}
}
