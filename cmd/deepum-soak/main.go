// Command deepum-soak is a deterministic randomized soak harness for the
// self-healing stack: it composes schedules of the builtin chaos scenarios
// — random onset, duration, and overlap under a fixed seed — runs each
// schedule through the engine with the closed-loop health controller
// attached, and asserts the robustness invariants end-to-end:
//
//   - the invariant checker reports no violation,
//   - the degradation ladder converges back to L0 after injection ends,
//   - the memory-access stream is bit-identical to an uninjected baseline
//     (degradation is monotone-safe: every ladder level computes the same
//     thing, only slower),
//   - re-running a schedule reproduces the run bit-for-bit (checksums,
//     ladder transitions, chaos counters).
//
// On failure the harness greedily minimizes the schedule (dropping phases
// while the failure persists) and prints a one-line reproducer: the seed,
// the phase list, and the flags to replay it.
//
//	deepum-soak                         # default soak (3 schedules x 3 phases)
//	deepum-soak -seed 7 -schedules 5
//	deepum-soak -trace soak.trace.json  # Chrome trace of the last run
//
// With -storm the harness instead drills the serving layer under combined
// faults (see storm.go): a 4-shard oversubscribed federation takes -runs
// keyed submits over HTTP from clients that inject timeouts-after-send
// and retry under idempotency keys, while the arbiters revoke and suspend
// and one shard is killed and handed off mid-storm. One checker then
// asserts exactly one execution per key, checksums equal to the
// uninterrupted oracle, no run lost or duplicated, and no goroutine leak.
// -store adds the shared checkpoint store and audits every journal
// reference. The journals (and the store) survive in -dir for
// deepum-inspect journal -audit and deepum-inspect store. -seed fixes the
// injected fault draws, not the goroutine interleaving.
//
//	deepum-soak -storm -store -runs 10000 -dir /tmp/storm
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"deepum/internal/chaos"
	"deepum/internal/core"
	"deepum/internal/engine"
	"deepum/internal/health"
	"deepum/internal/models"
	"deepum/internal/obs"
	"deepum/internal/sim"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "master seed; everything derives from it (under -storm it fixes the injected fault draws, not the goroutine interleaving)")
		schedules = flag.Int("schedules", 3, "randomized chaos schedules to soak")
		phasesN   = flag.Int("phases", 3, "chaos phases per schedule")
		model     = flag.String("model", "bert-large", "workload model")
		batch     = flag.Int64("batch", 16, "batch size (oversubscribed at the default scale)")
		scale     = flag.Int64("scale", 8, "size divisor")
		iters     = flag.Int("iters", 2, "measured iterations per run")
		warmup    = flag.Int("warmup", 1, "warmup iterations per run")
		tracePath = flag.String("trace", "", "write a Chrome trace of the final run here")

		stormMode  = flag.Bool("storm", false, "run the combined-fault storm instead of the chaos-schedule soak: an oversubscribed 4-shard federation under retried keyed submits, with a mid-storm shard kill")
		stormRuns  = flag.Int("runs", 10000, "storm: keyed submits (at least 100)")
		stormDir   = flag.String("dir", "", "storm: journal (and store) directory, kept for offline audit (empty = temp dir)")
		stormStore = flag.Bool("store", false, "storm: back checkpoints with a shared content-addressed store and audit every journal reference afterwards")
	)
	flag.Parse()
	if os.Getenv("DEEPUM_SOAK_SHORT") != "" {
		*schedules, *phasesN = 2, 3
	}

	if *stormMode {
		os.Exit(runStorm(stormOptions{runs: *stormRuns, dir: *stormDir, store: *stormStore, seed: *seed}))
	}

	h := &harness{
		seed:   *seed,
		model:  *model,
		batch:  *batch,
		scale:  *scale,
		iters:  *iters,
		warmup: *warmup,
		pool:   eligibleScenarios(),
	}
	if len(h.pool) < 6 {
		fatalf("only %d non-interrupting chaos scenarios available; soak needs >= 6", len(h.pool))
	}

	startGoroutines := runtime.NumGoroutine()
	start := time.Now()

	// The uninjected, controller-less baseline pins the access-stream
	// checksum every soaked run must reproduce.
	base, err := h.runOnce(nil, nil)
	if err != nil {
		fatalf("baseline run: %v", err)
	}
	h.baseChecksum = base.checksum
	fmt.Printf("baseline   %s batch %d scale 1/%d: checksum %016x, %d faults/iter\n",
		h.model, h.batch, h.scale, base.checksum, base.faultsPerIter)

	failures := 0
	phaseRot := 0 // global rotation over the pool guarantees scenario coverage
	covered := map[string]bool{}
	for s := 0; s < *schedules; s++ {
		phases := h.buildSchedule(s, *phasesN, &phaseRot)
		for _, p := range phases {
			covered[p.Scenario.Name] = true
		}
		fmt.Printf("schedule %d %s\n", s, chaos.FormatPhases(phases))
		if d, msg := h.soakSchedule(phases); msg == "" {
			fmt.Printf("  ok: peak %s, %d transition(s), %d impulse(s), %s\n",
				d.maxLevel, strings.Count(d.transitions, ";"), d.impulses, d.chaosCounts)
		} else {
			failures++
			min := h.minimize(phases)
			fmt.Printf("FAIL schedule %d: %s\n", s, msg)
			fmt.Printf("  reproducer: deepum-soak -seed %d -model %s -batch %d -scale %d -iters %d -warmup %d\n",
				h.seed, h.model, h.batch, h.scale, h.iters, h.warmup)
			fmt.Printf("  minimized phases: %s\n", chaos.FormatPhases(min))
		}
	}
	if len(covered) < 6 {
		failures++
		fmt.Printf("FAIL coverage: only %d distinct scenarios soaked, want >= 6\n", len(covered))
	}

	if *tracePath != "" {
		if err := h.writeTrace(*tracePath, *schedules, *phasesN); err != nil {
			fatalf("trace: %v", err)
		}
		fmt.Printf("trace      written to %s\n", *tracePath)
	}

	// The engine is synchronous, so a soak that leaks goroutines points at
	// the harness or a regression in something it pulled in.
	if leaked := goroutineLeak(startGoroutines); leaked > 0 {
		failures++
		fmt.Printf("FAIL goroutines: %d leaked (started with %d)\n", leaked, startGoroutines)
	}

	if failures > 0 {
		fmt.Printf("soak FAILED: %d failure(s) in %v\n", failures, time.Since(start).Round(time.Millisecond))
		os.Exit(1)
	}
	fmt.Printf("soak OK: %d schedules, %d scenarios covered, %v\n",
		*schedules, len(covered), time.Since(start).Round(time.Millisecond))
}

// harness carries the fixed workload and the baseline fingerprint.
type harness struct {
	seed          int64
	model         string
	batch, scale  int64
	iters, warmup int
	pool          []chaos.Scenario
	baseChecksum  uint64
}

// eligibleScenarios returns the active, non-interrupting builtin scenarios —
// the ones a phase schedule may compose.
func eligibleScenarios() []chaos.Scenario {
	var out []chaos.Scenario
	for _, sc := range chaos.Scenarios() {
		if sc.Active() && !sc.Interrupts() {
			out = append(out, sc)
		}
	}
	return out
}

// buildSchedule derives one schedule's phases deterministically from the
// master seed and schedule index: the scenario rotates through the pool
// (coverage), onset and duration are drawn from the schedule's own PRNG so
// phases overlap at random.
func (h *harness) buildSchedule(idx, n int, rot *int) []chaos.Phase {
	rng := rand.New(rand.NewSource(h.seed + int64(idx)*1_000_003))
	phases := make([]chaos.Phase, 0, n)
	for i := 0; i < n; i++ {
		sc := h.pool[*rot%len(h.pool)]
		*rot++
		// Onsets span the warm bulk of the run (the default workload runs
		// ~3s of virtual time and prefetching only starts once the tables
		// have learned) but every phase ends well before the run does, so
		// the convergence assertion has room to walk the ladder back down.
		onset := sim.Duration(rng.Int63n(int64(1500 * time.Millisecond)))
		duration := sim.Duration(int64(50*time.Millisecond) + rng.Int63n(int64(250*time.Millisecond)))
		phases = append(phases, chaos.Phase{Scenario: sc, Onset: onset, Duration: duration})
	}
	return phases
}

// digest is everything a soak run asserts on, comparable across reruns.
type digest struct {
	status        string
	invariant     string
	checksum      uint64
	faultsPerIter int64
	totalTime     sim.Duration
	finalLevel    string
	maxLevel      string
	transitions   string // rendered log: "at:from->to;..."
	impulses      int64
	chaosCounts   string
}

// runOnce executes the fixed workload under the given phase schedule (nil =
// clean, controller-less baseline) and fingerprints the run. rec, when
// non-nil, captures the run's event trace.
func (h *harness) runOnce(phases []chaos.Phase, rec *obs.Recorder) (digest, error) {
	prog, err := models.Build(models.Spec{Model: h.model}, h.batch, h.scale)
	if err != nil {
		return digest{}, err
	}
	cfg := engine.Config{
		Params:        sim.DefaultParams().Scale(h.scale),
		Program:       prog,
		Policy:        engine.PolicyDeepUM,
		DriverOptions: core.DefaultOptions(),
		Iterations:    h.iters,
		Warmup:        h.warmup,
		Seed:          h.seed,
		Obs:           rec,
	}
	if phases != nil {
		inj, err := chaos.NewScheduledInjector(chaos.Scenario{Name: "soak"}, phases, h.seed)
		if err != nil {
			return digest{}, err
		}
		cfg.Chaos = inj
		// The controller clock scales with the failure density it watches:
		// soak phases are 50-300ms windows of moderate injection (vs. the
		// engine default tuned for sustained full-run chaos), so scores
		// remember a few milliseconds and the ladder moves on a
		// milliseconds cadence — several escalate/recover cycles fit in
		// one phase, and convergence still has >1s of clean tail.
		cfg.Health = health.NewController(health.Options{
			HalfLife:      int64(2 * time.Millisecond),
			Dwell:         int64(5 * time.Millisecond),
			ProbeInterval: int64(10 * time.Millisecond),
		})
	}
	r, err := engine.RunContext(context.Background(), cfg)
	if err != nil {
		return digest{}, err
	}
	d := digest{
		status:        r.Status.String(),
		checksum:      r.AccessChecksum,
		faultsPerIter: r.FaultsPerIter,
		totalTime:     r.TotalTime,
		chaosCounts: fmt.Sprintf("tf=%d dr=%d pr=%d pg=%d bc=%d dn=%d dup=%d ms=%d pw=%d",
			r.Chaos.TransferFailures, r.Chaos.DemandRetries, r.Chaos.PrefetchRetries,
			r.Chaos.PrefetchGiveUps, r.Chaos.BatchCapHits, r.Chaos.DroppedNotifies,
			r.Chaos.DupNotifies, r.Chaos.MigratorStalls, r.Chaos.PressureWindows),
	}
	if r.Invariant != nil {
		d.invariant = r.Invariant.Error()
	}
	if r.Health != nil {
		d.finalLevel = r.Health.Level
		d.maxLevel = r.Health.MaxLevel
		d.impulses = r.Health.Impulses
		for _, t := range r.Health.TransitionLog {
			d.transitions += fmt.Sprintf("%d:%s->%s;", t.At, t.FromName, t.ToName)
		}
	}
	return d, nil
}

// soakSchedule runs one schedule twice and returns the first run's digest
// plus a failure message ("" when every soak invariant holds).
func (h *harness) soakSchedule(phases []chaos.Phase) (digest, string) {
	d1, err := h.runOnce(phases, nil)
	if err != nil {
		return d1, fmt.Sprintf("run error: %v", err)
	}
	if d1.invariant != "" {
		return d1, fmt.Sprintf("invariant violated: %s", d1.invariant)
	}
	if d1.finalLevel != "L0" {
		return d1, fmt.Sprintf("health controller did not converge: final level %s (peak %s)", d1.finalLevel, d1.maxLevel)
	}
	if d1.checksum != h.baseChecksum {
		return d1, fmt.Sprintf("access stream diverged from baseline: %016x != %016x (degradation is not monotone-safe)", d1.checksum, h.baseChecksum)
	}
	d2, err := h.runOnce(phases, nil)
	if err != nil {
		return d1, fmt.Sprintf("rerun error: %v", err)
	}
	if d1 != d2 {
		return d1, fmt.Sprintf("non-deterministic under fixed seed:\n  run1 %+v\n  run2 %+v", d1, d2)
	}
	return d1, ""
}

// minimize greedily drops phases while the failure persists, returning the
// smallest failing subset it finds (possibly empty: the failure does not
// depend on injection at all).
func (h *harness) minimize(phases []chaos.Phase) []chaos.Phase {
	cur := append([]chaos.Phase{}, phases...)
	for changed := true; changed; {
		changed = false
		for i := range cur {
			cand := append(append([]chaos.Phase{}, cur[:i]...), cur[i+1:]...)
			if _, msg := h.soakSchedule(cand); msg != "" {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}

// writeTrace re-runs the last schedule with the observer attached and
// writes its Chrome trace (the CI soak job feeds it to deepum-inspect).
func (h *harness) writeTrace(path string, schedules, phasesN int) error {
	rot := (schedules - 1) * phasesN
	phases := h.buildSchedule(schedules-1, phasesN, &rot)
	rec := obs.NewRecorder(0)
	if _, err := h.runOnce(phases, rec); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goroutineLeak settles briefly and reports how many goroutines beyond the
// starting count are still alive.
func goroutineLeak(start int) int {
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= start {
			return 0
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - start
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deepum-soak: "+format+"\n", args...)
	os.Exit(1)
}
