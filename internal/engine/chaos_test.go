package engine

import (
	"testing"

	"deepum/internal/chaos"
	"deepum/internal/core"
	"deepum/internal/models"
	"deepum/internal/obs"
	"deepum/internal/sim"
	"deepum/internal/workload"
)

// chaosProgram builds the oversubscribed workload the scenario suite runs:
// BERT Large at scale 64 does not fit the scaled V100, so every substrate
// the injector perturbs (link, fault path, eviction) is actually exercised.
func chaosProgram(t *testing.T) *workload.Program {
	t.Helper()
	p, err := models.Build(models.Spec{Model: "bert-large", Dataset: "wikitext"}, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func chaosRun(t *testing.T, p *workload.Program, policy Policy, sc chaos.Scenario, seed int64, rec *obs.Recorder) *Result {
	t.Helper()
	var inj *chaos.Injector
	if sc.Active() {
		inj = chaos.NewInjector(sc, seed)
	}
	res, err := Run(Config{
		Params:        sim.DefaultParams().Scale(64),
		Program:       p,
		Policy:        policy,
		DriverOptions: core.DefaultOptions(),
		Iterations:    2,
		Warmup:        2,
		Seed:          seed,
		Obs:           rec,
		Chaos:         inj,
	})
	if err != nil {
		t.Fatalf("%v under scenario %q: %v", policy, sc.Name, err)
	}
	return res
}

// TestChaosScenarioSuite: every named scenario completes on an
// oversubscribed workload with the always-on invariant checker green (Run
// fails the iteration otherwise), and DeepUM under chaos stays no slower
// than naive UM under the same chaos — degraded, never worse than not
// having the driver at all.
func TestChaosScenarioSuite(t *testing.T) {
	p := chaosProgram(t)
	for _, sc := range chaos.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			deep := chaosRun(t, p, PolicyDeepUM, sc, 1, nil)
			um := chaosRun(t, p, PolicyUM, sc, 1, nil)
			if sc.Interrupts() {
				// Run-ending scenarios assert the lifecycle contract instead
				// of the timing one: the run returns a partial result tagged
				// with the matching status, under both policies.
				want := StatusCancelled
				if sc.VirtualDeadline > 0 {
					want = StatusDeadlineExceeded
				}
				if deep.Status != want || um.Status != want {
					t.Fatalf("status under %q: deepum %v, um %v, want %v",
						sc.Name, deep.Status, um.Status, want)
				}
				if deep.Iterations >= 2 || um.Iterations >= 2 {
					t.Fatalf("interrupting scenario completed all measured iterations: deepum %d, um %d",
						deep.Iterations, um.Iterations)
				}
				return
			}
			if deep.Status != StatusCompleted {
				t.Fatalf("non-interrupting scenario %q ended %v (invariant: %v)",
					sc.Name, deep.Status, deep.Invariant)
			}
			if deep.TotalTime <= 0 || um.TotalTime <= 0 {
				t.Fatalf("degenerate times: deepum %v, um %v", deep.TotalTime, um.TotalTime)
			}
			// 5% tolerance: chaos randomizes per-run costs, and the claim is
			// "no worse", not "always strictly faster on every draw".
			if float64(deep.TotalTime) > 1.05*float64(um.TotalTime) {
				t.Fatalf("DeepUM under %q is slower than naive UM: %v vs %v", sc.Name, deep.TotalTime, um.TotalTime)
			}
		})
	}
}

// TestChaosStatsFire: each scenario's perturbations actually land — the
// injector's counters show the substrate it targets was hit, and the
// consumers' degradation counters show they coped.
func TestChaosStatsFire(t *testing.T) {
	p := chaosProgram(t)
	byName := func(name string) chaos.Scenario {
		sc, err := chaos.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}

	t.Run("flaky-link", func(t *testing.T) {
		res := chaosRun(t, p, PolicyDeepUM, byName("flaky-link"), 1, nil)
		if res.Chaos.TransferFailures == 0 {
			t.Fatal("no transfer failures injected at 5% over an oversubscribed run")
		}
		retries := res.Handler.TransferRetries + res.Chaos.PrefetchRetries
		if retries == 0 {
			t.Fatal("failures injected but nothing retried")
		}
	})
	t.Run("fault-storm", func(t *testing.T) {
		res := chaosRun(t, p, PolicyDeepUM, byName("fault-storm"), 1, nil)
		if res.Chaos.BatchCapHits == 0 {
			t.Fatal("fault-buffer overflow never capped a batch")
		}
		if res.Chaos.DroppedNotifies == 0 {
			t.Fatal("no notifications dropped at 20%")
		}
	})
	t.Run("host-pressure", func(t *testing.T) {
		res := chaosRun(t, p, PolicyDeepUM, byName("host-pressure"), 1, nil)
		if res.Chaos.PressureWindows == 0 {
			t.Fatal("no transfer hit a pressure spike covering 30% of virtual time")
		}
	})
	t.Run("stalled-migrator", func(t *testing.T) {
		res := chaosRun(t, p, PolicyDeepUM, byName("stalled-migrator"), 1, nil)
		if res.Chaos.MigratorStalls == 0 {
			t.Fatal("no migrator stalls at 30% of kernel launches")
		}
	})
	t.Run("tiny-tables", func(t *testing.T) {
		clean := chaosRun(t, p, PolicyDeepUM, chaos.Scenario{}, 1, nil)
		tiny := chaosRun(t, p, PolicyDeepUM, byName("tiny-tables"), 1, nil)
		if tiny.DriverTableBytes >= clean.DriverTableBytes {
			t.Fatalf("table pressure did not shrink the tables: %d vs %d bytes",
				tiny.DriverTableBytes, clean.DriverTableBytes)
		}
	})
	t.Run("degraded-link", func(t *testing.T) {
		clean := chaosRun(t, p, PolicyDeepUM, chaos.Scenario{}, 1, nil)
		slow := chaosRun(t, p, PolicyDeepUM, byName("degraded-link"), 1, nil)
		if slow.TotalTime <= clean.TotalTime {
			t.Fatalf("quarter-bandwidth link did not slow the run: %v vs %v", slow.TotalTime, clean.TotalTime)
		}
	})
}

// TestChaosDeterministicTrace: same scenario + same seed reproduces a
// byte-identical event trace and identical measurements; a different chaos
// seed diverges. This is the property that makes chaos failures debuggable.
func TestChaosDeterministicTrace(t *testing.T) {
	p := chaosProgram(t)
	sc, err := chaos.ByName("everything")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) ([]obs.Event, *Result) {
		rec := obs.NewRecorder(1 << 21)
		res := chaosRun(t, p, PolicyDeepUM, sc, seed, rec)
		return rec.Events(), res
	}
	ev1, r1 := run(1)
	ev2, r2 := run(1)
	if len(ev1) == 0 {
		t.Fatal("empty trace")
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("traces diverge at event %d: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	if r1.TotalTime != r2.TotalTime || r1.Chaos != r2.Chaos ||
		r1.TrafficH2D != r2.TrafficH2D || r1.TrafficD2H != r2.TrafficD2H {
		t.Fatalf("same seed, different measurements:\n%+v\n%+v", r1.Chaos, r2.Chaos)
	}
	ev3, _ := run(2)
	same := len(ev1) == len(ev3)
	if same {
		for i := range ev1 {
			if ev1[i] != ev3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (injection not wired to the seed)")
	}
}

// TestChaosPrefetchGiveUpFallsBack: a hostile link makes prefetches give up,
// and the abandoned blocks are still served — by demand faulting — without
// tripping the served-invariant. The run completing IS the assertion (the
// checker runs every iteration); the counter proves the path was taken.
func TestChaosPrefetchGiveUpFallsBack(t *testing.T) {
	p := chaosProgram(t)
	sc := chaos.Scenario{
		Name:                "hostile-link",
		TransferFailProb:    0.5,
		MaxConsecutiveFails: 8,
	}
	res := chaosRun(t, p, PolicyDeepUM, sc, 1, nil)
	if res.Chaos.PrefetchGiveUps == 0 {
		t.Skip("no prefetch gave up at 50% failure; retune the scenario")
	}
	if res.FaultsPerIter == 0 {
		t.Fatal("give-ups recorded but no demand faults served the abandoned blocks")
	}
}
