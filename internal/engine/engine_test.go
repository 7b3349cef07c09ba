package engine

import (
	"runtime"
	"sync/atomic"
	"testing"

	"deepum/internal/chaos"
	"deepum/internal/core"
	"deepum/internal/models"
	"deepum/internal/obs"
	"deepum/internal/sim"
	"deepum/internal/workload"
)

// smallParams returns a tiny machine so tests run in microseconds of
// simulated hardware: 64 MiB GPU, 1 GiB host.
func smallParams() sim.Params {
	p := sim.DefaultParams()
	p.GPUMemory = 64 * sim.MiB
	p.HostMemory = 1 * sim.GiB
	return p
}

// toyProgram builds a two-layer workload whose working set oversubscribes
// the 64 MiB test GPU: two 24 MiB weights plus a 24 MiB activation chain.
func toyProgram(t *testing.T) *workload.Program {
	t.Helper()
	b := workload.NewBuilder("toy", 1)
	w1 := b.Tensor("w1", 24<<20, workload.Weight, true)
	w2 := b.Tensor("w2", 24<<20, workload.Weight, true)
	g1 := b.Tensor("g1", 24<<20, workload.Gradient, true)
	g2 := b.Tensor("g2", 24<<20, workload.Gradient, true)
	in := b.Tensor("in", 4<<20, workload.Input, true)
	a1 := b.Tensor("a1", 24<<20, workload.Activation, false)
	a2 := b.Tensor("a2", 24<<20, workload.Activation, false)

	b.Alloc(a1)
	b.Launch(&workload.Kernel{Name: "fwd1", Args: []uint64{1}, FLOPs: 1e9,
		Accesses: []workload.Access{{Tensor: in}, {Tensor: w1}, {Tensor: a1, Write: true}}})
	b.Alloc(a2)
	b.Launch(&workload.Kernel{Name: "fwd2", Args: []uint64{2}, FLOPs: 1e9,
		Accesses: []workload.Access{{Tensor: a1}, {Tensor: w2}, {Tensor: a2, Write: true}}})
	b.Launch(&workload.Kernel{Name: "bwd2", Args: []uint64{3}, FLOPs: 2e9,
		Accesses: []workload.Access{{Tensor: a2}, {Tensor: a1}, {Tensor: w2}, {Tensor: g2, Write: true}}})
	b.Free(a2)
	b.Launch(&workload.Kernel{Name: "bwd1", Args: []uint64{4}, FLOPs: 2e9,
		Accesses: []workload.Access{{Tensor: a1}, {Tensor: in}, {Tensor: w1}, {Tensor: g1, Write: true}}})
	b.Free(a1)
	b.Launch(&workload.Kernel{Name: "sgd", Args: []uint64{5}, FLOPs: 1e8,
		Accesses: []workload.Access{{Tensor: w1, Write: true}, {Tensor: g1}, {Tensor: w2, Write: true}, {Tensor: g2}}})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runPolicy(t *testing.T, p *workload.Program, policy Policy, opts core.Options) *Result {
	t.Helper()
	res, err := Run(Config{
		Params:        smallParams(),
		Program:       p,
		Policy:        policy,
		DriverOptions: opts,
		Iterations:    5,
		Warmup:        3,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNaiveUMFaultsEveryIteration(t *testing.T) {
	p := toyProgram(t)
	res := runPolicy(t, p, PolicyUM, core.Options{})
	if res.FaultsPerIter == 0 {
		t.Fatal("oversubscribed naive UM must fault in steady state")
	}
	if res.Handler.BlocksEvicted == 0 {
		t.Fatal("oversubscription must evict")
	}
	if res.TotalTime <= 0 || res.IterTime() <= 0 {
		t.Fatal("no time elapsed")
	}
	if res.EnergyJoules <= 0 {
		t.Fatal("no energy recorded")
	}
}

func TestDeepUMBeatsNaiveUM(t *testing.T) {
	p := toyProgram(t)
	um := runPolicy(t, p, PolicyUM, core.Options{})
	du := runPolicy(t, p, PolicyDeepUM, core.DefaultOptions())
	if du.TotalTime >= um.TotalTime {
		t.Fatalf("DeepUM (%v) not faster than UM (%v)", du.TotalTime, um.TotalTime)
	}
	if du.FaultsPerIter >= um.FaultsPerIter {
		t.Fatalf("DeepUM faults/iter %d not below UM %d", du.FaultsPerIter, um.FaultsPerIter)
	}
	if du.Driver.PrefetchIssued == 0 || du.Driver.PrefetchUseful == 0 {
		t.Fatalf("no useful prefetching happened: %+v", du.Driver)
	}
	if du.DriverTableBytes == 0 {
		t.Fatal("correlation tables report zero size")
	}
}

func TestIdealIsFastest(t *testing.T) {
	p := toyProgram(t)
	ideal := runPolicy(t, p, PolicyIdeal, core.Options{})
	du := runPolicy(t, p, PolicyDeepUM, core.DefaultOptions())
	if ideal.TotalTime > du.TotalTime {
		t.Fatalf("Ideal (%v) slower than DeepUM (%v)", ideal.TotalTime, du.TotalTime)
	}
	if ideal.Handler.BlocksEvicted != 0 {
		t.Fatal("Ideal must never evict")
	}
	// After warmup, the only faults are the host-refreshed input pages
	// (the 4 MiB minibatch = 1024 pages); everything else stays resident.
	inputPages := int64(4 << 20 / sim.PageSize)
	if ideal.FaultsPerIter > inputPages {
		t.Fatalf("Ideal faults/iter = %d, want <= %d (input refresh only)",
			ideal.FaultsPerIter, inputPages)
	}
}

func TestAblationOrdering(t *testing.T) {
	p := toyProgram(t)
	base := core.Options{Prefetch: true, Degree: 32}
	pre := core.Options{Prefetch: true, Preevict: true, Degree: 32}
	all := core.Options{Prefetch: true, Preevict: true, Invalidate: true, Degree: 32}
	um := runPolicy(t, p, PolicyUM, core.Options{})
	r1 := runPolicy(t, p, PolicyDeepUM, base)
	r2 := runPolicy(t, p, PolicyDeepUM, pre)
	r3 := runPolicy(t, p, PolicyDeepUM, all)
	if r1.TotalTime >= um.TotalTime {
		t.Fatalf("prefetching alone did not help: %v vs UM %v", r1.TotalTime, um.TotalTime)
	}
	if r2.TotalTime > r1.TotalTime {
		t.Fatalf("pre-eviction regressed: %v vs %v", r2.TotalTime, r1.TotalTime)
	}
	if r3.TotalTime > r2.TotalTime {
		t.Fatalf("invalidation regressed: %v vs %v", r3.TotalTime, r2.TotalTime)
	}
	if r3.Handler.BlocksDropped+r3.Driver.Invalidations == 0 {
		t.Fatal("invalidation never fired")
	}
	// Invalidation must reduce D2H traffic.
	if r3.TrafficD2H >= r2.TrafficD2H {
		t.Fatalf("invalidation did not reduce D2H: %d vs %d", r3.TrafficD2H, r2.TrafficD2H)
	}
}

func TestDeterminism(t *testing.T) {
	p := toyProgram(t)
	a := runPolicy(t, p, PolicyDeepUM, core.DefaultOptions())
	b := runPolicy(t, p, PolicyDeepUM, core.DefaultOptions())
	if a.TotalTime != b.TotalTime || a.FaultsPerIter != b.FaultsPerIter ||
		a.TrafficH2D != b.TrafficH2D || a.EnergyJoules != b.EnergyJoules {
		t.Fatalf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestHostMemoryWallSurfaces(t *testing.T) {
	b := workload.NewBuilder("huge", 1)
	b.Tensor("w", 2<<30, workload.Weight, true) // 2 GiB > 1 GiB host
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Params: smallParams(), Program: p, Policy: PolicyUM, Iterations: 1})
	if err == nil {
		t.Fatal("allocation beyond the host backing store must fail")
	}
}

func TestRealModelEndToEnd(t *testing.T) {
	// BERT Base at scale 64 on a proportionally scaled machine.
	p, err := models.Build(models.Spec{Model: "bert-base", Dataset: "wikitext"}, 31, 64)
	if err != nil {
		t.Fatal(err)
	}
	params := sim.DefaultParams().Scale(64)
	um, err := Run(Config{Params: params, Program: p, Policy: PolicyUM, Iterations: 3, Warmup: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	du, err := Run(Config{Params: params, Program: p, Policy: PolicyDeepUM,
		DriverOptions: core.DefaultOptions(), Iterations: 3, Warmup: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if du.TotalTime >= um.TotalTime {
		t.Fatalf("DeepUM %v not faster than UM %v on bert-base", du.TotalTime, um.TotalTime)
	}
	ratio := float64(du.FaultsPerIter) / float64(um.FaultsPerIter+1)
	if ratio > 0.5 {
		t.Fatalf("DeepUM fault reduction too weak: %d vs %d (ratio %.2f)",
			du.FaultsPerIter, um.FaultsPerIter, ratio)
	}
}

func TestDLRMIrregularDefeatsPrefetch(t *testing.T) {
	p, err := models.Build(models.Spec{Model: "dlrm", Dataset: "criteo"}, 96000, 64)
	if err != nil {
		t.Fatal(err)
	}
	params := sim.DefaultParams().Scale(64)
	um, err := Run(Config{Params: params, Program: p, Policy: PolicyUM, Iterations: 3, Warmup: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	du, err := Run(Config{Params: params, Program: p, Policy: PolicyDeepUM,
		DriverOptions: core.DefaultOptions(), Iterations: 3, Warmup: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// §6.2: "DLRM shows almost no speedup over UM" (paper measures
	// 1.2-1.3x; at the realistic scales of the bench suite this
	// reproduction lands at 1.1-1.25x). Correlation prefetching gains
	// nothing from the input-dependent lookups, so the speedup stays near
	// break-even — far below the 3x+ of dense models. The band is wide at
	// this tiny test scale (18-block tables) where sampling noise is large.
	speedup := float64(um.TotalTime) / float64(du.TotalTime)
	if speedup < 0.4 || speedup > 2.5 {
		t.Fatalf("DLRM speedup = %.2f, out of plausible band", speedup)
	}
}

// TestTracedRunPerKernelTotals: the per-kernel table of a traced run's obs
// analysis accounts for every fault page, kernel launch and critical-path
// writeback that the run's own counters report.
func TestTracedRunPerKernelTotals(t *testing.T) {
	rec := obs.NewRecorder(obs.DefaultCapacity)
	res := chaosRun(t, chaosProgram(t), PolicyDeepUM, chaos.Scenario{}, 1, rec)
	if rec.Dropped() != 0 {
		t.Fatalf("recorder overwrote %d events", rec.Dropped())
	}
	var pages, launches, evicted int64
	for _, k := range obs.Analyze(rec.Events()).PerKernel {
		pages += k.FaultPages
		launches += k.Launches
		evicted += k.Evicted
	}
	if pages == 0 || evicted == 0 {
		t.Fatalf("run faulted %d pages and evicted %d blocks: not oversubscribed", pages, evicted)
	}
	if pages != res.Handler.PageFaults || launches != res.Driver.KernelLaunches ||
		evicted != res.Handler.BlocksEvicted {
		t.Fatalf("per-kernel sums (pages %d, launches %d, evicted %d) != run counters (%d, %d, %d)",
			pages, launches, evicted,
			res.Handler.PageFaults, res.Driver.KernelLaunches, res.Handler.BlocksEvicted)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil program must fail")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyUM.String() != "UM" || PolicyDeepUM.String() != "DeepUM" || PolicyIdeal.String() != "Ideal" {
		t.Fatal("Policy.String broken")
	}
	if Policy(99).String() != "unknown" {
		t.Fatal("unknown policy string")
	}
}

// TestRunYieldsBetweenLaunches: a run gives up its processor between
// kernel launches, so a goroutine that shares the processor gets it at
// least once per 64 launches of a bert-base b32 scale-64 DeepUM run, not
// only when Go preempts the simulation.
func TestRunYieldsBetweenLaunches(t *testing.T) {
	prog, err := models.Build(models.Spec{Model: "bert-base"}, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var turns atomic.Int64
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			turns.Add(1)
			runtime.Gosched()
		}
	}()
	res, err := Run(Config{Params: sim.DefaultParams().Scale(64), Program: prog, Policy: PolicyDeepUM,
		DriverOptions: core.DefaultOptions(), Iterations: 4, Warmup: 3, Seed: 1})
	stop.Store(true)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	launches := res.Driver.KernelLaunches
	if n := turns.Load(); n*64 < launches {
		t.Fatalf("the yielding goroutine ran %d times in %d launches; want at least one per 64", n, launches)
	}
}
