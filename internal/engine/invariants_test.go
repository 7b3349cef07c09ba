package engine

import (
	"context"
	"testing"

	"deepum/internal/core"
	"deepum/internal/models"
	"deepum/internal/sim"
	"deepum/internal/um"
)

// TestResidencyNeverOverCapacity: device usage stays bounded through a full
// oversubscribed run. TopUp can transiently exceed capacity until the next
// eviction point, so the bound allows one iteration's worth of slack but
// never runaway growth.
func TestResidencyNeverOverCapacity(t *testing.T) {
	p, err := models.Build(models.Spec{Model: "bert-large", Dataset: "wikitext"}, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	params := sim.DefaultParams().Scale(64)
	e, err := newExec(context.Background(), Config{Params: params, Program: p, Policy: PolicyDeepUM,
		DriverOptions: core.DefaultOptions(), Iterations: 1, Warmup: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	limit := params.GPUMemory + params.GPUMemory/4
	for i := 0; i < 4; i++ {
		if err := e.iteration(); err != nil {
			t.Fatal(err)
		}
		if e.res.Used() > limit {
			t.Fatalf("iteration %d: device usage %d exceeds capacity %d by more than 25%%",
				i, e.res.Used(), params.GPUMemory)
		}
		if e.res.Count() < 0 {
			t.Fatal("negative resident count")
		}
	}
}

// TestTrafficConservation: H2D traffic can never exceed what was ever
// populated host-side plus re-fetches, and both directions stay positive
// and finite on an oversubscribed run.
func TestTrafficConservation(t *testing.T) {
	p, err := models.Build(models.Spec{Model: "gpt2-l", Dataset: "wikitext"}, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	params := sim.DefaultParams().Scale(64)
	res, err := Run(Config{Params: params, Program: p, Policy: PolicyDeepUM,
		DriverOptions: core.DefaultOptions(), Iterations: 4, Warmup: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrafficH2D <= 0 || res.TrafficD2H <= 0 {
		t.Fatalf("traffic = (%d, %d)", res.TrafficH2D, res.TrafficD2H)
	}
	// Every byte fetched H2D must have been written back D2H at some point
	// (weights zero-fill on first touch; activations are invalidated):
	// H2D cannot exceed D2H by more than one full footprint per iteration.
	slack := int64(6+2) * p.FootprintBytes()
	if res.TrafficH2D > res.TrafficD2H+slack {
		t.Fatalf("H2D %d exceeds D2H %d + slack %d: bytes fetched that never existed",
			res.TrafficH2D, res.TrafficD2H, slack)
	}
}

// TestMonotoneNonDecreasingClock: simulated time advances monotonically
// through all events; the final clock covers GPU busy time.
func TestMonotoneNonDecreasingClock(t *testing.T) {
	p, err := models.Build(models.Spec{Model: "mobilenet", Dataset: "cifar100"}, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	params := sim.DefaultParams().Scale(64)
	res, err := Run(Config{Params: params, Program: p, Policy: PolicyDeepUM,
		DriverOptions: core.DefaultOptions(), Iterations: 3, Warmup: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res.IterTimes {
		if it <= 0 {
			t.Fatalf("iteration %d has non-positive duration %v", i, it)
		}
	}
	if res.GPUBusy > res.TotalTime {
		t.Fatalf("GPU busy %v exceeds wall time %v", res.GPUBusy, res.TotalTime)
	}
	if res.LinkBusy < 0 {
		t.Fatal("negative link busy time")
	}
}

// TestSeedChangesIrregularOnly: different seeds change DLRM (irregular)
// results but leave BERT (deterministic access pattern) identical.
func TestSeedChangesIrregularOnly(t *testing.T) {
	params := sim.DefaultParams().Scale(64)
	run := func(model, ds string, batch, seed int64) *Result {
		p, err := models.Build(models.Spec{Model: model, Dataset: ds}, batch, 64)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(Config{Params: params, Program: p, Policy: PolicyDeepUM,
			DriverOptions: core.DefaultOptions(), Iterations: 3, Warmup: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	b1 := run("bert-base", "wikitext", 16, 1)
	b2 := run("bert-base", "wikitext", 16, 99)
	if b1.TotalTime != b2.TotalTime {
		t.Fatalf("seed changed a deterministic workload: %v vs %v", b1.TotalTime, b2.TotalTime)
	}
	d1 := run("dlrm", "criteo", 96000, 1)
	d2 := run("dlrm", "criteo", 96000, 99)
	if d1.TotalTime == d2.TotalTime {
		t.Fatal("seed did not affect the irregular workload")
	}
}

// TestInputRefreshFaultsEachIteration: the host rewrites input tensors, so
// even fully-resident runs re-migrate them every iteration.
func TestInputRefreshFaultsEachIteration(t *testing.T) {
	p, err := models.Build(models.Spec{Model: "bert-base", Dataset: "wikitext"}, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	params := sim.DefaultParams().Scale(64)
	params.GPUMemory *= 16 // plenty of room: no oversubscription
	res, err := Run(Config{Params: params, Program: p, Policy: PolicyUM,
		Iterations: 3, Warmup: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsPerIter == 0 {
		t.Fatal("input refresh must fault even without oversubscription")
	}
	// But only a handful of pages: the minibatch, not the model.
	if res.FaultsPerIter > 100 {
		t.Fatalf("too many steady-state faults without oversubscription: %d", res.FaultsPerIter)
	}
}

// TestBlockIDsStableAcrossIterations: the caching allocator hands the same
// addresses to the same tensors every iteration — the property that makes
// execution IDs and block correlations repeat.
func TestBlockIDsStableAcrossIterations(t *testing.T) {
	p, err := models.Build(models.Spec{Model: "bert-base", Dataset: "wikitext"}, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	params := sim.DefaultParams().Scale(64)
	e, err := newExec(context.Background(), Config{Params: params, Program: p, Policy: PolicyUM,
		Iterations: 1, Warmup: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	record := func() map[int32]um.Addr {
		out := map[int32]um.Addr{}
		if err := e.iteration(); err != nil {
			t.Fatal(err)
		}
		// Snapshot after the iteration: transient tensors are freed, so we
		// compare persistent bases plus allocator determinism via a second
		// full iteration below.
		for id, base := range e.bases {
			out[int32(id)] = base
		}
		return out
	}
	a := record()
	b := record()
	for id, base := range a {
		if b[id] != base {
			t.Fatalf("tensor %d moved between iterations: %d -> %d", id, base, b[id])
		}
	}
}

// TestUMDensityPrefetchHelps: the NVIDIA neighborhood heuristic sits
// between naive UM and DeepUM for dense workloads.
func TestUMDensityPrefetchHelps(t *testing.T) {
	p, err := models.Build(models.Spec{Model: "bert-large", Dataset: "wikitext"}, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	params := sim.DefaultParams().Scale(64)
	naive, err := Run(Config{Params: params, Program: p, Policy: PolicyUM,
		Iterations: 3, Warmup: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Run(Config{Params: params, Program: p, Policy: PolicyUM,
		Iterations: 3, Warmup: 2, Seed: 1, UMDensityPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if dense.TotalTime >= naive.TotalTime {
		t.Fatalf("density heuristic did not help: %v vs %v", dense.TotalTime, naive.TotalTime)
	}
}
