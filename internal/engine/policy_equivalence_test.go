package engine

import (
	"testing"

	"deepum/internal/core"
	"deepum/internal/health"
	"deepum/internal/models"
	"deepum/internal/policy"
	"deepum/internal/sim"
)

// TestPolicyEquivalence pins the correlation policy to the pre-refactor
// driver: the goldens below were captured from the monolithic
// internal/core.Driver (commit 028a3a7, before the policy seam existed)
// across four workloads at every forced health-ladder rung. AccessChecksum
// proves the computation is untouched; the prefetch counters and the total
// simulated time prove the *decisions* are untouched — every command the
// old chaser issued, the extracted policy issues, in the same order at the
// same virtual instant.
func TestPolicyEquivalence(t *testing.T) {
	type golden struct {
		model     string
		batch     int64
		level     health.Level
		checksum  uint64
		issued    int64
		useful    int64
		restarts  int64
		fails     int64
		deaths    int64
		faults    int64
		totalTime sim.Duration
	}
	goldens := []golden{
		{"bert-base", 32, 0, 0x014b30caf8bec700, 5087, 2083, 948, 636, 636, 30880, 349365617},
		{"bert-base", 32, 1, 0x014b30caf8bec700, 3290, 2207, 814, 636, 636, 16191, 364705446},
		{"bert-base", 32, 2, 0x014b30caf8bec700, 3304, 2187, 750, 627, 627, 16260, 340304336},
		{"bert-base", 32, 3, 0x014b30caf8bec700, 0, 0, 2927, 0, 0, 258993, 515771259},
		{"bert-large", 16, 0, 0xbf6714142a7a64ed, 8752, 2574, 1714, 1012, 1012, 67542, 858595754},
		{"bert-large", 16, 1, 0xbf6714142a7a64ed, 7186, 2533, 1627, 1012, 1012, 52855, 758596878},
		{"bert-large", 16, 2, 0xbf6714142a7a64ed, 3813, 2467, 1677, 1002, 1002, 39317, 819839206},
		{"bert-large", 16, 3, 0xbf6714142a7a64ed, 0, 0, 4137, 0, 0, 323167, 1768443585},
		{"dlrm", 512, 0, 0xcdc8e319fae4f8d0, 0, 0, 908, 562, 562, 48, 5710524},
		{"dlrm", 512, 1, 0xcdc8e319fae4f8d0, 0, 0, 908, 562, 562, 48, 5710524},
		{"dlrm", 512, 2, 0xcdc8e319fae4f8d0, 0, 0, 908, 562, 562, 48, 5710524},
		{"dlrm", 512, 3, 0xcdc8e319fae4f8d0, 0, 0, 908, 0, 0, 48, 5710524},
		{"resnet152", 128, 0, 0x6d04fcea72f5da6e, 4, 0, 462, 454, 454, 588, 180193470},
		{"resnet152", 128, 1, 0x6d04fcea72f5da6e, 4, 0, 462, 454, 454, 588, 180193470},
		{"resnet152", 128, 2, 0x6d04fcea72f5da6e, 4, 0, 462, 454, 454, 588, 180193470},
		{"resnet152", 128, 3, 0x6d04fcea72f5da6e, 0, 0, 462, 0, 0, 588, 180193470},
	}

	const scale = 32
	progs := map[string]int64{}
	for _, g := range goldens {
		progs[g.model] = g.batch
	}
	for _, g := range goldens {
		prog, err := models.Build(models.Spec{Model: g.model}, g.batch, scale)
		if err != nil {
			t.Fatalf("build %s: %v", g.model, err)
		}
		res, err := Run(Config{
			Params:        sim.DefaultParams().Scale(scale),
			Program:       prog,
			Policy:        PolicyDeepUM,
			DriverOptions: core.DefaultOptions(),
			Iterations:    3,
			Warmup:        2,
			Seed:          7,
			Health:        health.Fixed(g.level),
		})
		if err != nil {
			t.Fatalf("%s L%d: %v", g.model, g.level, err)
		}
		if got := res.Prefetcher.Name(); got != policy.DefaultName {
			t.Fatalf("%s L%d: ran policy %q, want %q", g.model, g.level, got, policy.DefaultName)
		}
		d := res.Driver
		got := golden{g.model, g.batch, g.level, res.AccessChecksum,
			d.PrefetchIssued, d.PrefetchUseful, d.ChainRestarts, d.PredictionFails,
			d.DeathNoExec + d.DeathSkips, res.FaultsPerIter, res.TotalTime}
		if got != g {
			t.Errorf("%s L%d diverged from pre-refactor driver:\n got  %+v\n want %+v", g.model, g.level, got, g)
		}
	}
	_ = progs
}

// TestPolicyEquivalenceExplicitName pins that naming the default policy
// explicitly changes nothing: Options.Policy "correlation" and "" build the
// same driver.
func TestPolicyEquivalenceExplicitName(t *testing.T) {
	prog, err := models.Build(models.Spec{Model: "bert-base"}, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Params:        sim.DefaultParams().Scale(32),
		Program:       prog,
		Policy:        PolicyDeepUM,
		DriverOptions: core.DefaultOptions(),
		Iterations:    2,
		Warmup:        1,
		Seed:          7,
	}
	implicit, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	named := base
	named.DriverOptions.Policy = "correlation"
	explicit, err := Run(named)
	if err != nil {
		t.Fatal(err)
	}
	if implicit.AccessChecksum != explicit.AccessChecksum ||
		implicit.Driver != explicit.Driver ||
		implicit.TotalTime != explicit.TotalTime {
		t.Fatalf("explicit policy name diverged: %+v vs %+v", implicit.Driver, explicit.Driver)
	}
}
