// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment is a named function producing a
// metrics.Table whose rows mirror the paper artifact; DESIGN.md carries the
// experiment index and EXPERIMENTS.md the paper-versus-measured record.
package experiments

import (
	"fmt"

	"deepum/internal/baselines"
	"deepum/internal/chaos"
	"deepum/internal/core"
	"deepum/internal/engine"
	"deepum/internal/metrics"
	"deepum/internal/models"
	"deepum/internal/sim"
)

// Options scope an experiment run.
type Options struct {
	// Scale divides model and machine sizes; 8 keeps the full suite in
	// seconds, 1 runs paper-sized footprints.
	Scale int64
	// Iterations is the number of measured training iterations per run.
	// The paper reports 100-iteration times; results extrapolate linearly
	// from the steady-state iteration time.
	Iterations int
	// Warmup iterations run before measurement (correlation tables learn).
	Warmup int
	// Quick restricts each model to one batch size (for bench targets).
	Quick bool
	Seed  int64
	// Chaos names a fault-injection scenario (chaos.ByName) applied to the
	// UM-side runs; baseline (tensor-level) runs are never perturbed, so a
	// chaotic bench shows how far UM results degrade against clean
	// baselines. Empty or "none" runs clean.
	Chaos string
	// ChaosSeed seeds the injection PRNG; 0 reuses Seed.
	ChaosSeed int64
	// Policy names the prefetch policy for the DeepUM runs of each
	// experiment; empty keeps the paper's correlation prefetcher. The other
	// UM-side systems (naive UM, LMS, ideal) run no prefetch policy and are
	// unaffected.
	Policy string
}

func (o Options) normalize() Options {
	if o.Scale < 1 {
		o.Scale = 8
	}
	if o.Iterations < 1 {
		o.Iterations = 4
	}
	if o.Warmup < 1 {
		o.Warmup = 3
	}
	return o
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*metrics.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig9a", "Speedup of LMS, DeepUM and Ideal over naive UM (V100-32GB)", Fig9a},
		{"fig9b", "Elapsed time (s) for 100 training iterations (V100-32GB)", Fig9b},
		{"fig9c", "Total energy consumption ratio over naive UM", Fig9c},
		{"table3", "Maximum possible batch sizes, LMS vs DeepUM", Table3},
		{"table4", "Correlation table sizes (MB)", Table4},
		{"table5", "Average page faults per training iteration", Table5},
		{"fig10", "Effects of prefetching and optimizations (normalized time)", Fig10},
		{"fig11", "Sensitivity to prefetch degree N (speedup and energy vs N=8)", Fig11},
		{"fig12", "UM block correlation table parameters (speedup over Config0)", Fig12},
		{"table7", "Maximum batch sizes vs TensorFlow-based approaches (V100-16GB)", Table7},
		{"fig13", "Speedup vs TensorFlow-based approaches over UM (V100-16GB)", Fig13},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// workloadCase is one (model, dataset, batch) cell of the paper's matrices.
type workloadCase struct {
	Model   string
	Dataset string
	Batches []int64
}

// fig9Cases is the model/batch matrix of Figure 9 and Tables 3-5.
func fig9Cases(quick bool) []workloadCase {
	cases := []workloadCase{
		{"gpt2-xl", "wikitext", []int64{3, 5, 7}},
		{"gpt2-l", "wikitext", []int64{3, 5, 7}},
		{"bert-large", "wikitext", []int64{14, 16, 18}},
		{"bert-base", "wikitext", []int64{29, 30, 31}},
		{"dlrm", "criteo", []int64{96000, 128000, 160000, 192000, 224000}},
		{"resnet152", "imagenet", []int64{1280, 1536, 1792}},
		{"resnet200", "imagenet", []int64{1024, 1280, 1536}},
	}
	if quick {
		for i := range cases {
			cases[i].Batches = cases[i].Batches[:1]
		}
	}
	return cases
}

// tf16Cases is the model/dataset matrix of the §6.4 comparison (Table 7 and
// Figure 13), evaluated on the V100-16GB configuration.
func tf16Cases() []workloadCase {
	return []workloadCase{
		{"resnet200", "cifar10", []int64{4200}},
		{"bert-large", "cola", []int64{25}},
		{"dcgan", "celeba", []int64{1400}},
		{"mobilenet", "cifar100", []int64{1200}},
	}
}

// runUM runs a workload under the given UM-side policy.
func runUM(o Options, params sim.Params, spec models.Spec, batch int64,
	policy engine.Policy, drv core.Options) (*engine.Result, error) {
	prog, err := models.Build(spec, batch, o.Scale)
	if err != nil {
		return nil, err
	}
	inj, err := o.injector()
	if err != nil {
		return nil, err
	}
	if o.Policy != "" && policy == engine.PolicyDeepUM {
		drv.Policy = o.Policy
	}
	return engine.Run(engine.Config{
		Params:        params,
		Program:       prog,
		Policy:        policy,
		DriverOptions: drv,
		Iterations:    o.Iterations,
		Warmup:        o.Warmup,
		Seed:          o.Seed,
		Chaos:         inj,
	})
}

// injector builds the per-run fault injector for UM-side runs, or nil when
// Options.Chaos is empty/"none". Each run gets a fresh injector so chaos
// draws stay reproducible per run rather than drifting across the suite.
func (o Options) injector() (*chaos.Injector, error) {
	scenario, err := chaos.ByName(o.Chaos)
	if err != nil {
		return nil, err
	}
	if !scenario.Active() {
		return nil, nil
	}
	seed := o.ChaosSeed
	if seed == 0 {
		seed = o.Seed
	}
	return chaos.NewInjector(scenario, seed), nil
}

// runBaseline runs a workload under a tensor-level baseline planner.
func runBaseline(o Options, params sim.Params, spec models.Spec, batch int64,
	pl baselines.Planner) (*baselines.Result, error) {
	prog, err := models.Build(spec, batch, o.Scale)
	if err != nil {
		return nil, err
	}
	return baselines.Run(baselines.Config{
		Params:     params,
		Program:    prog,
		Planner:    pl,
		Iterations: o.Iterations,
		Warmup:     o.Warmup,
	})
}

// speedupCell formats a speedup or "-" for a failed run (OOM), mirroring
// the missing bars of Figure 9.
func speedupCell(base sim.Duration, t sim.Duration, err error) (string, float64) {
	if err != nil || t <= 0 {
		return "-", 0
	}
	s := float64(base) / float64(t)
	return fmt.Sprintf("%.2f", s), s
}

// label renders "model b<batch>" row labels, using k-suffix for DLRM-sized
// batches.
func label(model string, batch int64) string {
	if batch >= 1000 && batch%1000 == 0 {
		return fmt.Sprintf("%s b%dk", model, batch/1000)
	}
	return fmt.Sprintf("%s b%d", model, batch)
}

// maxFeasibleBatch binary-searches the largest batch size for which feasible
// returns true, probing upward from lo first.
func maxFeasibleBatch(lo, hi int64, feasible func(b int64) bool) int64 {
	if !feasible(lo) {
		return 0
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
