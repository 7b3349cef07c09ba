package deepum

import (
	"testing"

	"deepum/internal/core"
	"deepum/internal/engine"
	"deepum/internal/experiments"
	"deepum/internal/sim"
	"deepum/internal/workload"
)

// engineRun is a bench helper running one UM-policy simulation.
func engineRun(params sim.Params, prog *workload.Program, density bool) (*engine.Result, error) {
	return engine.Run(engine.Config{
		Params:            params,
		Program:           prog,
		Policy:            engine.PolicyUM,
		Iterations:        3,
		Warmup:            3,
		Seed:              1,
		UMDensityPrefetch: density,
	})
}

// Benchmarks regenerate the paper's tables and figures — one bench target
// per artifact (deliverable (d)). Each iteration runs the experiment's full
// workload matrix in Quick mode (one batch size per model) at scale 32 so
// `go test -bench=.` completes in minutes; run cmd/deepum-bench for the
// complete matrices, and pass -scale 1 there for paper-sized footprints.
//
// Reported metrics: ns/op is the wall-clock cost of regenerating the
// artifact; the table itself is logged once per benchmark via -v.

// benchOpts is the shared quick configuration for bench targets.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 32, Iterations: 3, Warmup: 4, Quick: true, Seed: 1}
}

func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkFig9a regenerates Figure 9(a): speedup of LMS, LMS-mod, DeepUM
// and Ideal over naive UM on the V100-32GB.
func BenchmarkFig9a(b *testing.B) { runExperimentBench(b, "fig9a") }

// BenchmarkFig9b regenerates Figure 9(b): elapsed seconds per 100 training
// iterations for UM, LMS, LMS-mod and DeepUM.
func BenchmarkFig9b(b *testing.B) { runExperimentBench(b, "fig9b") }

// BenchmarkFig9c regenerates Figure 9(c): total energy consumption ratio of
// LMS and DeepUM over naive UM.
func BenchmarkFig9c(b *testing.B) { runExperimentBench(b, "fig9c") }

// BenchmarkTable3 regenerates Table 3: maximum possible batch sizes of LMS
// and DeepUM (binary search over actual runs).
func BenchmarkTable3(b *testing.B) { runExperimentBench(b, "table3") }

// BenchmarkTable4 regenerates Table 4: correlation table sizes.
func BenchmarkTable4(b *testing.B) { runExperimentBench(b, "table4") }

// BenchmarkTable5 regenerates Table 5: average page faults per training
// iteration under naive UM and DeepUM.
func BenchmarkTable5(b *testing.B) { runExperimentBench(b, "table5") }

// BenchmarkFig10 regenerates Figure 10: the cumulative ablation of
// prefetching, pre-eviction and invalidation.
func BenchmarkFig10(b *testing.B) { runExperimentBench(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11: sensitivity to the prefetch degree
// N (speedup and energy versus N=8).
func BenchmarkFig11(b *testing.B) { runExperimentBench(b, "fig11") }

// BenchmarkFig12 regenerates Table 6 + Figure 12: the UM-block correlation
// table parameter sweep (Config0-Config12).
func BenchmarkFig12(b *testing.B) { runExperimentBench(b, "fig12") }

// BenchmarkTable7 regenerates Table 7: maximum batch sizes of the
// TensorFlow-based approaches and DeepUM on the V100-16GB.
func BenchmarkTable7(b *testing.B) { runExperimentBench(b, "table7") }

// BenchmarkFig13 regenerates Figure 13: speedup of vDNN, AutoTM,
// SwapAdvisor, Capuchin, Sentinel, DeepUM and Ideal over naive UM on the
// V100-16GB.
func BenchmarkFig13(b *testing.B) { runExperimentBench(b, "fig13") }

// --- Ablation benches for DESIGN.md §5's design choices --------------------

// BenchmarkAblationChainingOff measures classic single-table pair-based
// prefetching (no cross-kernel chaining) against DeepUM's two-table design:
// degree 1 stops the chain at the current kernel's boundary.
func BenchmarkAblationChainingOff(b *testing.B) {
	w := Workload{Model: "bert-large", Batch: 16}
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Scale = 32
		cfg.Iterations = 3
		cfg.Driver.Degree = 1
		if _, err := Train(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPageGranularityTables measures the memory cost of
// page-granularity history (the alternative §4.2 rejects): 512x the rows at
// the same associativity, on the same workload.
func BenchmarkAblationPageGranularityTables(b *testing.B) {
	w := Workload{Model: "bert-base", Batch: 16}
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Scale = 32
		cfg.Iterations = 2
		cfg.Driver.TableConfig = BlockTableConfig{NumRows: 65536, Assoc: 2, NumSuccs: 4, NumLevels: 1}
		res, err := Train(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.CorrelationTableBytes)/(1<<20), "tableMiB")
	}
}

// BenchmarkEngineKernel measures the simulation engine's own throughput:
// simulated kernels per second on a steady-state DeepUM run.
func BenchmarkEngineKernel(b *testing.B) {
	w := Workload{Model: "bert-large", Batch: 16}
	prog, err := BuildProgram(w, 32)
	if err != nil {
		b.Fatal(err)
	}
	kernels := prog.Kernels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Scale = 32
		cfg.Iterations = 3
		if _, err := Train(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(kernels*(3+3))*float64(b.N), "simKernels")
}

// BenchmarkAblationUMDensity contrasts three fault-coalescing strategies on
// the same oversubscribed workload: naive chunked UM, UM with the NVIDIA
// density (neighborhood) heuristic, and DeepUM's predictive whole-block
// prefetch — the spectrum DESIGN.md §5 calls out.
func BenchmarkAblationUMDensity(b *testing.B) {
	prog, err := BuildProgram(Workload{Model: "bert-large", Batch: 16}, 32)
	if err != nil {
		b.Fatal(err)
	}
	params := V100_32GB().Scale(32)
	for i := 0; i < b.N; i++ {
		for _, density := range []bool{false, true} {
			res, err := engineRun(params, prog, density)
			if err != nil {
				b.Fatal(err)
			}
			name := "umNaiveMs"
			if density {
				name = "umDensityMs"
			}
			b.ReportMetric(float64(res.IterTime().Milliseconds()), name)
		}
	}
}

// trainBert is the repo benchmark's train-bert workload: bert-large b16.
var trainBert = Workload{Model: "bert-large", Batch: 16}

// trainBertConfig is the repo benchmark's train-bert call: DeepUM at scale
// 8 with the given seed.
func trainBertConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.System = SystemDeepUM
	cfg.Scale = 8
	cfg.Seed = seed
	return cfg
}

// BenchmarkTrainBertDeepUM makes the repo benchmark's train-bert call — one
// DeepUM Train of bert-large b16 at scale 8 — cycling seeds 1-3. Its
// allocs/op and B/op are dominated by the correlation chain walk, which
// must not allocate per fault restart or per kernel transition.
func BenchmarkTrainBertDeepUM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(trainBert, trainBertConfig(int64(i%3)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// trainBertAllocsBound caps the allocations of one warm train-bert Train.
// A Train of seed 1 makes 12,208 (Go 1.24, amd64). The bound sits about
// 25% above that count, so a change that puts an allocation back into a
// per-fault or per-command path, such as a parked prefetch command that
// escapes or a victim slice built per eviction, fails here rather than
// only in the benchmark's allocs/op.
const trainBertAllocsBound = 15300

// TestTrainBertAllocs measures the allocations of one warm train-bert
// Train, the benchmark workload's call, against trainBertAllocsBound. The
// race detector's instrumentation more than doubles the count (29,103), so
// the bound holds for uninstrumented builds only.
func TestTrainBertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector include its own")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Train(trainBert, trainBertConfig(1)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a warm train-bert Train allocates %.0f times", allocs)
	if allocs > trainBertAllocsBound {
		t.Fatalf("a warm train-bert Train allocates %.0f times, want at most %d", allocs, trainBertAllocsBound)
	}
}

// TestTrainBertDecisionsPinned pins the decisions of BenchmarkTrainBertDeepUM's
// runs, seeds 1-3: iteration time, faults per iteration, the access
// checksum and every driver counter. Host-time work on the chain walk must
// leave all of them as they are. Train reports only some driver counters,
// so each seed also runs the engine with Train's configuration, which must
// agree with Train on everything both report.
func TestTrainBertDecisionsPinned(t *testing.T) {
	want := core.Stats{
		KernelLaunches: 2394, PrefetchIssued: 294752, PrefetchUseful: 16887,
		Preevictions: 2301, Invalidations: 8989, ChainRestarts: 5266,
		PredictionFails: 3741, DeathNoExec: 3741, WindowMisses: 3,
	}
	prog, err := BuildProgram(trainBert, 8)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		res, err := Train(trainBert, trainBertConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.IterationTime != 785699422 || res.PageFaultsPerIteration != 107172 || res.AccessChecksum != 0xb2635dd0d00f6d75 {
			t.Errorf("seed %d: iteration %d ns, %d faults/iter, checksum %#x; want 785699422 ns, 107172, 0xb2635dd0d00f6d75",
				seed, int64(res.IterationTime), res.PageFaultsPerIteration, res.AccessChecksum)
		}
		r, err := engine.Run(engine.Config{
			Params:        sim.DefaultParams().Scale(8),
			Program:       prog,
			Policy:        engine.PolicyDeepUM,
			DriverOptions: core.DefaultOptions(),
			Iterations:    4,
			Warmup:        3,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.IterTime() != res.IterationTime || r.FaultsPerIter != res.PageFaultsPerIteration || r.AccessChecksum != res.AccessChecksum ||
			r.Driver.PrefetchIssued != res.PrefetchIssued || r.Driver.PrefetchUseful != res.PrefetchUseful {
			t.Fatalf("seed %d: the engine run does not repeat Train's run", seed)
		}
		if r.Driver != want {
			t.Errorf("seed %d: driver counters %+v, want %+v", seed, r.Driver, want)
		}
	}
}
