package deepum

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"deepum/internal/supervisor/journal"
)

// fastSpec is a spec small enough that a real TrainContext run finishes in
// well under a second.
func fastSpec(seed int64) RunSpec {
	return RunSpec{
		Model:      "bert-base",
		Batch:      4,
		Scale:      128,
		Iterations: 2,
		Warmup:     2,
		Seed:       seed,
	}
}

func drainSupervisor(t *testing.T, s *Supervisor) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestNewSupervisorRunsTrain(t *testing.T) {
	s, err := NewSupervisor(SupervisorConfig{Workers: 2, GPUMemoryBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer drainSupervisor(t, s)

	id, err := s.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != RunCompleted {
		t.Fatalf("state = %s (reason %q), want %s", info.State, info.Reason, RunCompleted)
	}
	if info.Outcome == nil || info.Outcome.Iterations != 2 {
		t.Fatalf("outcome = %+v, want 2 measured iterations", info.Outcome)
	}
	if info.Outcome.IterationTime <= 0 || info.Outcome.FaultsPerIteration < 0 {
		t.Fatalf("implausible outcome measurements: %+v", info.Outcome)
	}
	// The default estimator charged the workload's real footprint.
	if info.Demand <= 0 {
		t.Fatalf("demand = %d, want the estimated workload footprint", info.Demand)
	}
}

// TestNewSupervisorChunkedCheckpoints: a chunked run journals exactly one
// decodable checkpoint per chunk. The chunks it continues from are
// journaled as progress; the last one only once, from the outcome.
func TestNewSupervisorChunkedCheckpoints(t *testing.T) {
	for _, tc := range []struct{ every, chunks int }{{1, 4}, {2, 2}, {3, 2}} {
		t.Run(fmt.Sprintf("every%d", tc.every), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "runs.journal")
			s, err := NewSupervisor(SupervisorConfig{Workers: 1, JournalPath: path})
			if err != nil {
				t.Fatal(err)
			}
			spec := fastSpec(7)
			spec.Iterations = 4
			spec.CheckpointEvery = tc.every
			id, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			info, err := s.Wait(id)
			if err != nil {
				t.Fatal(err)
			}
			if info.State != RunCompleted {
				t.Fatalf("state = %s (reason %q)", info.State, info.Reason)
			}
			if info.Outcome.Iterations != 4 {
				t.Fatalf("chunked run measured %d iterations, want 4", info.Outcome.Iterations)
			}
			if info.Checkpoints != tc.chunks {
				t.Fatalf("chunked run counted %d checkpoints, want %d (one per chunk)", info.Checkpoints, tc.chunks)
			}
			drainSupervisor(t, s)

			// The checkpoints really hit the journal as decodable warm state.
			recs, stats, err := journal.ReplayFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if stats.TornOffset != -1 {
				t.Fatalf("journal torn at %d after clean drain", stats.TornOffset)
			}
			warm := 0
			for _, r := range recs {
				if r.Type != journal.RecCheckpointed {
					continue
				}
				st, err := LoadPolicyCheckpoint(bytes.NewReader(r.Data))
				if err != nil {
					t.Fatalf("journaled checkpoint does not decode: %v", err)
				}
				if st.Policy != "correlation" {
					t.Fatalf("journaled checkpoint holds %q state, want correlation", st.Policy)
				}
				warm++
			}
			if warm != tc.chunks {
				t.Fatalf("journal holds %d checkpoint records, want %d (one per chunk)", warm, tc.chunks)
			}
		})
	}
}

func TestEstimateMemoryDemand(t *testing.T) {
	n, err := EstimateMemoryDemand(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("EstimateMemoryDemand = %d, want > 0", n)
	}
	if _, err := EstimateMemoryDemand(RunSpec{Model: "no-such-model", Batch: 4}); err == nil {
		t.Fatal("EstimateMemoryDemand accepted an unknown model")
	}
}

// TestFinishedResultsStaySmall: a finished DeepUM Result keeps its
// policy, so its correlation tables live as long as it does. Each of three
// bert-large b16 scale-8 Results must keep at most 1 MiB of heap: tables
// that reserved all NumRows rows would keep about 16 MiB.
func TestFinishedResultsStaySmall(t *testing.T) {
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	cfg := DefaultConfig()
	cfg.System = SystemDeepUM
	cfg.Scale = 8
	before := heap()
	var kept []*Result
	for seed := int64(1); seed <= 3; seed++ {
		cfg.Seed = seed
		res, err := Train(Workload{Model: "bert-large", Batch: 16}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, res)
	}
	perRun := (heap() - before) / int64(len(kept))
	t.Logf("each finished Result keeps %d bytes of heap", perRun)
	if perRun > 1<<20 {
		t.Fatalf("each finished Result keeps %d bytes of heap, want at most 1 MiB", perRun)
	}
	runtime.KeepAlive(kept)
}

// footprintEntries reads the size of EstimateMemoryDemand's table.
func footprintEntries() int {
	footprints.mu.Lock()
	defer footprints.mu.Unlock()
	return len(footprints.m)
}

// TestEstimateMemoryDemandRemembers: a remembered footprint equals a fresh
// build's for every model, first and second time asked, and a failed
// estimate is not remembered.
func TestEstimateMemoryDemandRemembers(t *testing.T) {
	for _, model := range Models() {
		spec := RunSpec{Model: model, Batch: 8, Scale: 64}
		prog, err := BuildProgram(Workload{Model: model, Batch: 8}, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			n, err := EstimateMemoryDemand(spec)
			if err != nil {
				t.Fatal(err)
			}
			if n != prog.FootprintBytes() {
				t.Fatalf("%s, estimate %d: %d bytes, a fresh build says %d", model, i, n, prog.FootprintBytes())
			}
		}
	}
	if len(Models()) != 9 {
		t.Fatalf("%d models, want the nine of Table 2", len(Models()))
	}
	bad := RunSpec{Model: "bert-base", Batch: -1, Scale: 64}
	for i := 0; i < 2; i++ {
		if _, err := EstimateMemoryDemand(bad); err == nil {
			t.Fatalf("estimate %d accepted batch -1", i)
		}
	}
	if _, ok := footprints.get(footprintKey{model: "bert-base", batch: -1, scale: 64}); ok {
		t.Fatal("a failed estimate was remembered")
	}
}

// TestEstimateMemoryDemandConcurrent asks for a handful of footprints from
// many goroutines at once; run it under -race.
func TestEstimateMemoryDemandConcurrent(t *testing.T) {
	want := map[int64]int64{}
	for batch := int64(1); batch <= 4; batch++ {
		prog, err := BuildProgram(Workload{Model: "bert-base", Batch: batch}, 128)
		if err != nil {
			t.Fatal(err)
		}
		want[batch] = prog.FootprintBytes()
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 40; i++ {
				batch := int64(1 + (g+i)%4)
				n, err := EstimateMemoryDemand(RunSpec{Model: "bert-base", Batch: batch, Scale: 128})
				if err == nil && n != want[batch] {
					err = fmt.Errorf("batch %d: %d bytes, want %d", batch, n, want[batch])
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestEstimateMemoryDemandBounded: more distinct workloads than the table
// holds never grow it past its cap, and the latest one is still answered
// from it.
func TestEstimateMemoryDemandBounded(t *testing.T) {
	var last RunSpec
	for batch := int64(1); batch <= footprintCacheCap+20; batch++ {
		last = RunSpec{Model: "bert-base", Batch: batch, Scale: 128}
		if _, err := EstimateMemoryDemand(last); err != nil {
			t.Fatal(err)
		}
		if n := footprintEntries(); n > footprintCacheCap {
			t.Fatalf("after %d workloads the table holds %d entries, cap %d", batch, n, footprintCacheCap)
		}
	}
	if _, ok := footprints.get(footprintKey{model: last.Model, batch: last.Batch, scale: last.Scale}); !ok {
		t.Fatal("the latest footprint was not remembered")
	}
}

func TestTrainRunnerRejectsForeignResume(t *testing.T) {
	spec := fastSpec(1)
	spec.System = string(SystemVDNN)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := TrainRunner().Run(ctx, spec, []byte("not-a-checkpoint"), func([]byte) {})
	if err == nil {
		t.Fatal("TrainRunner resumed a non-deepum system from a checkpoint")
	}
}

// TestSupervisorSeesLadderMoves: a health-enabled TrainRunner run under a
// supervisor streams every in-run ladder move to the supervisor. The
// deepum_health_transitions_total series sum to the outcome's transition
// count, and RunInfo.HealthLevel holds the level of the last move.
func TestSupervisorSeesLadderMoves(t *testing.T) {
	s, err := NewSupervisor(SupervisorConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer drainSupervisor(t, s)

	// Scale 32 is the cheapest bert-large b16 run whose ladder still moves
	// under flaky-link.
	id, err := s.Submit(RunSpec{Model: "bert-large", Batch: 16, Scale: 32, Health: true, Chaos: "flaky-link"})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Outcome == nil || info.Outcome.Health == nil {
		t.Fatalf("outcome %+v carries no health report", info.Outcome)
	}
	rep := info.Outcome.Health
	if rep.Transitions == 0 {
		t.Fatal("the ladder never moved; the run no longer exercises the reporter")
	}
	var sum int64
	for _, level := range []string{"L0", "L1", "L2", "L3"} {
		sum += s.Metrics().Counter("deepum_health_transitions_total", "", map[string]string{"level": level}).Value()
	}
	if sum != int64(rep.Transitions) {
		t.Fatalf("deepum_health_transitions_total sums to %d, outcome reports %d transitions", sum, rep.Transitions)
	}
	last := rep.TransitionLog[len(rep.TransitionLog)-1]
	if info.HealthLevel != int(last.To) {
		t.Fatalf("RunInfo.HealthLevel = %d, want %d (the last move's target)", info.HealthLevel, last.To)
	}
}

// TestFinishedRunsDoNotGrowHeap: a supervisor drops a finished run's
// checkpoint once it is journaled. After N checkpointing correlation runs
// and then 3N more, the live heap grows by less than a quarter of what
// keeping each extra run's final checkpoint would cost.
func TestFinishedRunsDoNotGrowHeap(t *testing.T) {
	spec := fastSpec(1)
	spec.CheckpointEvery = 1
	res, err := Train(Workload{Model: spec.Model, Batch: spec.Batch}, Config{
		Scale: spec.Scale, Iterations: spec.Iterations, Warmup: spec.Warmup, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	ckBytes := int64(len(checkpointBytes(PolicyCheckpointOf(res))))
	if ckBytes == 0 {
		t.Fatal("a correlation run produced no checkpoint")
	}

	s, err := NewSupervisor(SupervisorConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drainSupervisor(t, s)
	finish := func(n int) {
		t.Helper()
		ids := make([]uint64, n)
		for i := range ids {
			if ids[i], err = s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			info, err := s.Wait(id)
			if err != nil {
				t.Fatal(err)
			}
			if info.State != RunCompleted {
				t.Fatalf("run %d: state %s (%q)", id, info.State, info.Reason)
			}
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	const n = 4
	finish(n)
	before := heap()
	finish(3 * n)
	growth := heap() - before
	t.Logf("heap growth %d bytes over %d runs; one checkpoint is %d bytes", growth, 3*n, ckBytes)
	if kept := 3 * n * ckBytes; growth*4 >= kept {
		t.Fatalf("heap grew %d bytes over %d more finished runs; keeping their checkpoints would cost %d", growth, 3*n, kept)
	}
}
