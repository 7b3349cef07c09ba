package deepum

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"deepum/internal/correlation"
	"deepum/internal/sim"
	"deepum/internal/um"
)

// TestTrainContextPreCancelled: a cancelled supervisor stops the run before
// any measured work; the partial Result still comes back with a nil error.
func TestTrainContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := TrainContext(ctx, Workload{Model: "bert-large", Batch: 16}, testConfig(SystemDeepUM))
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
	if len(res.IterStats) != 0 {
		t.Fatalf("pre-cancelled run reported %d iterations", len(res.IterStats))
	}
}

// TestTrainContextCancelMidRun is the public-API acceptance test: a
// cancellation landing mid-run returns the partial measurements with
// StatusCancelled and leaks no goroutines.
func TestTrainContextCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	cfg := testConfig(SystemDeepUM)
	cfg.Iterations, cfg.Warmup = 50, 3 // long enough that the 2ms cancel lands mid-run
	res, err := TrainContext(ctx, Workload{Model: "bert-large", Batch: 16}, cfg)
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
	if len(res.IterStats) >= 53 {
		t.Fatal("cancelled run completed every iteration; cancellation never landed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked across cancellation: %d before, %d after", before, g)
	}
}

// TestTrainVirtualDeadline: Config.Deadline stops the run at a simulated
// timestamp — deterministically, unlike a wall-clock context deadline.
func TestTrainVirtualDeadline(t *testing.T) {
	w := Workload{Model: "bert-large", Batch: 16}
	clean, err := Train(w, testConfig(SystemDeepUM))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(SystemDeepUM)
	cfg.Deadline = clean.IterStats[0].Time + clean.IterStats[1].Time/2
	res, err := Train(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDeadlineExceeded {
		t.Fatalf("status = %v, want deadline-exceeded", res.Status)
	}
	if len(res.IterStats) != 1 {
		t.Fatalf("deadline mid-iteration-1 left %d completed iterations, want 1", len(res.IterStats))
	}
	res2, err := Train(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.IterStats) != len(res.IterStats) || res2.PageFaultsPerIteration != res.PageFaultsPerIteration {
		t.Fatal("virtual deadline is not deterministic")
	}
}

// TestTrainDeadlineRejectedForBaselines: baseline systems replay analytic
// models, not an event simulation, so a virtual deadline is meaningless and
// must be rejected rather than silently ignored.
func TestTrainDeadlineRejectedForBaselines(t *testing.T) {
	cfg := testConfig(SystemAutoTM)
	cfg.Deadline = sim.Duration(1)
	_, err := Train(Workload{Model: "mobilenet", Dataset: "cifar100", Batch: 600}, cfg)
	if err == nil {
		t.Fatal("Deadline accepted for a baseline system")
	}
	if !strings.Contains(err.Error(), "Deadline") {
		t.Fatalf("deadline error not descriptive: %v", err)
	}
}

// TestTrainCheckpointResume: the full public checkpoint cycle — train,
// capture the warm state with PolicyCheckpointOf, save, load, resume through
// Config.ResumeState — and the resumed run's very first iteration already
// prefetches (warm tables), which a cold run's cannot.
func TestTrainCheckpointResume(t *testing.T) {
	w := Workload{Model: "bert-large", Batch: 16}
	first, err := Train(w, testConfig(SystemDeepUM))
	if err != nil {
		t.Fatal(err)
	}
	st := PolicyCheckpointOf(first)
	if st == nil {
		t.Fatal("DeepUM run exposed no warm state")
	}
	var buf bytes.Buffer
	if err := SavePolicyCheckpoint(&buf, st); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadPolicyCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(SystemDeepUM)
	cfg.ResumeState = restored
	cfg.Warmup = 1
	resumed, err := Train(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Status != StatusCompleted {
		t.Fatalf("resumed run status = %v", resumed.Status)
	}
	if got := resumed.IterStats[0].PrefetchIssued; got == 0 {
		t.Fatal("resumed run issued no prefetches in its first iteration; tables arrived cold")
	}

	cold := testConfig(SystemDeepUM)
	cold.Warmup = 1
	coldRes, err := Train(w, cold)
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.IterStats[0].PrefetchIssued != 0 {
		t.Fatalf("cold run prefetched in iteration 0 (%d); the resume comparison is vacuous",
			coldRes.IterStats[0].PrefetchIssued)
	}
}

// TestTrainResumeRejectedForNonDeepUM: warm policy state only means
// something to the DeepUM driver, the one system that runs a policy.
func TestTrainResumeRejectedForNonDeepUM(t *testing.T) {
	w := Workload{Model: "bert-large", Batch: 16}
	first, err := Train(w, testConfig(SystemDeepUM))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(SystemUM)
	cfg.ResumeState = PolicyCheckpointOf(first)
	if _, err := Train(w, cfg); err == nil {
		t.Fatal("ResumeState accepted for a non-DeepUM system")
	} else if !strings.Contains(err.Error(), "ResumeState") {
		t.Fatalf("resume error not descriptive: %v", err)
	}
}

// resumeWorkload and resumeConfig make the small resumed run of the
// foreign-block tests: one measured iteration of bert-base b32 at scale 64,
// a few milliseconds, still oversubscribed.
var resumeWorkload = Workload{Model: "bert-base", Batch: 32}

func resumeConfig(payload []byte) Config {
	cfg := DefaultConfig()
	cfg.Scale = 64
	cfg.Iterations = 1
	cfg.Warmup = 1
	if payload != nil {
		cfg.ResumeState = &PolicyState{Policy: "correlation", Payload: payload}
	}
	return cfg
}

// warmPayload returns the correlation payload a cold resumeConfig run
// learns.
func warmPayload(tb testing.TB) []byte {
	res, err := Train(resumeWorkload, resumeConfig(nil))
	if err != nil {
		tb.Fatal(err)
	}
	return PolicyCheckpointOf(res).Payload
}

// withForeignBlock returns payload with block b made the MRU successor of
// every block table's Start, each table's End kept, so every chain walk
// emits b.
func withForeignBlock(tb testing.TB, payload []byte, b um.BlockID) []byte {
	ts, err := correlation.DecodeTables(payload)
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range ts.ExecIDs() {
		bt := ts.Block(id)
		if bt.Start == um.NoBlock {
			continue
		}
		end := bt.End
		bt.ResetCursor()
		bt.RecordMiss(bt.Start)
		bt.RecordMiss(b)
		bt.End = end
	}
	return correlation.EncodeTables(ts)
}

// TestResumeWithForeignBlocks: a resumed checkpoint may name blocks the
// program never allocated, below zero or far past its address space. The
// prefetcher issues them, and the run takes each as not resident with
// nothing to migrate: it neither panics nor grows its block table, so it
// allocates about what a run resumed from the unaltered payload does.
func TestResumeWithForeignBlocks(t *testing.T) {
	warm := warmPayload(t)
	run := func(payload []byte) (*Result, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Train(resumeWorkload, resumeConfig(payload))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusCompleted {
			t.Fatalf("resumed run status = %v", res.Status)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	base, baseBytes := run(warm)
	for _, b := range []um.BlockID{-2, 1 << 21} {
		res, n := run(withForeignBlock(t, warm, b))
		t.Logf("block %d: the run allocated %d bytes; from the unaltered payload, %d", b, n, baseBytes)
		if res.PrefetchIssued <= base.PrefetchIssued {
			t.Errorf("block %d: %d prefetches issued, the unaltered payload's run issued %d; the foreign block was never issued",
				b, res.PrefetchIssued, base.PrefetchIssued)
		}
		if n > baseBytes+4<<20 {
			t.Errorf("block %d: the run allocated %d bytes, %d more than the unaltered payload's run", b, n, n-baseBytes)
		}
	}
}

// FuzzResumeTrain feeds a fuzzed correlation payload to a DeepUM run
// through Config.ResumeState. Train must reject a payload the decoder
// rejects, and run any payload it accepts to completion, whatever blocks
// and kernels it names.
func FuzzResumeTrain(f *testing.F) {
	warm := warmPayload(f)
	f.Add(warm)
	f.Add(withForeignBlock(f, warm, -2))
	f.Add(withForeignBlock(f, warm, 1<<21))
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := Train(resumeWorkload, resumeConfig(payload))
		_, decodeErr := correlation.DecodeTables(payload)
		if (err != nil) != (decodeErr != nil) {
			t.Fatalf("Train error %v, decode error %v", err, decodeErr)
		}
		if err == nil && res.Status != StatusCompleted {
			t.Fatalf("resumed run status = %v", res.Status)
		}
	})
}
