package deepum

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"deepum/internal/sim"
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
