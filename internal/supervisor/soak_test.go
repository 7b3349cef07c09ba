package supervisor

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// TestSupervisorSoak drives >= 8 concurrent runs through the pool for a
// sustained window while the runner panics mid-run on a third of them,
// exercising every supervision path at once: admission backpressure, quota churn, watchdog
// escalation on deliberately-hung runs, panic recovery, journal appends,
// and a final graceful drain. It then asserts zero goroutine leaks.
//
// The window defaults to 2s so `go test ./...` stays quick; the
// supervisor-soak CI job sets DEEPUM_SOAK_SECONDS=30 and runs it under
// -race.
func TestSupervisorSoak(t *testing.T) {
	dur := 2 * time.Second
	if env := os.Getenv("DEEPUM_SOAK_SECONDS"); env != "" {
		secs, err := strconv.Atoi(env)
		if err != nil || secs <= 0 {
			t.Fatalf("DEEPUM_SOAK_SECONDS = %q: want a positive integer", env)
		}
		dur = time.Duration(secs) * time.Second
	}
	before := runtime.NumGoroutine()

	// The simulated run: heartbeats and checkpoints while "training";
	// every 7th seed hangs silently so the watchdog has real work, and a
	// third of the rest panic after their first checkpoint, so the pool
	// has to recover the worker, fail the run and release its quota.
	runner := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		if spec.Seed%7 == 0 {
			<-ctx.Done() // hung: no heartbeat, watchdog must kill it
			return Outcome{Status: string(StateCancelled)}, nil
		}
		steps := 2 + int(spec.Seed%5)
		for i := 0; i < steps; i++ {
			select {
			case <-ctx.Done():
				return Outcome{Status: string(StateCancelled)}, nil
			case <-time.After(time.Duration(1+spec.Seed%3) * time.Millisecond):
			}
			progress([]byte(fmt.Sprintf("ck-%d-%d", spec.Seed, i)))
			if spec.Seed%3 == 1 {
				panic("injected worker panic mid-run")
			}
		}
		return Outcome{Status: string(StateCompleted), Iterations: steps}, nil
	})

	s, err := New(Config{
		Runner:          runner,
		Workers:         8,
		QueueDepth:      32,
		GPUMemoryBudget: 1 << 30,
		WatchdogTimeout: 100 * time.Millisecond,
		JournalPath:     filepath.Join(t.TempDir(), "soak.journal"),
	})
	if err != nil {
		t.Fatal(err)
	}

	var submitted, backpressured int
	deadline := time.Now().Add(dur)
	for seed := int64(0); time.Now().Before(deadline); seed++ {
		_, err := s.Submit(RunSpec{
			Model:        "bert-base",
			Batch:        8,
			Iterations:   4,
			Seed:         seed,
			MemoryDemand: 1 << 20,
		})
		switch {
		case err == nil:
			submitted++
		default:
			var qf *QueueFullError
			var q *QuotaError
			if !errors.As(err, &qf) && !errors.As(err, &q) {
				t.Fatalf("soak submission %d: untyped rejection %v", seed, err)
			}
			backpressured++
			time.Sleep(2 * time.Millisecond) // respect the backpressure
		}
	}
	t.Logf("soak: %d submitted, %d backpressured over %v", submitted, backpressured, dur)
	if submitted < 8 {
		t.Fatalf("soak admitted only %d runs; want >= 8 concurrent-capable load", submitted)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("soak drain: %v", err)
	}

	var completed, cancelled, failed int
	for _, info := range s.List() {
		switch info.State {
		case StateCompleted:
			completed++
		case StateCancelled:
			cancelled++
		case StateFailed:
			failed++
		default:
			t.Fatalf("run %d ended non-terminal: %s", info.ID, info.State)
		}
	}
	if completed == 0 || failed == 0 {
		t.Fatalf("soak mix: %d completed / %d cancelled / %d failed — want completions and panic failures", completed, cancelled, failed)
	}
	if st := s.Stats(); st.CommittedBytes != 0 {
		t.Fatalf("soak leaked %d quota bytes", st.CommittedBytes)
	}

	// Zero goroutine leaks after drain: the pool, watchdogs, and runner
	// goroutines must all be gone. Allow the count to settle.
	leakDeadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(leakDeadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across soak: %d before, %d after drain", before, runtime.NumGoroutine())
}
