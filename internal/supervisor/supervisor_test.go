package supervisor

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepum/internal/chaos"
	"deepum/internal/supervisor/journal"
)

// instantRunner completes immediately with a fixed outcome.
func instantRunner() Runner {
	return RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		return Outcome{Status: string(StateCompleted), Iterations: spec.Iterations}, nil
	})
}

// gatedRunner blocks every run on release; cancelling the context also
// releases it (with a cancelled outcome), like the engine does.
func gatedRunner(release <-chan struct{}) Runner {
	return RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		select {
		case <-release:
			return Outcome{Status: string(StateCompleted)}, nil
		case <-ctx.Done():
			return Outcome{Status: string(StateCancelled)}, nil
		}
	})
}

func drain(t *testing.T, s *Supervisor) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSubmitRunsToCompletion: the happy path — N runs through the pool,
// all terminal, each started exactly once.
func TestSubmitRunsToCompletion(t *testing.T) {
	s, err := New(Config{Runner: instantRunner(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 10; i++ {
		id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Iterations: 2, Seed: int64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		info, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateCompleted || info.Attempts != 1 {
			t.Fatalf("run %d state = %s after %d attempts, want completed after 1", id, info.State, info.Attempts)
		}
	}
	drain(t, s)
	st := s.Stats()
	if st.Terminal != 10 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAdmissionStormTypedRejections: an admission storm — a burst of
// submissions against a full queue must come back as typed
// *QueueFullError values, never block, never panic, and every admitted
// run must still reach a terminal state.
func TestAdmissionStormTypedRejections(t *testing.T) {
	const burst = 256
	release := make(chan struct{})
	s, err := New(Config{Runner: gatedRunner(release), Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	accepted, rejected := 0, 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < burst; i++ {
			_, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: int64(i)})
			switch {
			case err == nil:
				accepted++
			default:
				var qf *QueueFullError
				if !errors.As(err, &qf) {
					t.Errorf("submission %d: untyped rejection %v", i, err)
					return
				}
				if qf.Depth != 2 {
					t.Errorf("queue-full depth = %d, want 2", qf.Depth)
				}
				rejected++
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("admission storm blocked — submissions must never block")
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("storm: accepted %d, rejected %d — want both non-zero", accepted, rejected)
	}
	if accepted > 1+2 {
		// 1 running + queue depth 2: nothing else can have been admitted.
		t.Fatalf("accepted %d runs with 1 worker and queue depth 2", accepted)
	}
	close(release)
	drain(t, s)
	for _, info := range s.List() {
		if !info.State.Terminal() {
			t.Fatalf("run %d ended non-terminal: %s", info.ID, info.State)
		}
	}
}

// TestQuotaAdmission: per-run quota and whole-budget quota both reject
// with typed, introspectable errors; finished runs release their charge.
func TestQuotaAdmission(t *testing.T) {
	release := make(chan struct{})
	s, err := New(Config{
		Runner:          gatedRunner(release),
		Workers:         2,
		QueueDepth:      8,
		GPUMemoryBudget: 100,
		// PerRunQuota defaults to 100/2 = 50.
	})
	if err != nil {
		t.Fatal(err)
	}

	// Over the per-run slice: permanent rejection.
	_, err = s.Submit(RunSpec{Model: "gpt2-xl", Batch: 16, MemoryDemand: 60})
	var q *QuotaError
	if !errors.As(err, &q) || !q.PerRun || q.Retryable() || q.Limit != 50 {
		t.Fatalf("per-run quota rejection = %v (%+v)", err, q)
	}

	// Two 40-byte runs fit; a third exceeds the committed budget.
	a, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, MemoryDemand: 40})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, MemoryDemand: 40})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(RunSpec{Model: "bert-base", Batch: 8, MemoryDemand: 40})
	q = nil
	if !errors.As(err, &q) || q.PerRun || !q.Retryable() || q.Committed != 80 || q.Limit != 100 {
		t.Fatalf("budget quota rejection = %v (%+v)", err, q)
	}

	// Finishing releases the charge; the same demand is then admitted.
	close(release)
	if _, err := s.Wait(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(b); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CommittedBytes != 0 {
		t.Fatalf("committed = %d after runs finished, want 0", st.CommittedBytes)
	}
	c, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, MemoryDemand: 40})
	if err != nil {
		t.Fatalf("post-release submit: %v", err)
	}
	if _, err := s.Wait(c); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
}

// TestEstimateFillsDemand: a spec without MemoryDemand is charged what
// Config.Estimate computes.
func TestEstimateFillsDemand(t *testing.T) {
	s, err := New(Config{
		Runner:          instantRunner(),
		GPUMemoryBudget: 100,
		PerRunQuota:     100,
		Estimate:        func(spec RunSpec) (int64, error) { return 25 * spec.Batch, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Demand != 100 {
		t.Fatalf("estimated demand = %d, want 100", info.Demand)
	}
	if _, err := s.Submit(RunSpec{Model: "bert-base", Batch: 5}); err == nil {
		t.Fatal("5x25 = 125 demand admitted over a 100-byte budget")
	}
	drain(t, s)
}

// TestCancelQueuedAndRunning: cancelling a queued run finalizes it without
// a worker; cancelling a running run escalates through its context; both
// terminal states reject further cancels, and unknown IDs are typed.
func TestCancelQueuedAndRunning(t *testing.T) {
	release := make(chan struct{})
	s, err := New(Config{Runner: gatedRunner(release), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	running, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up so the second submission queues.
	waitState(t, s, running, StateRunning)
	queued, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Cancel(queued); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	info, _ := s.Get(queued)
	if info.State != StateCancelled || info.Reason != "cancelled by api" {
		t.Fatalf("queued cancel -> %s (%q)", info.State, info.Reason)
	}
	if info.Attempts != 0 {
		t.Fatalf("cancelled-in-queue run has %d attempts", info.Attempts)
	}

	if err := s.Cancel(running); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	info, err = s.Wait(running)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCancelled || info.Reason != "cancelled by api" {
		t.Fatalf("running cancel -> %s (%q)", info.State, info.Reason)
	}

	if err := s.Cancel(running); !errors.Is(err, ErrAlreadyFinished) {
		t.Fatalf("cancel terminal run = %v, want ErrAlreadyFinished", err)
	}
	var nf *NotFoundError
	if err := s.Cancel(9999); !errors.As(err, &nf) || nf.ID != 9999 {
		t.Fatalf("cancel unknown run = %v, want NotFoundError", err)
	}
	drain(t, s)
}

// waitState polls until the run reaches the given state (bounded).
func waitState(t *testing.T, s *Supervisor, id uint64, want RunState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("run %d never reached %s", id, want)
}

// TestWatchdogEscalatesToCancellation: a run that stops heartbeating is
// cancelled by the watchdog with a reason naming it; a run that keeps
// heartbeating past the timeout is left alone.
func TestWatchdogEscalatesToCancellation(t *testing.T) {
	hung := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		if spec.Model == "lively" {
			// Runs 4x the watchdog timeout but heartbeats throughout.
			deadline := time.Now().Add(200 * time.Millisecond)
			for time.Now().Before(deadline) {
				progress(nil)
				select {
				case <-ctx.Done():
					return Outcome{Status: string(StateCancelled)}, nil
				case <-time.After(5 * time.Millisecond):
				}
			}
			return Outcome{Status: string(StateCompleted)}, nil
		}
		<-ctx.Done() // hangs: no progress at all
		return Outcome{Status: string(StateCancelled)}, nil
	})
	s, err := New(Config{Runner: hung, Workers: 2, WatchdogTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit(RunSpec{Model: "hung", Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Submit(RunSpec{Model: "lively", Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Wait(h)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCancelled {
		t.Fatalf("hung run state = %s, want cancelled", info.State)
	}
	if info.Reason == "" || !contains(info.Reason, "watchdog") {
		t.Fatalf("hung run reason = %q, want watchdog escalation", info.Reason)
	}
	info, err = s.Wait(l)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCompleted {
		t.Fatalf("lively run state = %s (%q), want completed — watchdog false positive", info.State, info.Reason)
	}
	drain(t, s)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestWorkerPanicRecovery: the worker-panic chaos scenario — panicking
// workers mark their run failed, release its quota, and keep serving
// subsequent runs.
func TestWorkerPanicRecovery(t *testing.T) {
	sc, err := chaos.SupervisorScenarioByName("worker-panic")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Runner:          instantRunner(),
		Workers:         4,
		QueueDepth:      64,
		GPUMemoryBudget: 1000,
		PerRunQuota:     1000,
		Chaos:           sc,
		ChaosSeed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, MemoryDemand: 10, Seed: int64(i)}); err != nil {
			// Quota/queue pressure is possible mid-burst; wait and retry once.
			time.Sleep(10 * time.Millisecond)
			if _, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, MemoryDemand: 10, Seed: int64(i)}); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
	}
	drain(t, s)
	completed, failed := 0, 0
	for _, info := range s.List() {
		switch info.State {
		case StateCompleted:
			completed++
		case StateFailed:
			failed++
			if info.Outcome == nil || !contains(info.Outcome.Error, "panic") {
				t.Fatalf("failed run %d outcome = %+v, want panic error", info.ID, info.Outcome)
			}
		default:
			t.Fatalf("run %d ended %s — every run must reach terminal state", info.ID, info.State)
		}
	}
	if completed == 0 || failed == 0 {
		t.Fatalf("worker-panic soak: %d completed, %d failed — want both (prob %.2f)", completed, failed, sc.WorkerPanicProb)
	}
	if st := s.Stats(); st.CommittedBytes != 0 {
		t.Fatalf("panicked runs leaked quota: committed = %d", st.CommittedBytes)
	}
}

// TestSubmitAfterDrainRejected: admission stops with ErrShuttingDown once
// draining; draining twice is safe.
func TestSubmitAfterDrainRejected(t *testing.T) {
	s, err := New(Config{Runner: instantRunner(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Accepting() {
		t.Fatal("fresh supervisor not accepting")
	}
	drain(t, s)
	if s.Accepting() {
		t.Fatal("drained supervisor still accepting")
	}
	if _, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after drain = %v, want ErrShuttingDown", err)
	}
	drain(t, s) // idempotent
}

// TestDrainEscalation: a drain whose context expires cancels queued and
// running work but still winds the pool down and reports the deadline.
func TestDrainEscalation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, err := New(Config{Runner: gatedRunner(release), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Submit(RunSpec{Model: "bert-base", Batch: 8})
	waitState(t, s, a, StateRunning)
	b, _ := s.Submit(RunSpec{Model: "bert-base", Batch: 8})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("escalated drain = %v, want DeadlineExceeded", err)
	}
	ia, _ := s.Get(a)
	ib, _ := s.Get(b)
	if ia.State != StateCancelled || ib.State != StateCancelled {
		t.Fatalf("escalated drain left states %s / %s", ia.State, ib.State)
	}
	if !contains(ib.Reason, "drain") {
		t.Fatalf("queued run reason = %q, want drain escalation", ib.Reason)
	}
}

// TestJournalRecordsLifecycle: every state change a restart depends on is
// in the journal, in order, with fsync'd framing the replayer accepts.
func TestJournalRecordsLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	ck := []byte("warm-state")
	runner := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		progress(ck)
		return Outcome{Status: string(StateCompleted), Checkpoint: []byte("final")}, nil
	})
	s, err := New(Config{Runner: runner, Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2 (mid-run + final)", info.Checkpoints)
	}
	drain(t, s)

	recs, stats, err := journal.ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornOffset != -1 || stats.CRCFailures != 0 {
		t.Fatalf("journal not clean: %+v", stats)
	}
	want := []journal.RecordType{journal.RecSubmitted, journal.RecStarted, journal.RecCheckpointed, journal.RecCheckpointed, journal.RecFinished}
	if len(recs) != len(want) {
		t.Fatalf("journal has %d records (%v), want %d", len(recs), types(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Type != want[i] || rec.RunID != id {
			t.Fatalf("record %d = %s run %d, want %s run %d", i, rec.Type, rec.RunID, want[i], id)
		}
	}
}

func types(recs []journal.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Type.String()
	}
	return out
}

// TestConcurrentSubmitCancelStatus hammers the public API from many
// goroutines (meaningful under -race).
func TestConcurrentSubmitCancelStatus(t *testing.T) {
	s, err := New(Config{Runner: instantRunner(), Workers: 4, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: int64(w*100 + i)})
				if err != nil {
					var qf *QueueFullError
					if !errors.As(err, &qf) {
						t.Errorf("untyped rejection: %v", err)
					}
					continue
				}
				if i%3 == 0 {
					_ = s.Cancel(id)
				}
				_, _ = s.Get(id)
				_ = s.List()
				_ = s.Stats()
			}
		}(w)
	}
	wg.Wait()
	drain(t, s)
	for _, info := range s.List() {
		if !info.State.Terminal() {
			t.Fatalf("run %d ended %s", info.ID, info.State)
		}
	}
}

// TestConfigValidation: a runner is mandatory; defaults are filled.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("constructed a supervisor with no runner")
	}
	s, err := New(Config{Runner: instantRunner(), GPUMemoryBudget: 800, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PerRunQuota != 100 {
		t.Fatalf("default per-run quota = %d, want budget/workers = 100", st.PerRunQuota)
	}
	drain(t, s)
	_ = fmt.Sprintf("%v", s.Stats())
}
