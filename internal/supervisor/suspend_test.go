package supervisor

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepum/internal/arbiter"
)

// Deterministic hash-fold stub shared by the suspend tests: the checksum of
// an uninterrupted execution is a pure function of (seed, iterations), so a
// suspended-and-resumed run has a solo oracle to be bit-identical to.

func suspendFold(h uint64, seed int64, iter int) uint64 {
	h ^= uint64(iter)*0x9E3779B97F4A7C15 + uint64(seed)
	return h * 0x100000001b3
}

func suspendExpect(seed int64, iters int) uint64 {
	h := 0xcbf29ce484222325 ^ uint64(seed)*0x100000001b3
	for i := 0; i < iters; i++ {
		h = suspendFold(h, seed, i)
	}
	return h
}

type suspendCkpt struct {
	Iter int    `json:"iter"`
	Hash uint64 `json:"hash"`
}

// suspendableRunner folds iterations, checkpointing each one. A run whose
// resume state is empty blocks at blockAt after signaling ready (closed
// once), waiting for cancellation; the partial outcome carries its complete
// state, so a resumed execution is bit-identical by construction. A resumed
// run finishes the remaining iterations immediately.
func suspendableRunner(blockAt int, ready map[int64]chan struct{}) Runner {
	var once sync.Map
	return RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		st := suspendCkpt{Hash: 0xcbf29ce484222325 ^ uint64(spec.Seed)*0x100000001b3}
		if len(resume) > 0 {
			if err := json.Unmarshal(resume, &st); err != nil {
				return Outcome{}, err
			}
		}
		fresh := len(resume) == 0
		for st.Iter < spec.Iterations {
			if fresh && st.Iter == blockAt {
				if ch := ready[spec.Seed]; ch != nil {
					if _, dup := once.LoadOrStore(spec.Seed, true); !dup {
						close(ch)
					}
				}
				<-ctx.Done()
				b, err := json.Marshal(st)
				if err != nil {
					return Outcome{}, err
				}
				return Outcome{
					Status:         string(StateCancelled),
					Iterations:     st.Iter,
					AccessChecksum: st.Hash,
					Checkpoint:     b,
				}, nil
			}
			st.Hash = suspendFold(st.Hash, spec.Seed, st.Iter)
			st.Iter++
			b, err := json.Marshal(st)
			if err != nil {
				return Outcome{}, err
			}
			if st.Iter < spec.Iterations {
				progress(b)
			}
		}
		return Outcome{
			Status:         string(StateCompleted),
			Iterations:     st.Iter,
			AccessChecksum: st.Hash,
		}, nil
	})
}

// TestSuspendResumeEquivalence mirrors TestKillRestartEquivalence for the
// suspend path: a run checkpointed out of execution mid-flight and resumed
// must complete with the checksum of an uninterrupted solo execution, one
// extra attempt, and one recorded suspend cycle. Without an arbiter gating
// headroom, the resumption is automatic.
func TestSuspendResumeEquivalence(t *testing.T) {
	const iters = 6
	ready := map[int64]chan struct{}{7: make(chan struct{})}
	s, err := New(Config{
		Runner:      suspendableRunner(3, ready),
		Workers:     1,
		QueueDepth:  4,
		JournalPath: filepath.Join(t.TempDir(), "runs.journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: 7, Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	<-ready[7]
	if err := s.Suspend(id); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	info, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCompleted {
		t.Fatalf("state after suspend/resume = %s (%s)", info.State, info.Reason)
	}
	if want := suspendExpect(7, iters); info.Outcome.AccessChecksum != want {
		t.Fatalf("checksum %016x, want solo oracle %016x", info.Outcome.AccessChecksum, want)
	}
	if info.Suspends != 1 || info.Attempts != 2 || !info.Resumed {
		t.Fatalf("suspends %d attempts %d resumed %v, want 1/2/true", info.Suspends, info.Attempts, info.Resumed)
	}
	st := s.Stats()
	if st.Suspends != 1 || st.Resumes != 1 {
		t.Fatalf("stats suspends/resumes = %d/%d, want 1/1", st.Suspends, st.Resumes)
	}
	drain(t, s)
}

// TestSuspendedRunSurvivesKillRestart: a run that is StateSuspended when
// the supervisor is kill-9'd is journaled as a suspension record, which
// replay folds exactly like an interruption — the restarted supervisor
// re-queues it and resumes from the suspension checkpoint, bit-identical.
func TestSuspendedRunSurvivesKillRestart(t *testing.T) {
	const iters = 6
	path := filepath.Join(t.TempDir(), "runs.journal")
	// Oversubscribed pair: the hanging run's grant (80 of 100) leaves no
	// resume headroom (80 + 25 floor > 100), so the suspended victim stays
	// suspended until the kill.
	ready := map[int64]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	s1, err := New(Config{
		Runner:          suspendableRunner(3, ready),
		Estimate:        func(RunSpec) (int64, error) { return 80, nil },
		Workers:         2,
		QueueDepth:      4,
		JournalPath:     path,
		GPUMemoryBudget: 100,
		Oversubscribe:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int64]uint64{}
	for seed := int64(1); seed <= 2; seed++ {
		id, err := s1.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: seed, Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		ids[seed] = id
	}
	<-ready[1]
	<-ready[2]
	if err := s1.Suspend(ids[2]); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := s1.Get(ids[2])
		if err != nil {
			t.Fatal(err)
		}
		if info.State == StateSuspended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run 2 never reached suspended: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
	s1.Kill()

	var mu sync.Mutex
	executed := map[int64][]byte{}
	recorder := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		mu.Lock()
		if _, dup := executed[spec.Seed]; dup {
			t.Errorf("run seed %d executed twice after restart", spec.Seed)
		}
		executed[spec.Seed] = resume
		mu.Unlock()
		st := suspendCkpt{Hash: 0xcbf29ce484222325 ^ uint64(spec.Seed)*0x100000001b3}
		if len(resume) > 0 {
			if err := json.Unmarshal(resume, &st); err != nil {
				return Outcome{}, err
			}
		}
		for st.Iter < spec.Iterations {
			st.Hash = suspendFold(st.Hash, spec.Seed, st.Iter)
			st.Iter++
		}
		return Outcome{Status: string(StateCompleted), Iterations: st.Iter, AccessChecksum: st.Hash}, nil
	})
	s2, err := New(Config{Runner: recorder, Workers: 2, QueueDepth: 4, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Recovered != 2 {
		t.Fatalf("recovered %d runs, want 2 (1 interrupted + 1 suspended)", st.Recovered)
	}
	for seed := int64(1); seed <= 2; seed++ {
		info, err := s2.Wait(ids[seed])
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateCompleted || !info.Resumed {
			t.Fatalf("replayed run %d: state %s resumed %v", seed, info.State, info.Resumed)
		}
		if want := suspendExpect(seed, iters); info.Outcome.AccessChecksum != want {
			t.Fatalf("replayed run %d checksum %016x, want %016x", seed, info.Outcome.AccessChecksum, want)
		}
		mu.Lock()
		resume := executed[seed]
		mu.Unlock()
		var ck suspendCkpt
		if err := json.Unmarshal(resume, &ck); err != nil || ck.Iter != 3 {
			t.Fatalf("run %d resumed from %q (iter %d), want the iteration-3 checkpoint", seed, resume, ck.Iter)
		}
	}
	// The suspension survived the journal round-trip into the run snapshot.
	if info, _ := s2.Get(ids[2]); info.Suspends != 1 {
		t.Fatalf("suspended run's replayed Suspends = %d, want 1", info.Suspends)
	}
	drain(t, s2)
}

// TestSuspendResumeAPIErrors pins the typed errors of the suspend/resume
// surface.
func TestSuspendResumeAPIErrors(t *testing.T) {
	s, err := New(Config{Runner: instantRunner(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var nf *NotFoundError
	if err := s.Suspend(999); !errors.As(err, &nf) {
		t.Fatalf("Suspend(unknown) = %v, want NotFoundError", err)
	}
	if err := s.Resume(999); !errors.As(err, &nf) {
		t.Fatalf("Resume(unknown) = %v, want NotFoundError", err)
	}
	id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Suspend(id); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("Suspend(terminal) = %v, want ErrNotRunning", err)
	}
	if err := s.Resume(id); !errors.Is(err, ErrNotSuspended) {
		t.Fatalf("Resume(terminal) = %v, want ErrNotSuspended", err)
	}
	drain(t, s)
}

// suspendBehind leaves run a executing on the one worker and run b
// suspended, waiting in the queue behind it: b is suspended while a is
// queued, so the worker takes a first, and a blocks until cancelled.
func suspendBehind(t *testing.T) (s *Supervisor, a, b uint64) {
	t.Helper()
	ready := map[int64]chan struct{}{2: make(chan struct{})}
	s, err := New(Config{Runner: suspendableRunner(3, ready), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b, err = s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: 2, Iterations: 6}); err != nil {
		t.Fatal(err)
	}
	<-ready[2]
	if a, err = s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: 1, Iterations: 6}); err != nil {
		t.Fatal(err)
	}
	if err := s.Suspend(b); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, b, StateSuspended)
	waitState(t, s, a, StateRunning)
	return s, a, b
}

// TestDrainEscalationEndsSuspendedRuns: a drain whose deadline passes
// cancels a suspended run waiting in the queue, as it does a queued one,
// instead of starting it again.
func TestDrainEscalationEndsSuspendedRuns(t *testing.T) {
	s, a, b := suspendBehind(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("escalated drain = %v, want DeadlineExceeded", err)
	}
	ia, _ := s.Get(a)
	ib, _ := s.Get(b)
	if ia.State != StateCancelled || ib.State != StateCancelled {
		t.Fatalf("escalated drain left running %s, suspended %s; want both cancelled", ia.State, ib.State)
	}
	if ib.Attempts != 1 || !contains(ib.Reason, "drain") {
		t.Fatalf("suspended run: %d attempts, reason %q; want 1 and the drain escalation", ib.Attempts, ib.Reason)
	}
}

// TestCancelSuspendedDropsResume: cancelling a suspended run ends it
// without a resume checkpoint in memory and takes it out of the queue.
func TestCancelSuspendedDropsResume(t *testing.T) {
	s, a, b := suspendBehind(t)
	if err := s.Cancel(b); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	left := len(s.runs[b].resume)
	s.mu.Unlock()
	if info, _ := s.Get(b); info.State != StateCancelled || left != 0 {
		t.Fatalf("cancelled suspended run: %s with %d resume bytes; want cancelled with none", info.State, left)
	}
	if st := s.Stats(); st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after cancelling the suspended run, want 0", st.QueueDepth)
	}
	if err := s.Cancel(a); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
}

// TestResumeForcesGatedRun: Resume is the operator override — it must
// restart a suspended run even while the arbiter reports no headroom.
func TestResumeForcesGatedRun(t *testing.T) {
	ready := map[int64]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	s, err := New(Config{
		Runner:          suspendableRunner(3, ready),
		Estimate:        func(RunSpec) (int64, error) { return 80, nil },
		Workers:         2,
		QueueDepth:      4,
		GPUMemoryBudget: 100,
		Oversubscribe:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids [3]uint64
	for seed := int64(1); seed <= 2; seed++ {
		id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: seed, Iterations: 6})
		if err != nil {
			t.Fatal(err)
		}
		ids[seed] = id
	}
	<-ready[1]
	<-ready[2]
	if err := s.Suspend(ids[2]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info, _ := s.Get(ids[2]); info.State == StateSuspended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run 2 never reached suspended")
		}
		time.Sleep(time.Millisecond)
	}
	// Run 1 still holds 80 of 100: no organic headroom. The override must
	// resume run 2 anyway, and it completes on the second worker.
	if err := s.Resume(ids[2]); err != nil {
		t.Fatalf("forced resume: %v", err)
	}
	info, err := s.Wait(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCompleted || info.Suspends != 1 {
		t.Fatalf("forced-resumed run: state %s suspends %d", info.State, info.Suspends)
	}
	if want := suspendExpect(2, 6); info.Outcome.AccessChecksum != want {
		t.Fatalf("forced-resumed checksum %016x, want %016x", info.Outcome.AccessChecksum, want)
	}
	// Unblock run 1 and wind down.
	if err := s.Cancel(ids[1]); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
}

// TestArbiterDrivenSuspendCompletes is the in-package miniature of the
// contention-storm soak: six runs demanding 2.4x the budget together, all
// admitted, with the arbiter's escalation — revocation first, then
// suspend-to-checkpoint — forced by sustained pressure; every run must
// complete bit-identical to its solo oracle.
func TestArbiterDrivenSuspendCompletes(t *testing.T) {
	const (
		budget = int64(1000)
		demand = 400
		runs   = 6
		iters  = 150
	)
	pace := time.Millisecond
	runner := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		st := suspendCkpt{Hash: 0xcbf29ce484222325 ^ uint64(spec.Seed)*0x100000001b3}
		if len(resume) > 0 {
			if err := json.Unmarshal(resume, &st); err != nil {
				return Outcome{}, err
			}
		}
		tick := time.NewTicker(pace)
		defer tick.Stop()
		for st.Iter < spec.Iterations {
			select {
			case <-ctx.Done():
				b, err := json.Marshal(st)
				if err != nil {
					return Outcome{}, err
				}
				return Outcome{Status: string(StateCancelled), Iterations: st.Iter,
					AccessChecksum: st.Hash, Checkpoint: b}, nil
			case <-tick.C:
			}
			st.Hash = suspendFold(st.Hash, spec.Seed, st.Iter)
			st.Iter++
			if st.Iter%10 == 0 && st.Iter < spec.Iterations {
				b, err := json.Marshal(st)
				if err != nil {
					return Outcome{}, err
				}
				progress(b)
			}
		}
		return Outcome{Status: string(StateCompleted), Iterations: st.Iter, AccessChecksum: st.Hash}, nil
	})
	s, err := New(Config{
		Runner:          runner,
		Estimate:        func(RunSpec) (int64, error) { return demand, nil },
		Workers:         runs,
		QueueDepth:      runs,
		GPUMemoryBudget: budget,
		Oversubscribe:   true,
		Arbiter: arbiter.Options{
			HalfLife: (10 * time.Millisecond).Nanoseconds(),
			Sustain:  (30 * time.Millisecond).Nanoseconds(),
		},
		ArbiterTick: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 0, runs)
	for i := 0; i < runs; i++ {
		id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: int64(i + 1), Iterations: iters})
		if err != nil {
			t.Fatalf("submit %d: %v (oversubscribed admission must not hard-reject an individually-fitting run)", i, err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		info, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateCompleted {
			t.Fatalf("run %d ended %s (%s)", id, info.State, info.Reason)
		}
		if want := suspendExpect(int64(i+1), iters); info.Outcome.AccessChecksum != want {
			t.Fatalf("run %d checksum %016x, want solo oracle %016x", id, info.Outcome.AccessChecksum, want)
		}
	}
	st := s.Stats()
	if st.Suspends < 1 || st.Resumes < 1 {
		t.Fatalf("suspends/resumes = %d/%d; sustained 2.4x pressure must force at least one cycle", st.Suspends, st.Resumes)
	}
	if st.Arbiter.Revocations < 1 {
		t.Fatal("no burst revocation recorded; revocation must precede suspension")
	}
	drain(t, s)
}
