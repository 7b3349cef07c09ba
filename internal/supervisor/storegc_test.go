package supervisor

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"deepum/internal/chaos"
	"deepum/internal/store"
)

// TestStoreGCReclaimsFinishedCheckpoints: with StoreGCThreshold set, the
// supervisor compacts the checkpoint store in the background once finished
// runs' checkpoints push the garbage ratio past the threshold — and the
// live checkpoint of a still-running run survives the compaction.
func TestStoreGCReclaimsFinishedCheckpoints(t *testing.T) {
	st, _, err := store.Open(filepath.Join(t.TempDir(), "ck.store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	hungCk := []byte("ck-hang-live")
	hung := make(chan struct{})
	runner := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		if spec.Seed == 1 {
			progress(hungCk)
			close(hung)
			<-ctx.Done()
			return Outcome{Status: string(StateCancelled)}, nil
		}
		progress([]byte(fmt.Sprintf("ck-%d", spec.Seed)))
		return Outcome{Status: string(StateCompleted)}, nil
	})
	s, err := New(Config{
		Runner:           runner,
		Workers:          5,
		QueueDepth:       8,
		Checkpoints:      st,
		StoreGCThreshold: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	hangID, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-hung
	for seed := int64(2); seed <= 5; seed++ {
		id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	// Four of five keys are now garbage (0.8 > 0.4); the background GC
	// kicked by the last finalize must compact down to the live key.
	// The compaction's counters are bumped after it commits, so wait for
	// them the same way.
	liveKey := store.HashBytes(hungCk)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if keys := st.Keys(); len(keys) == 1 && st.Has(liveKey) && s.Stats().StoreGCs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store not compacted to the live key: %d key(s) remain, stats %+v",
				len(st.Keys()), s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if stats := s.Stats(); stats.StoreGCReclaimed <= 0 {
		t.Fatalf("StoreGCs %d reclaimed %d, want at least one reclaiming compaction",
			stats.StoreGCs, stats.StoreGCReclaimed)
	}
	if err := s.Cancel(hangID); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
}

// TestStoreGCFailureCounted: a background compaction that fails — the
// disk fills while the compacted file is written — leaves the store as it
// was and is counted in Stats().StoreGCFailures.
func TestStoreGCFailureCounted(t *testing.T) {
	// Write 1 is the store header, write 2 the run's checkpoint and write 3
	// the compaction's new file.
	fs := chaos.NewFaultFS(chaos.DiskFaults{NoSpaceAt: 3, NoSpaceKeep: 5})
	st, _, err := store.Open("ck.store", store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ck := []byte("ck-gc-fails")
	runner := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		progress(ck)
		return Outcome{Status: string(StateCompleted)}, nil
	})
	s, err := New(Config{Runner: runner, Workers: 1, Checkpoints: st, StoreGCThreshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	// The finished run's checkpoint is garbage (ratio 1 > 0.4), so its
	// finalize kicked a compaction, which must fail and be counted.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().StoreGCFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no failed compaction counted: stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if stats := s.Stats(); stats.StoreGCFailures != 1 || stats.StoreGCs != 0 {
		t.Fatalf("StoreGCFailures %d StoreGCs %d, want 1 and 0", stats.StoreGCFailures, stats.StoreGCs)
	}
	if got, err := st.Get(store.HashBytes(ck)); err != nil || string(got) != string(ck) {
		t.Fatalf("checkpoint after the failed compaction: %q, %v", got, err)
	}
	if _, err := st.Put([]byte("after")); err != nil {
		t.Fatalf("store after the failed compaction: %v", err)
	}
	drain(t, s)
}

// TestGarbageRatio pins the ratio arithmetic on a store populated by hand.
func TestGarbageRatio(t *testing.T) {
	st, _, err := store.Open(filepath.Join(t.TempDir(), "ck.store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := garbageRatio(st, nil); got != 0 {
		t.Fatalf("empty store ratio = %v, want 0", got)
	}
	var keys []store.Key
	for i := 0; i < 4; i++ {
		k, err := st.Put([]byte(fmt.Sprintf("blob-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	live := map[store.Key]bool{keys[0]: true}
	if got := garbageRatio(st, live); got != 0.75 {
		t.Fatalf("ratio = %v, want 0.75 (3 of 4 unreferenced)", got)
	}
}
