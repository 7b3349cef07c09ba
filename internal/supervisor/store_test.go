package supervisor

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepum/internal/store"
	"deepum/internal/supervisor/journal"
)

func openTestStore(t *testing.T, path string) *store.Store {
	t.Helper()
	st, _, err := store.Open(path, store.Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreKillRestartResume is the checkpoint-store acceptance test: with
// a store configured, the journal carries 16-byte references instead of
// checkpoint blobs, and a killed supervisor restarted on the same journal
// and store resumes interrupted runs from the exact bytes they saved.
func TestStoreKillRestartResume(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "runs.journal")
	spath := filepath.Join(dir, "ck.store")

	st1 := openTestStore(t, spath)
	bigCkpt := bytes.Repeat([]byte("warm-state-"), 400) // big enough to dwarf a ref
	started := make(chan struct{})
	phase1 := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		progress([]byte("superseded checkpoint"))
		progress(bigCkpt)
		close(started)
		<-ctx.Done()
		return Outcome{Status: string(StateCancelled)}, nil
	})
	s1, err := New(Config{Runner: phase1, Workers: 1, JournalPath: jpath, Checkpoints: st1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit(RunSpec{Model: "bert-base", Batch: 8, Iterations: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if cs := s1.Stats().CheckpointsStored; cs != 2 {
		t.Fatalf("CheckpointsStored = %d, want 2", cs)
	}
	s1.Kill()
	st1.Close()

	// The journal must hold references, not blobs: every checkpoint record
	// decodes as a ref and is RefBytes long.
	recs, _, err := journal.ReplayFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ckRecs := 0
	for _, rec := range recs {
		if rec.Type != journal.RecCheckpointed {
			continue
		}
		ckRecs++
		if _, ok := store.DecodeRef(rec.Data); !ok {
			t.Fatalf("checkpoint record holds %d inline bytes, want a store reference", len(rec.Data))
		}
	}
	if ckRecs != 2 {
		t.Fatalf("journal has %d checkpoint records, want 2", ckRecs)
	}

	// Restart on the same journal + reopened store: the run resumes from
	// the latest checkpoint's exact bytes.
	st2 := openTestStore(t, spath)
	defer st2.Close()
	var mu sync.Mutex
	var gotResume []byte
	phase2 := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		mu.Lock()
		gotResume = resume
		mu.Unlock()
		return Outcome{Status: string(StateCompleted)}, nil
	})
	s2, err := New(Config{Runner: phase2, Workers: 1, JournalPath: jpath, Checkpoints: st2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Wait(id); err != nil {
		t.Fatal(err)
	}
	drain(t, s2)
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(gotResume, bigCkpt) {
		t.Fatalf("resumed with %d bytes, want the %d-byte checkpoint", len(gotResume), len(bigCkpt))
	}
}

// TestStoreMissDegradesToColdRestart: a journal whose checkpoint reference
// no longer resolves (blob scrub-degraded, compacted away, or — here — a
// fresh store) restarts the run cold rather than failing or resuming from
// bad state.
func TestStoreMissDegradesToColdRestart(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "runs.journal")

	st1 := openTestStore(t, filepath.Join(dir, "a.store"))
	started := make(chan struct{})
	phase1 := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		progress([]byte("checkpoint that will vanish"))
		close(started)
		<-ctx.Done()
		return Outcome{Status: string(StateCancelled)}, nil
	})
	s1, err := New(Config{Runner: phase1, Workers: 1, JournalPath: jpath, Checkpoints: st1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit(RunSpec{Model: "bert-base", Batch: 8, Iterations: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s1.Kill()
	st1.Close()

	// Restart against a different (empty) store: the reference dangles.
	st2 := openTestStore(t, filepath.Join(dir, "b.store"))
	defer st2.Close()
	var mu sync.Mutex
	resumed := map[int64][]byte{}
	phase2 := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		mu.Lock()
		resumed[spec.Seed] = resume
		mu.Unlock()
		return Outcome{Status: string(StateCompleted)}, nil
	})
	s2, err := New(Config{Runner: phase2, Workers: 1, JournalPath: jpath, Checkpoints: st2})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s2.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCompleted {
		t.Fatalf("run state = %s, want completed", info.State)
	}
	if info.Resumed {
		t.Fatal("run claims to have resumed from a dangling reference")
	}
	if cr := s2.Stats().ColdRestarts; cr != 1 {
		t.Fatalf("ColdRestarts = %d, want 1", cr)
	}
	drain(t, s2)
	mu.Lock()
	defer mu.Unlock()
	if got := resumed[1]; got != nil {
		t.Fatalf("cold restart received %d resume bytes, want nil", len(got))
	}
}

// TestStoreDedupAcrossRuns: identical checkpoint content from different
// runs lands once in the store — the content-addressed payoff.
func TestStoreDedupAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, filepath.Join(dir, "ck.store"))
	defer st.Close()

	shared := bytes.Repeat([]byte("identical warm state "), 50)
	runner := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		progress(shared)
		return Outcome{Status: string(StateCompleted)}, nil
	})
	s, err := New(Config{Runner: runner, Workers: 2, JournalPath: filepath.Join(dir, "runs.journal"), Checkpoints: st})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Iterations: 2, Seed: i})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)
	stStats := st.Stats()
	if stStats.Keys != 1 {
		t.Fatalf("store holds %d keys for identical checkpoints, want 1", stStats.Keys)
	}
	if stStats.DedupHits != 3 {
		t.Fatalf("dedup hits = %d, want 3", stStats.DedupHits)
	}
}

// TestAdoptionPassesReferencesThrough: a handoff adoption whose resume is
// already a store reference re-journals the 16-byte reference, not a blob,
// and the adoptee resumes through the shared store.
func TestAdoptionPassesReferencesThrough(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, filepath.Join(dir, "ck.store"))
	defer st.Close()

	blob := []byte("handed-off warm state")
	key, err := st.Put(blob)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var gotResume []byte
	runner := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		mu.Lock()
		gotResume = resume
		mu.Unlock()
		return Outcome{Status: string(StateCompleted)}, nil
	})
	jpath := filepath.Join(dir, "succ.journal")
	s, err := New(Config{Runner: runner, Workers: 1, JournalPath: jpath, Checkpoints: st})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Adopt([]Adoption{{
		ID:     77,
		Spec:   RunSpec{Model: "bert-base", Batch: 8, Iterations: 2, Seed: 9},
		Resume: store.EncodeRef(key),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queued != 1 || rep.Resumed != 1 {
		t.Fatalf("adopt report: %+v", rep)
	}
	if _, err := s.Wait(77); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	mu.Lock()
	if !bytes.Equal(gotResume, blob) {
		t.Fatalf("adopted run resumed with %q, want %q", gotResume, blob)
	}
	mu.Unlock()

	recs, _, err := journal.ReplayFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Type == journal.RecCheckpointed {
			if k, ok := store.DecodeRef(rec.Data); !ok || k != key {
				t.Fatalf("re-journaled adoption checkpoint is not the reference: %d bytes", len(rec.Data))
			}
			return
		}
	}
	t.Fatal("no checkpoint record journaled for the adoption")
}

func ExampleAdoptionFolder() {
	f := NewAdoptionFolder()
	f.Add(journal.Record{Type: journal.RecSubmitted, RunID: 1, Data: []byte(`{"spec":{"model":"bert-base"},"demand":0}`)})
	f.Add(journal.Record{Type: journal.RecCheckpointed, RunID: 1, Data: []byte("old")})
	f.Add(journal.Record{Type: journal.RecCheckpointed, RunID: 1, Data: []byte("new")})
	as := f.Adoptions()
	fmt.Println(len(as), string(as[0].Resume))
	// Output: 1 new
}

// stallFS is an in-memory store filesystem whose Sync can be made to block:
// once armed, the next Sync signals entered and waits for release.
type stallFS struct {
	*store.MemFS
	armed   chan struct{} // holds one token while armed
	entered chan struct{}
	release chan struct{}
}

type stallFile struct {
	store.File
	fs *stallFS
}

func (f stallFile) Sync() error {
	select {
	case <-f.fs.armed:
		close(f.fs.entered)
		<-f.fs.release
	default:
	}
	return f.File.Sync()
}

func (fs *stallFS) OpenFile(path string) (store.File, error) {
	f, err := fs.MemFS.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return stallFile{File: f, fs: fs}, nil
}

// TestSubmitNotBlockedByCheckpointPut: a checkpoint's store write runs
// outside the supervisor lock, so submits and polls on the same supervisor
// go through while the write is stalled on disk.
func TestSubmitNotBlockedByCheckpointPut(t *testing.T) {
	fs := &stallFS{MemFS: store.NewMemFS(), armed: make(chan struct{}, 1),
		entered: make(chan struct{}), release: make(chan struct{})}
	st, _, err := store.Open("ck.store", store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ck := []byte("ck-stalled")
	runner := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		if spec.Seed == 1 {
			progress(ck)
		}
		return Outcome{Status: string(StateCompleted)}, nil
	})
	s, err := New(Config{Runner: runner, Workers: 2, Checkpoints: st})
	if err != nil {
		t.Fatal(err)
	}
	fs.armed <- struct{}{}
	slow, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-fs.entered // the checkpoint Put is now stalled in Sync

	done := make(chan error, 1)
	go func() {
		id, err := s.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: 2})
		if err == nil {
			_, err = s.Get(slow)
		}
		if err == nil {
			_, err = s.Wait(id)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("submit, poll and a second run did not finish while a checkpoint write was stalled")
	}
	close(fs.release)
	if _, err := s.Wait(slow); err != nil {
		t.Fatal(err)
	}
	if stats := s.Stats(); stats.CheckpointsStored != 1 || !st.Has(store.HashBytes(ck)) {
		t.Fatalf("stalled checkpoint not stored after release: stats %+v", stats)
	}
	drain(t, s)
}
