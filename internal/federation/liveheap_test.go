package federation

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"deepum/internal/supervisor"
)

// TestFinishedRunLiveBytes bounds the heap that a finished run keeps
// alive on an oversubscribed, store-backed two-shard federation that takes
// keyed submits. A finished run stays listed for Get and for key
// deduplication, so it keeps its RunInfo (spec, outcome, timestamps), its
// done channel and its key binding in its shard's key table: about 770
// bytes with a runner that simulates nothing, over 3,000 runs after 200
// warm-up runs (Go 1.24, amd64, with or without -race). A run that kept
// its cancel func held its context and the closures it carries, about 100
// bytes more; one that kept its checkpoints held hundreds of KB. The
// bound, 1 KiB, is about a third above the measured count, for map growth
// and allocator rounding.
func TestFinishedRunLiveBytes(t *testing.T) {
	const warm, runs, bound = 200, 3000, 1024
	dir := t.TempDir()
	f, err := New(Config{
		Shards: 2,
		Supervisor: supervisor.Config{
			Runner:          quickRunner(),
			Workers:         2,
			QueueDepth:      64,
			JournalNoSync:   true,
			GPUMemoryBudget: 1 << 30,
			Oversubscribe:   true,
			Estimate:        func(supervisor.RunSpec) (int64, error) { return 1 << 29, nil },
		},
		JournalDir:  dir,
		StorePath:   filepath.Join(dir, "ck.store"),
		StoreNoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = f.Drain(ctx)
	}()
	seed := int64(0)
	submit := func(n int) {
		for i := 0; i < n; i++ {
			seed++
			spec := supervisor.RunSpec{Model: "bert-base", Batch: 8, Seed: seed, Iterations: 2}
			id, _, err := f.SubmitWithOptions(spec, supervisor.SubmitOptions{Key: fmt.Sprintf("run-%d", seed)})
			if err != nil {
				t.Fatalf("submit %d: %v", seed, err)
			}
			if info, err := f.Wait(id); err != nil || info.State != supervisor.StateCompleted {
				t.Fatalf("run %d: %v, %v", id, info.State, err)
			}
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	submit(warm)
	before := heap()
	submit(runs)
	perRun := (heap() - before) / runs
	t.Logf("each finished run keeps %d bytes of heap", perRun)
	if perRun > bound {
		t.Fatalf("each finished run keeps %d bytes of heap, want at most %d", perRun, bound)
	}
}
