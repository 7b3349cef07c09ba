package federation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"deepum/internal/supervisor"
)

// quickRunner completes instantly with a checksum derived from the seed,
// so tests can verify routing and recovery without simulating anything.
func quickRunner() supervisor.Runner {
	return supervisor.RunnerFunc(func(ctx context.Context, spec supervisor.RunSpec, resume []byte, progress func([]byte)) (supervisor.Outcome, error) {
		return supervisor.Outcome{
			Status:         string(supervisor.StateCompleted),
			Iterations:     spec.Iterations,
			AccessChecksum: expectChecksum(spec.Seed, spec.Iterations),
		}, nil
	})
}

func newTestFederation(t *testing.T, shards int, runner supervisor.Runner) *Federation {
	t.Helper()
	f, err := New(Config{
		Shards: shards,
		Supervisor: supervisor.Config{
			Runner:        runner,
			Workers:       2,
			QueueDepth:    64,
			JournalNoSync: true,
		},
		JournalDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = f.Drain(ctx)
	})
	return f
}

func TestRingDeterminismAndMinimalMovement(t *testing.T) {
	all := []int{0, 1, 2, 3}
	r1 := buildRing(all)
	r2 := buildRing(all)
	moved, total := 0, 4096
	shrunk := buildRing([]int{0, 1, 3}) // shard 2 died
	counts := map[int]int{}
	for id := uint64(1); id <= uint64(total); id++ {
		a, b := r1.owner(id), r2.owner(id)
		if a != b {
			t.Fatalf("ring not deterministic: id %d owned by %d then %d", id, a, b)
		}
		counts[a]++
		c := shrunk.owner(id)
		if a != 2 && c != a {
			t.Fatalf("id %d moved %d->%d though shard %d survived", id, a, c, a)
		}
		if a == 2 {
			moved++
			if c == 2 {
				t.Fatalf("id %d still owned by dead shard 2", id)
			}
		}
	}
	// Sanity: the load is spread, not piled on one shard.
	for s, n := range counts {
		if n == 0 || n == total {
			t.Fatalf("degenerate distribution: shard %d owns %d of %d", s, n, total)
		}
	}
	if moved == 0 {
		t.Fatalf("no id mapped to shard 2 across %d ids", total)
	}
	if got := shrunk.shards(); len(got) != 3 {
		t.Fatalf("shrunk ring shards = %v", got)
	}
}

func TestFederationRoutingAndLifecycle(t *testing.T) {
	f := newTestFederation(t, 4, quickRunner())
	ids := make([]uint64, 0, 20)
	for i := 0; i < 20; i++ {
		id, err := f.Submit(supervisor.RunSpec{Model: "bert-base", Batch: 8, Seed: int64(i), Iterations: 4})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	owners := map[int]int{}
	for _, id := range ids {
		info, err := f.Wait(id)
		if err != nil {
			t.Fatalf("Wait(%d): %v", id, err)
		}
		if info.State != supervisor.StateCompleted {
			t.Fatalf("run %d finished %s (%s)", id, info.State, info.Reason)
		}
		if want := expectChecksum(info.Spec.Seed, info.Spec.Iterations); info.Outcome.AccessChecksum != want {
			t.Fatalf("run %d checksum %#x, want %#x", id, info.Outcome.AccessChecksum, want)
		}
		ord, ok := f.Owner(id)
		if !ok {
			t.Fatalf("run %d has no owner", id)
		}
		owners[ord]++
		if got, err := f.Get(id); err != nil || got.ID != id {
			t.Fatalf("Get(%d) = %+v, %v", id, got, err)
		}
	}
	if len(owners) < 2 {
		t.Fatalf("all 20 runs landed on %d shard(s): %v", len(owners), owners)
	}
	if _, err := f.Get(9999); !errors.As(err, new(*supervisor.NotFoundError)) {
		t.Fatalf("Get(unknown) = %v, want NotFoundError", err)
	}
	list := f.List()
	if len(list) != 20 {
		t.Fatalf("List returned %d runs, want 20", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("List not ascending at %d: %d then %d", i, list[i-1].ID, list[i].ID)
		}
	}
	st := f.Stats()
	if st.Shards != 4 || st.Live != 4 || st.Terminal != 20 || st.Handoffs != 0 {
		t.Fatalf("Stats = %+v", st)
	}
	for _, sh := range f.Shards() {
		if !sh.Alive || sh.HandoffPending {
			t.Fatalf("shard %d not alive/clean: %+v", sh.Ordinal, sh)
		}
	}
	if !f.Accepting() {
		t.Fatal("federation not accepting")
	}
}

func TestFederationRestartRecoversAllShards(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 3,
		Supervisor: supervisor.Config{
			Runner:        quickRunner(),
			Workers:       2,
			QueueDepth:    64,
			JournalNoSync: true,
		},
		JournalDir: dir,
	}
	f1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var ids []uint64
	for i := 0; i < 12; i++ {
		id, err := f1.Submit(supervisor.RunSpec{Model: "m", Batch: 1, Seed: int64(i), Iterations: 3})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := f1.Wait(id); err != nil {
			t.Fatalf("Wait(%d): %v", id, err)
		}
	}
	maxID := ids[len(ids)-1]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	f2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer func() { _ = f2.Drain(context.Background()) }()
	for _, id := range ids {
		info, err := f2.Get(id)
		if err != nil {
			t.Fatalf("restarted Get(%d): %v", id, err)
		}
		if info.State != supervisor.StateCompleted {
			t.Fatalf("restarted run %d state %s", id, info.State)
		}
	}
	nid, err := f2.Submit(supervisor.RunSpec{Model: "m", Batch: 1, Iterations: 1})
	if err != nil {
		t.Fatalf("restarted Submit: %v", err)
	}
	if nid <= maxID {
		t.Fatalf("restarted federation reused id space: got %d, journals held up to %d", nid, maxID)
	}
}

func TestHandoffPreconditions(t *testing.T) {
	f := newTestFederation(t, 2, quickRunner())
	if _, err := f.Handoff(0); err == nil {
		t.Fatal("Handoff on a live shard succeeded")
	}
	if _, err := f.Handoff(7); err == nil {
		t.Fatal("Handoff on a nonexistent shard succeeded")
	}
	if err := f.Kill(7); err == nil {
		t.Fatal("Kill on a nonexistent shard succeeded")
	}
	if err := f.Kill(0); err != nil {
		t.Fatalf("Kill(0): %v", err)
	}
	if err := f.Kill(0); err == nil {
		t.Fatal("double Kill succeeded")
	}
	if _, err := f.Handoff(0); err != nil {
		t.Fatalf("Handoff(0): %v", err)
	}
	if _, err := f.Handoff(0); err == nil {
		t.Fatal("double Handoff succeeded")
	}
	// Killing the last live shard leaves no successor; handoff must refuse.
	if err := f.Kill(1); err != nil {
		t.Fatalf("Kill(1): %v", err)
	}
	if _, err := f.Handoff(1); err == nil {
		t.Fatal("Handoff with no live successor succeeded")
	}
}

func TestHandoffWindowErrors(t *testing.T) {
	f := newTestFederation(t, 2, quickRunner())
	// Park one run per shard so both have state to look up.
	byShard := map[int]uint64{}
	for len(byShard) < 2 {
		id, err := f.Submit(supervisor.RunSpec{Model: "m", Batch: 1, Iterations: 1})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, err := f.Wait(id); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		ord, _ := f.Owner(id)
		byShard[ord] = id
	}
	if err := f.Kill(0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	var he *HandoffError
	if _, err := f.Get(byShard[0]); !errors.As(err, &he) {
		t.Fatalf("Get on dead shard's run = %v, want HandoffError", err)
	}
	if he.Shard != 0 || !he.Retryable() || he.Since.IsZero() {
		t.Fatalf("HandoffError = %+v", he)
	}
	// Fresh IDs hashing to the dead shard must reject the same way; IDs on
	// the live shard keep being admitted.
	sawHandoff, sawAccepted := false, false
	for i := 0; i < 200 && !(sawHandoff && sawAccepted); i++ {
		_, err := f.Submit(supervisor.RunSpec{Model: "m", Batch: 1, Iterations: 1})
		switch {
		case err == nil:
			sawAccepted = true
		case errors.As(err, &he):
			sawHandoff = true
		default:
			t.Fatalf("Submit: %v", err)
		}
	}
	if !sawHandoff || !sawAccepted {
		t.Fatalf("admission during handoff window: handoff-rejects=%v accepted=%v", sawHandoff, sawAccepted)
	}
	if !f.Accepting() {
		t.Fatal("federation stopped accepting with a live shard remaining")
	}
	rep, err := f.Handoff(0)
	if err != nil {
		t.Fatalf("Handoff: %v", err)
	}
	if rep.Runs == 0 || rep.Finished == 0 {
		t.Fatalf("HandoffReport = %+v, want adopted history", rep)
	}
	info, err := f.Get(byShard[0])
	if err != nil {
		t.Fatalf("Get after handoff: %v", err)
	}
	if info.State != supervisor.StateCompleted {
		t.Fatalf("adopted run state %s", info.State)
	}
	if ord, _ := f.Owner(byShard[0]); ord != 1 {
		t.Fatalf("adopted run owned by shard %d, want 1", ord)
	}
}

// TestShardErrorWrapsTypedRejections checks errors.Is/As work through the
// ShardError wrapper, so HTTP mapping keeps seeing the shard-local types.
func TestShardErrorWrapsTypedRejections(t *testing.T) {
	f := newTestFederation(t, 2, quickRunner())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	_, err := f.Submit(supervisor.RunSpec{Model: "m", Batch: 1})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("Submit after drain = %v, want ShardError", err)
	}
	if !errors.Is(err, supervisor.ErrShuttingDown) {
		t.Fatalf("ShardError does not unwrap to ErrShuttingDown: %v", err)
	}
}

func TestFederationMetricsPreRegistered(t *testing.T) {
	f := newTestFederation(t, 4, quickRunner())
	var buf bytes.Buffer
	if err := f.Metrics().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := buf.String()
	// Every per-shard series must exist before any event touched it.
	for i := 0; i < 4; i++ {
		for _, name := range []string{mShardUp, mShardAdopted, mShardSubmissions, mShardQueued, mShardRunning} {
			want := fmt.Sprintf(`%s{shard="%d"}`, name, i)
			if !bytes.Contains(buf.Bytes(), []byte(want)) {
				t.Fatalf("first scrape missing %s\n%s", want, text)
			}
		}
	}
	for _, want := range []string{
		mHandoffs + " 0",
		mRebalances + " 0",
		mHandoffRejections + " 0",
		mShardsLive + " 4",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("first scrape missing %q\n%s", want, text)
		}
	}

	if _, err := f.Failover(2); err != nil {
		t.Fatalf("Failover: %v", err)
	}
	buf.Reset()
	if err := f.Metrics().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{
		`deepum_shard_up{shard="2"} 0`,
		mHandoffs + " 1",
		mRebalances + " 1",
		mShardsLive + " 3",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("post-failover scrape missing %q\n%s", want, buf.String())
		}
	}
}

func TestHandoffRenamesJournal(t *testing.T) {
	f := newTestFederation(t, 2, quickRunner())
	id, err := f.Submit(supervisor.RunSpec{Model: "m", Batch: 1, Iterations: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := f.Wait(id); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	victim, _ := f.Owner(id)
	dead := f.Shards()[victim].Journal
	if _, err := f.Failover(victim); err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if _, err := filepath.Glob(dead + ".adopted"); err != nil {
		t.Fatalf("glob: %v", err)
	}
	matches, _ := filepath.Glob(dead + "*")
	if len(matches) != 1 || matches[0] != dead+".adopted" {
		t.Fatalf("dead journal not retired: %v", matches)
	}
}
