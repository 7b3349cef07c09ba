package core

import (
	"testing"

	"deepum/internal/correlation"
	"deepum/internal/sim"
	"deepum/internal/um"
)

// TestTakeQueuedWindow: only commands near the queue front convert; deeper
// ones report a window miss.
func TestTakeQueuedWindow(t *testing.T) {
	opts := DefaultOptions()
	opts.TakeWindow = 2
	d := newDriver(t, opts)
	// Learn a long chain within one kernel: blocks 1..10 in order, twice so
	// successors exist.
	for it := 0; it < 2; it++ {
		d.KernelLaunch(0)
		for b := um.BlockID(1); b <= 10; b++ {
			d.OnFault(b)
		}
		d.KernelComplete(0)
	}
	d.KernelLaunch(0)
	d.OnFault(1) // chain emits 2..10 in order
	if d.PendingPrefetches() < 5 {
		t.Fatalf("queue too small: %d", d.PendingPrefetches())
	}
	// Block 2 is at the front: timely.
	if !d.TakeQueued(2) {
		t.Fatal("front command must convert")
	}
	// Block 9 is deep in the queue: not timely.
	if d.TakeQueued(9) {
		t.Fatal("deep command must not convert within window 2")
	}
	if d.Stats.WindowMisses == 0 {
		t.Fatal("window miss not counted")
	}
	// A block never queued is not a window miss, just absent.
	before := d.Stats.WindowMisses
	if d.TakeQueued(999) {
		t.Fatal("unqueued block converted")
	}
	if d.Stats.WindowMisses != before {
		t.Fatal("absent block counted as window miss")
	}
}

// TestQueueFlushOnFault: a new fault discards the previous chain's commands.
func TestQueueFlushOnFault(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	for it := 0; it < 2; it++ {
		d.KernelLaunch(0)
		for b := um.BlockID(1); b <= 5; b++ {
			d.OnFault(b)
		}
		d.KernelComplete(0)
	}
	d.KernelLaunch(0)
	d.OnFault(1)
	if !d.IsQueued(2) {
		t.Fatal("successor of 1 not queued")
	}
	d.OnFault(4) // restart: chain from 4 (plus the Start anchor)
	if !d.IsQueued(5) {
		t.Fatal("successor of 4 not queued after restart")
	}
	// The new chain's commands lead the queue: the Start anchor first, then
	// the faulted block's direct successor, all well within the service
	// window.
	first, ok1 := d.NextPrefetch()
	second, ok2 := d.NextPrefetch()
	if !ok1 || !ok2 || first.Block != 1 || second.Block != 5 {
		t.Fatalf("queue front after restart = %v, %v; want Start anchor 1 then successor 5", first, second)
	}
}

// TestNoteEvictionRequeues: a protected block evicted through the fallback
// is immediately re-queued.
func TestNoteEvictionRequeues(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	d.KernelLaunch(0)
	d.protected.Add(77)
	d.NoteEviction(77)
	if !d.IsQueued(77) {
		t.Fatal("evicted protected block not re-queued")
	}
	// Unprotected evictions are not re-queued.
	d.NoteEviction(88)
	if d.IsQueued(88) {
		t.Fatal("unprotected eviction re-queued")
	}
	// Prefetch disabled: no requeue.
	opts := DefaultOptions()
	opts.Prefetch = false
	d2 := newDriver(t, opts)
	d2.protected.Add(5)
	d2.NoteEviction(5)
	if d2.IsQueued(5) {
		t.Fatal("requeue with prefetching disabled")
	}
}

// TestResidencyProbeFiltersCommands: the policy skips blocks the device's
// residency holds, so they get no migration command and no protection and
// stay eviction candidates; the residency is read live, so a block that
// leaves the device is queued on the next restart.
func TestResidencyProbeFiltersCommands(t *testing.T) {
	r := um.NewResidency(um.NewSpace(0), 64*sim.BlockSize)
	r.Insert(2, 1, 0, 0)
	d, err := NewDriverFor(DefaultOptions(), r)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 2; it++ {
		d.KernelLaunch(0)
		for b := um.BlockID(1); b <= 3; b++ {
			d.OnFault(b)
		}
		d.KernelComplete(0)
	}
	d.KernelLaunch(0)
	d.OnFault(1)
	if d.IsQueued(2) || d.protected.Has(2) {
		t.Fatal("resident block got a migration command or protection")
	}
	if !d.IsQueued(3) {
		t.Fatal("non-resident successor missing from the queue")
	}
	r.Remove(2)
	d.OnFault(1)
	if !d.IsQueued(2) {
		t.Fatal("block evicted from the device not queued on the next restart")
	}
}

// TestUnprotectResumesThrottledChain: shrinking the protected set below the
// capacity throttle resumes a paused chain.
func TestUnprotectResumesThrottledChain(t *testing.T) {
	// throttle: at most 4x the device's capacity in blocks, so 8
	r := um.NewResidency(um.NewSpace(0), 2*sim.BlockSize)
	d, err := NewDriverFor(DefaultOptions(), r)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 2; it++ {
		d.KernelLaunch(0)
		for b := um.BlockID(1); b <= 30; b++ {
			d.OnFault(b)
		}
		d.KernelComplete(0)
	}
	d.KernelLaunch(0)
	d.OnFault(1)
	queuedBefore := d.PendingPrefetches()
	if queuedBefore >= 29 {
		t.Skip("throttle did not bind at this geometry")
	}
	// Consume protections: the chain resumes and queues more.
	for b := um.BlockID(2); b <= 10; b++ {
		d.Unprotect(b)
	}
	if d.PendingPrefetches() <= queuedBefore-9 {
		t.Fatalf("chain did not resume after unprotect: %d -> %d", queuedBefore, d.PendingPrefetches())
	}
}

// TestVictimsForPrefetchNeverFallsBack: unlike the demand path, prefetch
// eviction reports failure instead of touching protected blocks.
func TestVictimsForPrefetchNeverFallsBack(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	s := um.NewSpace(0)
	r := um.NewResidency(s, 4*sim.BlockSize)
	a, _ := s.Malloc(2 * sim.BlockSize)
	bs := blocksOf(a, 2*sim.BlockSize)
	for i, b := range bs {
		r.Insert(b, sim.PagesPerBlock, sim.Time(i), sim.Time(i))
		d.protected.Add(b)
	}
	victims, ok := d.VictimsForPrefetch(r, sim.BlockSize)
	if ok || len(victims) != 0 {
		t.Fatalf("prefetch eviction touched protected blocks: %v %v", victims, ok)
	}
	// Unprotect one: now it is a victim.
	d.Unprotect(bs[0])
	victims, ok = d.VictimsForPrefetch(r, sim.BlockSize)
	if !ok || len(victims) != 1 || victims[0] != bs[0] {
		t.Fatalf("victims = %v ok=%v", victims, ok)
	}
}

// TestVictimsForPrefetchReusesBuffer: the victim walk appends into a
// buffer the driver owns, so a warm walk allocates nothing.
func TestVictimsForPrefetchReusesBuffer(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	s := um.NewSpace(0)
	r := um.NewResidency(s, 8*sim.BlockSize)
	a, _ := s.Malloc(8 * sim.BlockSize)
	for i, b := range blocksOf(a, 8*sim.BlockSize) {
		r.Insert(b, sim.PagesPerBlock, sim.Time(i), sim.Time(i))
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if victims, ok := d.VictimsForPrefetch(r, 4*sim.BlockSize); !ok || len(victims) != 4 {
			t.Fatalf("victims = %v ok=%v", victims, ok)
		}
	}); allocs != 0 {
		t.Fatalf("a warm victim walk allocates %v times", allocs)
	}
}

// TestQueueCompaction: heavy pop traffic keeps the backing slice bounded.
func TestQueueCompaction(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	for i := 0; i < 3*maxQueue; i++ {
		d.queued.Add(um.BlockID(i))
		d.queue = append(d.queue, PrefetchCommand{Block: um.BlockID(i)})
		if _, ok := d.NextPrefetch(); !ok {
			t.Fatal("pop failed")
		}
		if len(d.queue) > 2*maxQueue+1 {
			t.Fatalf("queue slice grew unbounded: %d", len(d.queue))
		}
	}
}

// TestChainCursorDeathCauses distinguishes the two chain-death reasons.
func TestChainCursorDeathCauses(t *testing.T) {
	ts := correlation.NewTables(correlation.DefaultBlockTableConfig())
	ts.Block(0).RecordMiss(1)
	ts.Block(0).RecordMiss(2)
	h := [3]correlation.ExecID{correlation.NoExec, correlation.NoExec, correlation.NoExec}
	var c correlation.ChainCursor
	c.Reset(ts, 0, h, 1)
	for {
		b, _ := c.Next(nil)
		if b == um.NoBlock {
			break
		}
	}
	if c.DeathCause != correlation.DeathNoExec {
		t.Fatalf("death cause = %d, want DeathNoExec", c.DeathCause)
	}
}
