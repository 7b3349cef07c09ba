package core

import (
	"testing"

	"deepum/internal/correlation"
	polcorr "deepum/internal/policy/correlation"
	"deepum/internal/sim"
	"deepum/internal/um"
)

// newDriver builds a driver with no residency: the policy filters no
// block as resident, and the protected set is not throttled.
func newDriver(t testing.TB, opts Options) *Driver {
	t.Helper()
	d, err := NewDriverFor(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if !o.Prefetch || !o.Preevict || !o.Invalidate {
		t.Fatal("default options must enable all optimizations")
	}
	if o.Degree != 32 {
		t.Fatalf("default degree = %d, want the paper's sweet spot 32", o.Degree)
	}
	cfg := o.TableConfig
	if cfg.NumRows != 2048 || cfg.Assoc != 2 || cfg.NumSuccs != 4 {
		t.Fatalf("default table config = %+v, want Config9", cfg)
	}
}

func TestNewDriverClampsOptions(t *testing.T) {
	d := newDriver(t, Options{Degree: 0})
	if d.Options().Degree != 1 {
		t.Fatalf("degree = %d", d.Options().Degree)
	}
	if d.Options().TableConfig.NumRows == 0 {
		t.Fatal("table config not defaulted")
	}
}

// trainIteration drives the driver through one "iteration" of a toy
// two-kernel workload: kernel 0 faults on blocks 10,11,12 and kernel 1 on
// 20,21.
func trainIteration(d *Driver) {
	d.KernelLaunch(0)
	for _, b := range []um.BlockID{10, 11, 12} {
		d.OnFault(b)
	}
	d.KernelComplete(0)
	d.KernelLaunch(1)
	for _, b := range []um.BlockID{20, 21} {
		d.OnFault(b)
	}
	d.KernelComplete(1)
}

func drainQueue(d *Driver) []PrefetchCommand {
	var cmds []PrefetchCommand
	for {
		c, ok := d.NextPrefetch()
		if !ok {
			return cmds
		}
		cmds = append(cmds, c)
	}
}

func TestDriverLearnsAndPrefetchesAcrossKernels(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	// Warm-up iteration: tables learn, predictions may fail.
	trainIteration(d)
	drainQueue(d)
	// Second iteration: a fault on the first block of kernel 0 must chain
	// through kernel 0's blocks and across the boundary into kernel 1.
	d.KernelLaunch(0)
	d.OnFault(10)
	cmds := drainQueue(d)
	want := map[um.BlockID]correlation.ExecID{11: 0, 12: 0, 20: 1, 21: 1}
	if len(cmds) < len(want) {
		t.Fatalf("prefetch commands = %v, want at least %d", cmds, len(want))
	}
	got := map[um.BlockID]correlation.ExecID{}
	for _, c := range cmds {
		got[c.Block] = c.Exec
	}
	for b, e := range want {
		if got[b] != e {
			t.Fatalf("block %d predicted for exec %d, want %d (cmds %v)", b, got[b], e, cmds)
		}
	}
	if d.Stats.PrefetchIssued < int64(len(want)) {
		t.Fatalf("stats.PrefetchIssued = %d", d.Stats.PrefetchIssued)
	}
}

func TestDriverPrefetchDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefetch = false
	d := newDriver(t, opts)
	trainIteration(d)
	d.KernelLaunch(0)
	d.OnFault(10)
	if _, ok := d.NextPrefetch(); ok {
		t.Fatal("prefetch disabled but commands issued")
	}
	// Correlation tables still learn (the correlator thread always runs).
	if d.Policy().(*polcorr.Chaser).Tables().Block(0).Start == um.NoBlock {
		t.Fatal("correlator must record misses even without prefetching")
	}
}

func TestDriverDegreeLimitsChaining(t *testing.T) {
	opts := DefaultOptions()
	opts.Degree = 1
	d := newDriver(t, opts)
	// Three-kernel workload so the chain could run two kernels ahead.
	iter := func() {
		for k := correlation.ExecID(0); k < 3; k++ {
			d.KernelLaunch(k)
			base := um.BlockID(10 * (int64(k) + 1))
			d.OnFault(base)
			d.OnFault(base + 1)
			d.KernelComplete(k)
		}
	}
	iter()
	drainQueue(d)
	d.KernelLaunch(0)
	d.OnFault(10)
	cmds := drainQueue(d)
	for _, c := range cmds {
		if c.Exec == 2 {
			t.Fatalf("degree 1 chained two kernels ahead: %v", cmds)
		}
	}
	// Completing kernel 0 resumes the paused chain into kernel 2's window.
	d.KernelComplete(0)
	d.KernelLaunch(1)
	resumed := drainQueue(d)
	foundK2 := false
	for _, c := range resumed {
		if c.Exec == 2 {
			foundK2 = true
		}
	}
	if !foundK2 {
		t.Fatalf("chain did not resume after kernel completion: %v", resumed)
	}
}

func TestDriverFaultRestartsChain(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	trainIteration(d)
	d.KernelLaunch(0)
	d.OnFault(10)
	before := d.Stats.ChainRestarts
	d.OnFault(11) // a new fault restarts chaining from the new block
	if d.Stats.ChainRestarts != before+1 {
		t.Fatal("fault did not restart the chain")
	}
}

func TestDriverNoDuplicateQueueEntries(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	trainIteration(d)
	trainIteration(d)
	d.KernelLaunch(0)
	d.OnFault(10)
	cmds := drainQueue(d)
	seen := map[um.BlockID]bool{}
	for _, c := range cmds {
		if seen[c.Block] {
			t.Fatalf("duplicate prefetch command for block %d", c.Block)
		}
		seen[c.Block] = true
	}
}

func newResidency(blocks int64) (*um.Residency, *um.Space) {
	s := um.NewSpace(0)
	r := um.NewResidency(s, blocks*sim.BlockSize)
	return r, s
}

// blocksOf lists the blocks [base, base+n) overlaps, in address order.
func blocksOf(base um.Addr, n int64) []um.BlockID {
	var bs []um.BlockID
	for b, last := um.BlockSpan(base, n); b <= last; b++ {
		bs = append(bs, b)
	}
	return bs
}

func TestSelectVictimsSkipsProtected(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	r, s := newResidency(4)
	a, _ := s.Malloc(4 * sim.BlockSize)
	bs := blocksOf(a, 4*sim.BlockSize)
	for i, b := range bs {
		r.Insert(b, sim.PagesPerBlock, sim.Time(i), sim.Time(i))
	}
	// Protect the two oldest blocks via the prediction set.
	d.protected.Add(bs[0])
	d.protected.Add(bs[1])
	victims := d.SelectVictims(r, sim.BlockSize)
	if len(victims) != 1 || victims[0] != bs[2] {
		t.Fatalf("victims = %v, want [%d]", victims, bs[2])
	}
	if d.Stats.ProtectedSkipped < 2 {
		t.Fatalf("protected skips = %d", d.Stats.ProtectedSkipped)
	}
}

func TestSelectVictimsFallbackWhenAllProtected(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	r, s := newResidency(2)
	a, _ := s.Malloc(2 * sim.BlockSize)
	bs := blocksOf(a, 2*sim.BlockSize)
	for i, b := range bs {
		r.Insert(b, sim.PagesPerBlock, sim.Time(i), sim.Time(i))
		d.protected.Add(b)
	}
	victims := d.SelectVictims(r, sim.BlockSize)
	if len(victims) != 1 || victims[0] != bs[1] {
		t.Fatalf("fallback victims = %v, want most-recently-migrated [%d] (farthest prediction)", victims, bs[1])
	}
}

func TestPreevictTarget(t *testing.T) {
	opts := DefaultOptions()
	d := newDriver(t, opts)
	r, s := newResidency(2 * preevictWatermark)
	a, _ := s.Malloc((2*preevictWatermark - 1) * sim.BlockSize)
	for i, b := range blocksOf(a, (2*preevictWatermark-1)*sim.BlockSize) {
		r.Insert(b, sim.PagesPerBlock, sim.Time(i), sim.Time(i))
	}
	// 1 block free; the watermark keeps 2 free.
	if got := d.PreevictTarget(r); got != sim.BlockSize {
		t.Fatalf("preevict target = %d, want one block", got)
	}
	opts.Preevict = false
	d2 := newDriver(t, opts)
	if d2.PreevictTarget(r) != 0 {
		t.Fatal("disabled pre-eviction must return zero target")
	}
}

func TestInvalidationTracksPTActivity(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	base := um.Addr(0)
	size := int64(3 * sim.BlockSize)
	if !d.CanInvalidate(0) {
		t.Fatal("untouched block must be invalidatable")
	}
	d.OnPTActive(base, size)
	for b := um.BlockID(0); b < 3; b++ {
		if d.CanInvalidate(b) {
			t.Fatalf("active block %d reported invalidatable", b)
		}
	}
	d.OnPTInactive(base, size)
	for b := um.BlockID(0); b < 3; b++ {
		if !d.CanInvalidate(b) {
			t.Fatalf("inactive block %d not invalidatable", b)
		}
	}
	// Overlapping activity: two PT blocks share UM block 0.
	d.OnPTActive(0, sim.PageSize)
	d.OnPTActive(um.Addr(sim.PageSize), sim.PageSize)
	d.OnPTInactive(0, sim.PageSize)
	if d.CanInvalidate(0) {
		t.Fatal("block with one remaining active PT block must not be invalidatable")
	}
	d.OnPTInactive(um.Addr(sim.PageSize), sim.PageSize)
	if !d.CanInvalidate(0) {
		t.Fatal("block with no active PT blocks must be invalidatable")
	}
}

func TestInvalidationDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.Invalidate = false
	d := newDriver(t, opts)
	if d.CanInvalidate(0) {
		t.Fatal("invalidation disabled but CanInvalidate returned true")
	}
}

func TestBeginIterationClearsProtection(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	d.protected.Add(1)
	d.BeginIteration()
	if d.protected.Len() != 0 {
		t.Fatal("BeginIteration did not clear the protected set")
	}
}

func TestDriverStatsCounters(t *testing.T) {
	d := newDriver(t, DefaultOptions())
	d.NotePreeviction()
	d.NoteInvalidation()
	d.NotePrefetchUseful()
	if d.Stats.Preevictions != 1 || d.Stats.Invalidations != 1 || d.Stats.PrefetchUseful != 1 {
		t.Fatalf("stats = %+v", d.Stats)
	}
}
