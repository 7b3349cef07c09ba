package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"

	"deepum/internal/core"
	"deepum/internal/correlation"
	"deepum/internal/models"
	"deepum/internal/obs"
	"deepum/internal/sim"
)

func TestHashLaunchDeterministic(t *testing.T) {
	a := hashLaunch("sgemm", []uint64{1, 2, 3})
	if hashLaunch("sgemm", []uint64{1, 2, 3}) != a {
		t.Fatal("hash not deterministic")
	}
	if hashLaunch("sgemm", []uint64{1, 2, 4}) == a {
		t.Fatal("different args must hash differently")
	}
	if hashLaunch("dgemm", []uint64{1, 2, 3}) == a {
		t.Fatal("different names must hash differently")
	}
	if hashLaunch("sgemm", nil) == hashLaunch("sgemm", []uint64{0}) {
		t.Fatal("arg count must affect the hash")
	}
	// It is FNV-1a over the name bytes and the little-endian arg words.
	h := fnv.New64a()
	h.Write([]byte("sgemm"))
	for _, v := range []uint64{1, 2, 3} {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	if a != h.Sum64() {
		t.Fatalf("hashLaunch = %#x, FNV-1a = %#x", a, h.Sum64())
	}
}

func newLaunchExec() *exec {
	return &exec{execIDs: make(map[uint64]correlation.ExecID)}
}

func TestLaunchIDsFirstSeenOrder(t *testing.T) {
	e := newLaunchExec()
	conv := e.launchID("conv2d", []uint64{64, 3, 224})
	relu := e.launchID("relu", []uint64{64})
	again := e.launchID("conv2d", []uint64{64, 3, 224})
	if conv != 0 || relu != 1 || again != conv {
		t.Fatalf("IDs = %d, %d, %d; want 0, 1, 0", conv, relu, again)
	}
	if len(e.execIDs) != 2 {
		t.Fatalf("%d IDs assigned, want 2", len(e.execIDs))
	}
}

// TestLaunchIDQuick: assignment is a function of the command, distinct
// commands get distinct IDs, and the IDs are 0..n-1 in first-seen order.
func TestLaunchIDQuick(t *testing.T) {
	f := func(cmds []uint8) bool {
		e := newLaunchExec()
		byCmd := map[uint8]correlation.ExecID{}
		for _, c := range cmds {
			id := e.launchID(fmt.Sprint("k", c%16), []uint64{uint64(c)})
			prev, seen := byCmd[c]
			if seen && prev != id || !seen && id != correlation.ExecID(len(byCmd)) {
				return false
			}
			byCmd[c] = id
		}
		return len(e.execIDs) == len(byCmd)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// runExec runs cfg and returns the finished exec with its result.
func runExec(t *testing.T, cfg Config) (*exec, *Result) {
	t.Helper()
	e, err := newExec(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

// TestLaunchIDsReachDriver: a DeepUM run numbers each distinct launch once
// and announces every launch to the driver.
func TestLaunchIDsReachDriver(t *testing.T) {
	p := toyProgram(t)
	e, res := runExec(t, Config{Params: smallParams(), Program: p, Policy: PolicyDeepUM,
		DriverOptions: core.DefaultOptions(), Iterations: 2, Warmup: 1, Seed: 7})
	var kernels int64
	for i, s := range p.Iteration {
		if s.Kernel == nil {
			continue
		}
		if got := e.execIDs[hashLaunch(s.Kernel.Name, s.Kernel.Args)]; got != correlation.ExecID(kernels) {
			t.Fatalf("step %d (%s): ID %d, want %d", i, s.Kernel.Name, got, kernels)
		}
		kernels++
	}
	if int64(len(e.execIDs)) != kernels {
		t.Fatalf("%d IDs for %d distinct kernels", len(e.execIDs), kernels)
	}
	if got := res.Driver.KernelLaunches; got != 3*kernels {
		t.Fatalf("driver saw %d launches, want %d", got, 3*kernels)
	}
}

// TestNoLaunchIDsWithoutDriver: UM and Ideal runs have no driver to tell,
// so they number no launches, and their access stream is the one the
// DeepUM goldens pin (TestPolicyEquivalence, bert-base b32).
func TestNoLaunchIDsWithoutDriver(t *testing.T) {
	prog, err := models.Build(models.Spec{Model: "bert-base"}, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{PolicyUM, PolicyIdeal} {
		e, res := runExec(t, Config{Params: sim.DefaultParams().Scale(32), Program: prog,
			Policy: pol, Iterations: 3, Warmup: 2, Seed: 7})
		if e.execIDs != nil {
			t.Errorf("%v: %d launch IDs assigned without a driver", pol, len(e.execIDs))
		}
		if res.AccessChecksum != 0x014b30caf8bec700 {
			t.Errorf("%v: checksum %#x, want 0x014b30caf8bec700", pol, res.AccessChecksum)
		}
	}
}

// TestInvalidatedPrefetchIsNotAHit: a prefetched block that the
// pre-evictor drops by invalidation before any kernel touches it loses its
// prefetched mark, and the drop counts as waste. A mark that survived
// would make the touch after a later demand fault count as a useful
// prefetch. bert-large b32 at scale 64 takes that path.
func TestInvalidatedPrefetchIsNotAHit(t *testing.T) {
	prog, err := models.Build(models.Spec{Model: "bert-large"}, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 18)
	_, res := runExec(t, Config{Params: sim.DefaultParams().Scale(64), Program: prog,
		Policy: PolicyDeepUM, DriverOptions: core.DefaultOptions(),
		Iterations: 2, Warmup: 2, Seed: 1, Obs: rec})
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped())
	}
	// Replay the events: a block is marked from its prefetch until it is
	// touched or evicted.
	marked := map[int64]bool{}
	var hits, falseHits, invalidatedMarked, wasteAfterInvalidation int64
	var last obs.Event
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KindPrefetch:
			marked[ev.Block] = true
		case obs.KindEvict:
			if ev.Arg2 == obs.EvictInvalidated && marked[ev.Block] {
				invalidatedMarked++
				if last.Kind == obs.KindPrefetchWaste && last.Block == ev.Block && last.TS == ev.TS {
					wasteAfterInvalidation++
				}
			}
			marked[ev.Block] = false
		case obs.KindPrefetchHit:
			hits++
			if !marked[ev.Block] {
				falseHits++
			}
			marked[ev.Block] = false
		}
		last = ev
	}
	if invalidatedMarked == 0 {
		t.Fatal("no prefetched block was invalidated before use; the workload no longer covers the path")
	}
	if falseHits != 0 {
		t.Fatalf("%d of %d prefetch hits were on blocks not prefetched since their last eviction", falseHits, hits)
	}
	if wasteAfterInvalidation != invalidatedMarked {
		t.Fatalf("%d of %d invalidated prefetched blocks were counted as waste", wasteAfterInvalidation, invalidatedMarked)
	}
	if hits != res.Driver.PrefetchUseful {
		t.Fatalf("%d hit events, PrefetchUseful %d", hits, res.Driver.PrefetchUseful)
	}
}
