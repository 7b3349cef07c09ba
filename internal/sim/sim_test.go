package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTransferTime(t *testing.T) {
	p := DefaultParams()
	if got := p.TransferTime(0); got != 0 {
		t.Fatalf("TransferTime(0) = %v, want 0", got)
	}
	// One UM block at 12 GiB/s: 2MiB / 12GiB/s ~= 162.8us plus latency.
	d := p.TransferTime(BlockSize)
	if d < 150*time.Microsecond || d > 200*time.Microsecond {
		t.Fatalf("TransferTime(2MiB) = %v, want ~170us", d)
	}
	// Monotone in n.
	if p.TransferTime(2*BlockSize) <= d {
		t.Fatalf("transfer time not monotone")
	}
}

func TestKernelTimeRoofline(t *testing.T) {
	p := DefaultParams()
	// Compute bound: 4.5e9 flops at the 4.5e12 flop/s effective (MFU-
	// adjusted) throughput = 1ms.
	d := p.KernelTime(4.5e9, 1000)
	if d < 900*time.Microsecond || d > 1100*time.Microsecond {
		t.Fatalf("compute-bound kernel time = %v, want ~1ms", d)
	}
	// Memory bound: 800MB at 800GB/s = 1ms, tiny flops.
	d = p.KernelTime(1, 800_000_000)
	if d < 900*time.Microsecond || d > 1100*time.Microsecond {
		t.Fatalf("memory-bound kernel time = %v, want ~1ms", d)
	}
	// Floor applies.
	if d := p.KernelTime(1, 1); d < 6*time.Microsecond {
		t.Fatalf("kernel time %v below launch floor", d)
	}
}

func TestParamsScale(t *testing.T) {
	p := DefaultParams().Scale(8)
	if p.GPUMemory != 4*GiB {
		t.Fatalf("scaled GPUMemory = %d, want 4GiB", p.GPUMemory)
	}
	if p.HostMemory != 64*GiB {
		t.Fatalf("scaled HostMemory = %d, want 64GiB", p.HostMemory)
	}
	if got := DefaultParams().Scale(1).GPUMemory; got != 32*GiB {
		t.Fatalf("Scale(1) must be identity, got %d", got)
	}
	if got := DefaultParams().Scale(0).GPUMemory; got != 32*GiB {
		t.Fatalf("Scale(0) must be identity, got %d", got)
	}
}

func TestLinkSerializes(t *testing.T) {
	p := DefaultParams()
	l := NewLink(p, nil)
	s1, e1 := l.Reserve(0, BlockSize, HostToDevice)
	if s1 != 0 {
		t.Fatalf("first transfer should start immediately, started %v", s1)
	}
	s2, e2 := l.Reserve(0, BlockSize, HostToDevice)
	if s2 != e1 {
		t.Fatalf("second transfer must queue behind first: start %v, want %v", s2, e1)
	}
	if e2.Sub(s2) != e1.Sub(s1) {
		t.Fatalf("equal-size transfers must take equal time")
	}
	// A request after the link drained starts at its own time.
	s3, _ := l.Reserve(e2.Add(time.Millisecond), PageSize, DeviceToHost)
	if s3 != e2.Add(time.Millisecond) {
		t.Fatalf("idle link must start at request time, got %v", s3)
	}
	h2d, d2h := l.Traffic()
	if h2d != 2*BlockSize || d2h != PageSize {
		t.Fatalf("traffic = (%d,%d), want (%d,%d)", h2d, d2h, 2*BlockSize, PageSize)
	}
	nh, nd := l.Transfers()
	if nh != 2 || nd != 1 {
		t.Fatalf("transfer counts = (%d,%d), want (2,1)", nh, nd)
	}
}

func TestLinkZeroByteReservation(t *testing.T) {
	l := NewLink(DefaultParams(), nil)
	s, e := l.Reserve(100, 0, HostToDevice)
	if s != 100 || e != 100 {
		t.Fatalf("zero-byte reserve = [%v,%v), want empty at 100", s, e)
	}
	if l.BusyUntil() != 0 {
		t.Fatalf("zero-byte reserve must not occupy the link")
	}
}

// alwaysFail fails every transfer without changing its occupancy.
type alwaysFail struct{ attempts int }

func (f *alwaysFail) PerturbTransfer(at Time, n int64, dir Direction, base Duration) (Duration, bool) {
	f.attempts++
	return base, true
}

// TestReserveRetriesUpToCap: on a link that never delivers, Reserve makes
// MaxTransferRetries retries, each after RetryBackoff, then counts the
// transfer as delivered.
func TestReserveRetriesUpToCap(t *testing.T) {
	p := DefaultParams()
	l := NewLink(p, nil)
	f := &alwaysFail{}
	l.SetPerturber(f)
	_, end := l.Reserve(0, BlockSize, HostToDevice)
	if f.attempts != MaxTransferRetries+1 {
		t.Fatalf("attempts = %d, want %d", f.attempts, MaxTransferRetries+1)
	}
	want := Time(0).Add(Duration(f.attempts) * p.TransferTime(BlockSize))
	for a := 0; a < MaxTransferRetries; a++ {
		want = want.Add(RetryBackoff(a))
	}
	if end != want {
		t.Fatalf("end = %d, want %d", end, want)
	}
}

func TestLinkIdleUntil(t *testing.T) {
	p := DefaultParams()
	l := NewLink(p, nil)
	dur := p.TransferTime(BlockSize)
	if !l.IdleUntil(0, BlockSize, Time(dur)) {
		t.Fatalf("fresh link must fit a block before its own transfer time")
	}
	if l.IdleUntil(0, BlockSize, Time(dur-1)) {
		t.Fatalf("deadline one ns too early must fail")
	}
	l.Reserve(0, BlockSize, HostToDevice)
	if l.IdleUntil(0, BlockSize, Time(dur)) {
		t.Fatalf("busy link must not fit a second block in the same window")
	}
}

func TestLinkReset(t *testing.T) {
	tl := &Timeline{}
	l := NewLink(DefaultParams(), tl)
	l.Reserve(0, BlockSize, HostToDevice)
	l.Reset()
	if l.BusyUntil() != 0 {
		t.Fatalf("reset link still busy")
	}
	if h, d := l.Traffic(); h != 0 || d != 0 {
		t.Fatalf("reset link has traffic (%d,%d)", h, d)
	}
	if tl.Busy() != 0 {
		t.Fatalf("reset link timeline still busy")
	}
}

func TestTimelineMerge(t *testing.T) {
	var tl Timeline
	tl.Add(0, 10)
	tl.Add(20, 30)
	if tl.Busy() != 20 {
		t.Fatalf("busy = %v, want 20", tl.Busy())
	}
	tl.Add(5, 25) // bridges both
	if tl.Busy() != 30 {
		t.Fatalf("busy after bridge = %v, want 30", tl.Busy())
	}
	if tl.Len() != 1 {
		t.Fatalf("intervals = %d, want 1 merged", tl.Len())
	}
	tl.Add(30, 40) // adjacent extends
	if tl.Busy() != 40 || tl.Len() != 1 {
		t.Fatalf("adjacent add: busy=%v len=%d", tl.Busy(), tl.Len())
	}
	tl.Add(10, 20) // fully contained, no-op
	if tl.Busy() != 40 {
		t.Fatalf("contained add changed busy to %v", tl.Busy())
	}
	tl.Add(7, 3) // inverted ignored
	if tl.Busy() != 40 {
		t.Fatalf("inverted interval changed busy to %v", tl.Busy())
	}
}

func TestTimelineOutOfOrder(t *testing.T) {
	var tl Timeline
	tl.Add(100, 200)
	tl.Add(0, 50)
	if tl.Busy() != 150 || tl.Len() != 2 {
		t.Fatalf("out-of-order add: busy=%v len=%d", tl.Busy(), tl.Len())
	}
	tl.Add(40, 110)
	if tl.Busy() != 200 || tl.Len() != 1 {
		t.Fatalf("bridging add: busy=%v len=%d", tl.Busy(), tl.Len())
	}
}

// TestTimelineQuick checks against a brute-force boolean-array oracle with
// randomized interval sets.
func TestTimelineQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		var tl Timeline
		covered := make([]bool, 2048)
		for i := 0; i+1 < len(raw); i += 2 {
			a := Time(raw[i] % 2048)
			b := Time(raw[i+1] % 2048)
			tl.Add(a, b)
			for x := a; x < b; x++ {
				covered[x] = true
			}
		}
		var want Duration
		for _, c := range covered {
			if c {
				want++
			}
		}
		return tl.Busy() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDuplexSealingMatchesUnsealed feeds random two-lane reservation
// streams to a duplex, whose timeline seals as it goes, and every reserved
// interval to a timeline that never seals. Busy must agree after every
// reservation, and the sealing timeline must stay valid and small.
func TestDuplexSealingMatchesUnsealed(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sealing, plain Timeline
		d := NewDuplex(DefaultParams(), &sealing)
		d.SetObserver(func(start, end Time, _ int64, _ Direction, _ bool) { plain.Add(start, end) })
		var now Time
		maxKept := 0
		for i := 0; i < 400; i++ {
			dir := HostToDevice
			if rng.Intn(3) == 0 {
				dir = DeviceToHost
			}
			// Requests trail, meet or run ahead of the lane; some lanes go
			// idle for long stretches.
			now = now.Add(Duration(rng.Int63n(100_000)))
			at := now - Time(rng.Int63n(1_000_000))
			d.Reserve(max(at, 0), 1+rng.Int63n(BlockSize/4), dir)
			if sealing.Busy() != plain.Busy() {
				t.Fatalf("seed %d step %d: sealing busy %v, unsealed busy %v", seed, i, sealing.Busy(), plain.Busy())
			}
			if err := sealing.Validate(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			// The folded prefix is dropped once it is half the slice.
			if len(sealing.intervals) > 2*sealing.Len() {
				t.Fatalf("seed %d step %d: %d intervals stored for %d kept", seed, i, len(sealing.intervals), sealing.Len())
			}
			maxKept = max(maxKept, sealing.Len())
		}
		if err := plain.Validate(); err != nil {
			t.Fatal(err)
		}
		if maxKept > plain.Len()/4 {
			t.Fatalf("seed %d: sealing kept up to %d intervals, the unsealed timeline %d", seed, maxKept, plain.Len())
		}
	}
}

// TestTimelineRejectsAddBeforeSeal: an interval that starts before the
// sealed bound may overlap folded time, so Validate must report it.
func TestTimelineRejectsAddBeforeSeal(t *testing.T) {
	var tl Timeline
	tl.Add(0, 10)
	tl.Add(20, 30)
	tl.seal(15)
	if tl.Len() != 1 || tl.Busy() != 20 {
		t.Fatalf("after seal: len=%d busy=%v, want 1 and 20", tl.Len(), tl.Busy())
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	tl.Add(15, 25) // starts at the bound: fine
	if err := tl.Validate(); err != nil || tl.Busy() != 25 {
		t.Fatalf("add at the bound: busy=%v err=%v", tl.Busy(), err)
	}
	tl.Add(5, 12)
	if err := tl.Validate(); err == nil {
		t.Fatal("an Add before the sealed bound passed Validate")
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Fatal("Max broken")
	}
	if Time(5).Add(3) != 8 {
		t.Fatal("Time.Add broken")
	}
	if Time(8).Sub(5) != 3 {
		t.Fatal("Time.Sub broken")
	}
}

func TestDirectionString(t *testing.T) {
	if HostToDevice.String() != "H2D" || DeviceToHost.String() != "D2H" {
		t.Fatal("Direction.String broken")
	}
}
