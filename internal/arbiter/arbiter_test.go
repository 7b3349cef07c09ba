package arbiter

import (
	"sync"
	"testing"
)

const ms = int64(1_000_000)

// opts returns tuning with short sustain/half-life so tests drive the
// ladder in a handful of ticks.
func opts(budget int64) Options {
	return Options{
		Budget:   budget,
		HalfLife: 1 * ms,
		Sustain:  5 * ms,
	}
}

// tickUntil ticks every millisecond until pred is satisfied by a decision
// or maxTicks elapse, folding decisions together.
func tickUntil(t *testing.T, a *Arbiter, start int64, maxTicks int, pred func(Decision) bool) (Decision, int64) {
	t.Helper()
	ts := start
	for i := 0; i < maxTicks; i++ {
		ts += ms
		if d := a.Tick(ts); pred(d) {
			return d, ts
		}
	}
	t.Fatalf("no qualifying decision within %d ticks", maxTicks)
	return Decision{}, ts
}

func TestNewRejectsZeroBudget(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("want error for zero budget")
	}
}

func TestNilArbiterIsPermissive(t *testing.T) {
	var a *Arbiter
	a.Acquire(1, 1, 100, 0)
	a.Release(2, 1)
	if !a.CanResume(1 << 40) {
		t.Fatal("nil arbiter must always allow resume")
	}
	if p := a.Pressure(); p != 0 {
		t.Fatalf("nil pressure = %v, want 0", p)
	}
	if d := a.Tick(3); len(d.Suspend) != 0 {
		t.Fatal("nil tick must decide nothing")
	}
}

func TestSoftGrantsAndPressure(t *testing.T) {
	a, err := New(opts(1000))
	if err != nil {
		t.Fatal(err)
	}
	// One run demanding 400 on a 1000 budget: floor 250, burst 150.
	a.Acquire(0, 1, 400, 0)
	st := a.Stats()
	if st.Floors != 250 || st.Bursts != 150 || st.Granted != 400 {
		t.Fatalf("grant split = floors %d bursts %d granted %d, want 250/150/400", st.Floors, st.Bursts, st.Granted)
	}
	// A small run gets its whole demand as floor.
	a.Acquire(0, 2, 100, 0)
	if st = a.Stats(); st.Floors != 350 || st.Bursts != 150 {
		t.Fatalf("after small grant: floors %d bursts %d, want 350/150", st.Floors, st.Bursts)
	}
	// Raw pressure is granted/budget; smoothed converges toward it.
	if st.Raw != 0.5 {
		t.Fatalf("raw = %v, want 0.5", st.Raw)
	}
	for ts := ms; ts <= 20*ms; ts += ms {
		a.Tick(ts)
	}
	if p := a.Pressure(); p < 0.45 || p > 0.5 {
		t.Fatalf("smoothed pressure = %v, want ~0.5", p)
	}
	a.Release(21*ms, 1)
	a.Release(21*ms, 2)
	if st = a.Stats(); st.Granted != 0 || st.Running != 0 {
		t.Fatalf("after release: granted %d running %d, want 0/0", st.Granted, st.Running)
	}
}

func TestSustainedPressureRevokesLowestPriorityLargestBurst(t *testing.T) {
	a, err := New(opts(1000))
	if err != nil {
		t.Fatal(err)
	}
	a.Acquire(0, 1, 400, 1) // high priority, burst 150
	a.Acquire(0, 2, 350, 0) // low priority, burst 100
	a.Acquire(0, 3, 400, 0) // low priority, burst 150  <- first victim
	// Raw 1.15: over revokeAt once smoothed converges and sustains.
	d, ts := tickUntil(t, a, 0, 100, func(d Decision) bool { return len(d.Revoked) > 0 })
	if d.Revoked[0] != 3 {
		t.Fatalf("first victim = run %d, want 3 (lowest priority, largest burst)", d.Revoked[0])
	}
	if p := a.PressureFor(3); p != 1 {
		t.Fatalf("revoked run pressure = %v, want pinned 1.0", p)
	}
	d, _ = tickUntil(t, a, ts, 100, func(d Decision) bool { return len(d.Revoked) > 0 })
	if d.Revoked[0] != 2 {
		t.Fatalf("second victim = run %d, want 2", d.Revoked[0])
	}
	st := a.Stats()
	if st.Revocations != 2 || st.Bursts != 150 {
		t.Fatalf("revocations %d bursts %d, want 2 revocations, only run 1's 150 burst left", st.Revocations, st.Bursts)
	}
}

func TestDecayedPressureRestoresBursts(t *testing.T) {
	a, err := New(opts(1000))
	if err != nil {
		t.Fatal(err)
	}
	a.Acquire(0, 1, 400, 0)
	a.Acquire(0, 2, 400, 0)
	a.Acquire(0, 3, 400, 0) // raw 1.2
	_, ts := tickUntil(t, a, 0, 200, func(d Decision) bool { return len(d.Revoked) > 0 })
	// Drop two runs: raw falls to the survivor's floor, pressure decays.
	a.Release(ts, 2)
	a.Release(ts, 3)
	d, _ := tickUntil(t, a, ts, 200, func(d Decision) bool { return len(d.Restored) > 0 })
	if d.Restored[0] != 1 {
		t.Fatalf("restored run %d, want 1", d.Restored[0])
	}
	if p := a.PressureFor(1); p == 1 {
		t.Fatal("restored run must no longer be pinned to pressure 1.0")
	}
	if st := a.Stats(); st.Bursts != 150 {
		t.Fatalf("bursts after restore = %d, want 150", st.Bursts)
	}
}

func TestSuspendOnlyAfterBurstsExhausted(t *testing.T) {
	a, err := New(opts(1000))
	if err != nil {
		t.Fatal(err)
	}
	// Floors alone exceed the budget: 8 × 250 = 2000 on 1000.
	for id := uint64(1); id <= 8; id++ {
		a.Acquire(0, id, 400, 0)
	}
	var sawRevoke bool
	var suspended []uint64
	ts := int64(0)
	for i := 0; i < 500 && len(suspended) == 0; i++ {
		ts += ms
		d := a.Tick(ts)
		if len(d.Suspend) > 0 {
			if !sawRevoke {
				t.Fatal("suspension fired before any burst revocation")
			}
			if a.anyBurst() {
				t.Fatal("suspension fired while revocable bursts remained")
			}
			suspended = append(suspended, d.Suspend...)
		}
		if len(d.Revoked) > 0 {
			sawRevoke = true
		}
	}
	if len(suspended) == 0 {
		t.Fatal("floors 2× budget never produced a suspension")
	}
	// The named victim is not re-picked on the next tick (marked suspending).
	d := a.Tick(ts + ms)
	for _, id := range d.Suspend {
		if id == suspended[0] {
			t.Fatalf("run %d named a suspend victim twice", id)
		}
	}
	// Owner suspends it: release drops its grant.
	before := a.Stats().Granted
	a.Release(ts+2*ms, suspended[0])
	if after := a.Stats().Granted; after != before-250 {
		t.Fatalf("granted after suspend release = %d, want %d", after, before-250)
	}
}

func (a *Arbiter) anyBurst() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.anyBurstLocked()
}

func TestCanResumeUsesRawHeadroom(t *testing.T) {
	a, err := New(opts(1000))
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		a.Acquire(0, id, 250, 0) // three floors of 250 => granted 750
	}
	// A 250-floor resume lands exactly at resumeAt (1.0): allowed.
	if !a.CanResume(400) {
		t.Fatal("resume to exactly resumeAt×budget must be allowed")
	}
	a.Acquire(ms, 4, 250, 0) // granted 1000
	if a.CanResume(400) {
		t.Fatal("resume past resumeAt×budget must be denied")
	}
	// Raw gate: a release opens headroom immediately, no EWMA decay wait.
	a.Release(2*ms, 4)
	if !a.CanResume(400) {
		t.Fatal("resume must be allowed the instant raw headroom exists")
	}
}

func TestReacquireReplacesStaleGrant(t *testing.T) {
	a, err := New(opts(1000))
	if err != nil {
		t.Fatal(err)
	}
	a.Acquire(0, 1, 400, 0)
	a.Acquire(ms, 1, 600, 2) // resumed with different demand/priority
	st := a.Stats()
	if st.Running != 1 || st.Granted != 600 {
		t.Fatalf("running %d granted %d, want 1 running with the fresh 600 grant", st.Running, st.Granted)
	}
}

// TestEventsFireForEveryTransition checks that Stats counts each kind of
// grant-state change the escalation ladder makes.
func TestEventsFireForEveryTransition(t *testing.T) {
	a, err := New(opts(1000))
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 8; id++ {
		a.Acquire(0, id, 400, 0)
	}
	_, ts := tickUntil(t, a, 0, 500, func(d Decision) bool { return len(d.Suspend) > 0 })
	a.Release(ts+ms, 1)
	st := a.Stats()
	if st.Grants != 8 || st.Revocations < 1 || st.Suspensions < 1 || st.Releases != 1 {
		t.Fatalf("grants %d revocations %d suspensions %d releases %d, want 8, >=1, >=1, 1",
			st.Grants, st.Revocations, st.Suspensions, st.Releases)
	}
}

func TestConcurrentUse(t *testing.T) {
	a, err := New(opts(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := uint64(w*1000 + i)
				ts := int64(w*1000+i) * ms
				a.Acquire(ts, id, 1<<18, w%3)
				a.PressureFor(id)
				a.Tick(ts + ms/2)
				a.CanResume(1 << 18)
				a.Release(ts+ms, id)
			}
		}(w)
	}
	wg.Wait()
	if st := a.Stats(); st.Running != 0 || st.Granted != 0 {
		t.Fatalf("ledger not empty after churn: running %d granted %d", st.Running, st.Granted)
	}
}
