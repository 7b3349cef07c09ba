package admission

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestValidateKey(t *testing.T) {
	for _, ok := range []string{"a", "run-7", "k:2026-08-07/retry", strings.Repeat("x", MaxKeyLen)} {
		if err := ValidateKey(ok); err != nil {
			t.Errorf("ValidateKey(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", strings.Repeat("x", MaxKeyLen+1), "has space", "tab\there", "nul\x00", "høst"} {
		if err := ValidateKey(bad); err == nil {
			t.Errorf("ValidateKey(%q) = nil, want error", bad)
		}
	}
}

func TestKeyTableFirstBindingWins(t *testing.T) {
	kt := NewKeyTable()
	if _, ok := kt.Lookup("k"); ok {
		t.Fatal("empty table resolved a key")
	}
	if id, fresh := kt.Bind("k", 7); id != 7 || !fresh {
		t.Fatalf("first Bind = (%d, %v), want (7, true)", id, fresh)
	}
	// Re-binding the same pair is idempotent; a different ID loses.
	if id, same := kt.Bind("k", 7); id != 7 || !same {
		t.Fatalf("idempotent re-Bind = (%d, %v), want (7, true)", id, same)
	}
	if id, same := kt.Bind("k", 9); id != 7 || same {
		t.Fatalf("conflicting Bind = (%d, %v), want (7, false)", id, same)
	}
	if id, ok := kt.Lookup("k"); !ok || id != 7 {
		t.Fatalf("Lookup = (%d, %v), want (7, true)", id, ok)
	}
	if kt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", kt.Len())
	}
	snap := kt.Snapshot()
	if len(snap) != 1 || snap["k"] != 7 {
		t.Fatalf("Snapshot = %v", snap)
	}
	snap["k"] = 99 // a snapshot is a copy
	if id, _ := kt.Lookup("k"); id != 7 {
		t.Fatal("mutating a snapshot leaked into the table")
	}
}

func TestShedderColdAdmitsEverything(t *testing.T) {
	s := NewShedder(ShedOptions{})
	if err := s.Decide(1000, time.Nanosecond); err != nil {
		t.Fatalf("cold shedder shed: %v", err)
	}
	if got := s.PredictWait(1000); got != 0 {
		t.Fatalf("cold PredictWait = %v, want 0", got)
	}
}

func TestShedderNoDeadlineNeverSheds(t *testing.T) {
	s := NewShedder(ShedOptions{})
	feed(s, 100*time.Millisecond, 500*time.Millisecond, 64)
	if err := s.Decide(1<<20, 0); err != nil {
		t.Fatalf("deadline-less submission shed: %v", err)
	}
}

// feed simulates n queue departures spaced `inter` apart, each having
// waited `wait` in the queue, by driving the EWMAs directly through
// ObserveStart with a rigged clock: ObserveStart uses wall time for
// inter-departure spacing, so the test uses the wait EWMA (deterministic)
// plus real observations for the departure clock.
func feed(s *Shedder, inter, wait time.Duration, n int) {
	// Drive the internal model deterministically: wall-clock spacing in a
	// unit test is noise, so poke the EWMAs the way n observations would.
	s.mu.Lock()
	for i := 0; i < n; i++ {
		s.interDepart.observe(inter.Seconds())
		s.queueWait.observe(wait.Seconds())
	}
	s.lastDepart = time.Now()
	s.mu.Unlock()
}

func TestShedderDeadlineGate(t *testing.T) {
	s := NewShedder(ShedOptions{Seed: 42})
	// Drain: one departure per 100ms. Queue of 9 ahead -> ~1s predicted.
	feed(s, 100*time.Millisecond, 0, 64)

	// A generous deadline is admitted.
	if err := s.Decide(9, 10*time.Second); err != nil {
		t.Fatalf("10s deadline shed against ~1s wait: %v", err)
	}
	// A deadline tighter than the predicted wait is shed with a typed error.
	err := s.Decide(9, 200*time.Millisecond)
	if err == nil {
		t.Fatal("200ms deadline admitted against ~1s predicted wait")
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("shed rejection is %T, want *ShedError", err)
	}
	if !shed.Retryable() {
		t.Fatal("ShedError must be retryable")
	}
	if shed.PredictedWait < 500*time.Millisecond || shed.PredictedWait > 5*time.Second {
		t.Fatalf("PredictedWait = %v, want ~1s", shed.PredictedWait)
	}
	if shed.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, below the 1s floor", shed.RetryAfter)
	}
	if st := s.Stats(); st.Sheds != 1 {
		t.Fatalf("Stats.Sheds = %d, want 1", st.Sheds)
	}
}

func TestShedderQueueWaitFloorsPrediction(t *testing.T) {
	s := NewShedder(ShedOptions{})
	// Fast departures but observed waits are long (bursty service): the
	// reality check must floor the optimistic drain model.
	feed(s, time.Millisecond, 2*time.Second, 64)
	if got := s.PredictWait(0); got < time.Second {
		t.Fatalf("PredictWait = %v; queue-wait EWMA (2s) should floor it", got)
	}
}

func TestRetryAfterJitterAndClamp(t *testing.T) {
	s := NewShedder(ShedOptions{Seed: 7})
	feed(s, 50*time.Millisecond, 0, 64)

	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		d := s.RetryAfter(100)
		if d < minRetryAfter || d > time.Duration(float64(maxRetryAfter)*(1+jitterFrac)) {
			t.Fatalf("RetryAfter = %v outside clamp+jitter envelope", d)
		}
		seen[d] = true
	}
	if len(seen) < 8 {
		t.Fatalf("RetryAfter produced only %d distinct values over 64 draws; jitter is not spreading retries", len(seen))
	}
	// A backlog that would take hours to drain still prices a hint within
	// jitter of the upper clamp.
	for i := 0; i < 16; i++ {
		d := s.RetryAfter(1 << 20)
		if d < time.Duration(float64(maxRetryAfter)*(1-jitterFrac)) || d > time.Duration(float64(maxRetryAfter)*(1+jitterFrac)) {
			t.Fatalf("RetryAfter(huge backlog) = %v, want within jitter of %v", d, maxRetryAfter)
		}
	}

	// Deterministic under a fixed seed.
	a := NewShedder(ShedOptions{Seed: 9})
	b := NewShedder(ShedOptions{Seed: 9})
	feed(a, 50*time.Millisecond, 0, 16)
	feed(b, 50*time.Millisecond, 0, 16)
	for i := 0; i < 16; i++ {
		if da, db := a.RetryAfter(10), b.RetryAfter(10); da != db {
			t.Fatalf("draw %d: %v != %v under the same seed", i, da, db)
		}
	}
}

func TestShedderObserveStartFeedsModel(t *testing.T) {
	s := NewShedder(ShedOptions{})
	s.ObserveStart(300 * time.Millisecond)
	s.ObserveStart(300 * time.Millisecond)
	st := s.Stats()
	if st.QueueWait <= 0 {
		t.Fatal("queue-wait EWMA did not move after ObserveStart")
	}
	if st.InterDeparture < 0 {
		t.Fatal("negative inter-departure EWMA")
	}
}

func TestEWMAHalfLife(t *testing.T) {
	e := newEWMA(8)
	e.observe(1)
	for i := 0; i < 8; i++ {
		e.observe(0)
	}
	// After one half-life of zeros, the initial 1 should have decayed to
	// roughly half or below.
	if v := e.value(); v > 0.55 {
		t.Fatalf("after 8 zero observations value = %v, want <= ~0.5", v)
	}
}
