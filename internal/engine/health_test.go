package engine

import (
	"testing"

	"deepum/internal/chaos"
	"deepum/internal/health"
)

// TestLadderEquivalence is the monotone-safety acceptance test: every rung
// of the degradation ladder trades speculation for safety but must never
// change WHAT the GPU computes — the ordered access stream (and therefore
// its checksum) is bit-identical from L0 (full prefetch + pre-eviction)
// down to L3 (pure demand faulting), on a clean substrate, with the
// invariant checker green throughout.
func TestLadderEquivalence(t *testing.T) {
	p := lifecycleProgram(t)
	base := lifecycleConfig(p)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.AccessChecksum == 0 {
		t.Fatal("baseline run produced no access checksum")
	}
	for l := health.L0; l <= health.L3; l++ {
		l := l
		t.Run(l.String(), func(t *testing.T) {
			cfg := lifecycleConfig(p)
			cfg.Health = health.Fixed(l)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A level pinned above L0 reports StatusDegraded by definition
			// (MaxLevel > L0); the run itself must still be clean.
			want := StatusCompleted
			if l > health.L0 {
				want = StatusDegraded
			}
			if res.Status != want {
				t.Fatalf("status %v, want %v (invariant: %v)", res.Status, want, res.Invariant)
			}
			if res.Invariant != nil {
				t.Fatalf("invariant violation at %s: %v", l, res.Invariant)
			}
			if res.AccessChecksum != ref.AccessChecksum {
				t.Fatalf("access checksum at %s = %#x, baseline %#x — degradation changed the computation",
					l, res.AccessChecksum, ref.AccessChecksum)
			}
			if res.Iterations != base.Iterations {
				t.Fatalf("completed %d iterations, want %d", res.Iterations, base.Iterations)
			}
			// Sanity on the trade itself: L3 must actually fault more than
			// L0 (it disabled all speculation), or the gates aren't wired.
			if l == health.L3 && res.FaultsPerIter <= ref.FaultsPerIter {
				t.Fatalf("L3 faults/iter %d not above L0's %d — ladder gates inert",
					res.FaultsPerIter, ref.FaultsPerIter)
			}
		})
	}
}

// TestBreakerFlappingBounded: on a wedged link the raw circuit breaker
// flaps as fast as it can — every half-open probe fails and reopens it,
// once per cooldown. With the health ladder driving,
// the oscillation is bounded two ways: the ladder itself moves at most one
// rung per dwell (with recovery additionally rate-limited by the probe
// interval), and by parking at L3 it suspends the prefetch probe loop, so
// the breaker flips far less than it does fending for itself.
func TestBreakerFlappingBounded(t *testing.T) {
	wedged := func(hc *health.Controller) *Result {
		cfg := lifecycleConfig(lifecycleProgram(t))
		cfg.Chaos = chaos.NewInjector(chaos.Scenario{
			Name:                "wedged-link",
			TransferFailProb:    0.9,
			MaxConsecutiveFails: 64,
		}, 1)
		cfg.Health = hc
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusDegraded {
			t.Fatalf("status %v, want degraded", res.Status)
		}
		if res.Iterations != cfg.Iterations {
			t.Fatalf("run did not complete under the flapping breaker: %d/%d iterations",
				res.Iterations, cfg.Iterations)
		}
		return res
	}

	solo := wedged(nil)
	if !solo.Breaker.EverOpened || solo.Breaker.Opens < 10 {
		t.Fatalf("ladderless breaker did not flap (opens=%d) — the scenario no longer exercises oscillation",
			solo.Breaker.Opens)
	}

	hc := health.NewController(health.Options{})
	laddered := wedged(hc)
	trans := hc.Transitions()
	if len(trans) == 0 || hc.MaxLevel() < health.L2 {
		t.Fatalf("ladder never engaged: max %s, %d transitions", hc.MaxLevel(), len(trans))
	}
	// Damping: with the ladder cutting speculation off, the breaker flips
	// far less often than when it is the only adaptive mechanism. (The runs
	// have different virtual lengths, so compare with headroom, not 1:1.)
	if laddered.Breaker.Opens*3 >= solo.Breaker.Opens*2 {
		t.Fatalf("ladder did not damp the breaker: %d opens with vs %d without",
			laddered.Breaker.Opens, solo.Breaker.Opens)
	}
	// Rate bound: moves are dwell-spaced and single-rung, and consecutive
	// de-escalations are at least one probe interval apart.
	lastProbe := int64(-1)
	for i, tr := range trans {
		d := int(tr.To) - int(tr.From)
		if d != 1 && d != -1 {
			t.Fatalf("transition %d jumps %s->%s", i, tr.FromName, tr.ToName)
		}
		if i > 0 && tr.At-trans[i-1].At < int64(health.DefaultDwell) {
			t.Fatalf("transitions %d and %d only %dns apart (dwell %dns)",
				i-1, i, tr.At-trans[i-1].At, health.DefaultDwell)
		}
		if d == -1 {
			if lastProbe >= 0 && tr.At-lastProbe < int64(health.DefaultProbeInterval) {
				t.Fatalf("recovery probes %dns apart (interval %dns)",
					tr.At-lastProbe, health.DefaultProbeInterval)
			}
			lastProbe = tr.At
		}
	}
}
