package core

import (
	"testing"

	"deepum/internal/health"
	"deepum/internal/policy"
	"deepum/internal/um"

	// Register every built-in policy, not only the default.
	_ "deepum/internal/policy/gpuvm"
	_ "deepum/internal/policy/learned"
)

// TestL3QueuesNothing: at L3 the gate's DegreeCap is 0, which every
// registered policy's Next takes as Pause, and SpeculativeRequeue is false,
// so the driver queues nothing on a fault restart, a kernel completion or
// an eviction requeue. The same stream at L0 must queue commands, or the
// check would pass vacuously.
func TestL3QueuesNothing(t *testing.T) {
	names := policy.Names()
	if len(names) < 3 {
		t.Fatalf("registered policies = %v, want all three built-ins", names)
	}
	for _, name := range names {
		for _, level := range []health.Level{health.L0, health.L3} {
			opts := DefaultOptions()
			opts.Policy = name
			d := newDriver(t, opts)
			d.SetHealthGate(health.Fixed(level))
			for iter := 0; iter < 3; iter++ {
				trainIteration(d)
				d.KernelLaunch(0)
				d.OnFault(10)
				d.NoteEviction(11)
				d.KernelComplete(0)
				for _, b := range []um.BlockID{11, 12, 20} {
					d.TakeQueued(b)
				}
				drainQueue(d)
			}
			issued := d.Stats.PrefetchIssued
			switch {
			case level == health.L3 && (issued != 0 || d.PendingPrefetches() != 0):
				t.Errorf("%s at L3: %d commands issued, %d pending; want none", name, issued, d.PendingPrefetches())
			case level == health.L0 && issued == 0:
				t.Errorf("%s at L0: no command issued; the stream does not exercise the policy", name)
			}
		}
	}
}
