package chaos

import (
	"fmt"

	"deepum/internal/sim"
	"deepum/internal/um"
)

// This file is the always-on invariant checker the engine runs under every
// scenario (and under no scenario at all): chaos may cost performance, but
// it must never corrupt state. The checks are O(resident blocks) and run at
// iteration boundaries; a violation surfaces as a typed *InvariantError the
// engine reports through the run result (RunStatus degraded) so supervised
// callers can decide policy instead of losing the whole run.

// InvariantError is a typed invariant-checker violation. Check names the
// audit that fired ("residency", "timeline", "driver", "served") and Detail
// describes the inconsistency. It is reported through the run result rather
// than aborting the run's caller, so a supervisor can choose between
// discarding the partial measurements, alerting, or retrying.
type InvariantError struct {
	Check  string
	Detail string
}

// Error implements the error interface.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("chaos: invariant violated (%s): %s", e.Check, e.Detail)
}

// violated builds a typed violation for the named check.
func violated(check, format string, args ...any) *InvariantError {
	return &InvariantError{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// CheckResidency verifies the residency manager's accounting is balanced:
// the used-byte and block counters equal what a walk of the LRM list
// observes, every listed block is actually resident, and usage is
// non-negative. Eviction or migration bugs (double-insert, missed removal,
// byte leaks) surface here.
func CheckResidency(r *um.Residency) error {
	var bytes int64
	var count int
	var bad error
	r.WalkLRM(func(b um.BlockID) bool {
		if !r.Resident(b) {
			bad = violated("residency", "block %d is on the LRM list but not resident", b)
			return false
		}
		bytes += r.BlockResidentBytes(b)
		count++
		return true
	})
	if bad != nil {
		return bad
	}
	if bytes != r.Used() {
		return violated("residency", "accounting leak: walked %d bytes, counter says %d", bytes, r.Used())
	}
	if count != r.Count() {
		return violated("residency", "count leak: walked %d blocks, counter says %d", count, r.Count())
	}
	if r.Used() < 0 || r.Count() < 0 {
		return violated("residency", "negative residency (used %d, count %d)", r.Used(), r.Count())
	}
	return nil
}

// CheckServed verifies every faulted block of one handling cycle was
// actually served: after HandleGroups returns, each group's block must be
// resident in r, be an unallocated region that maps to a zero page, or
// appear in evictedInCycle — served and then displaced by a later group's
// eviction under extreme pressure, which the real GPU replays as a fresh
// fault. This is the "every access eventually served" guarantee — under any
// chaos scenario a fault may be slow, but it may never be lost.
func CheckServed(space *um.Space, r *um.Residency, groups []um.FaultGroup, evictedInCycle map[um.BlockID]bool) error {
	for _, g := range groups {
		if space.Block(g.Block).AllocatedPages == 0 {
			continue
		}
		if !r.Resident(g.Block) && !evictedInCycle[g.Block] {
			return violated("served", "faulted block %d left unserved after its handling cycle", g.Block)
		}
	}
	return nil
}

// CheckTimeline verifies the link timeline is well-formed (sorted,
// non-overlapping, busy-sum consistent) — the property the energy meter
// integrates over, and the one a racy double-reservation would break.
func CheckTimeline(tl *sim.Timeline) error {
	return tl.Validate()
}

// DriverChecker is implemented by driver state machines that can audit
// their own queue/protection bookkeeping (core.Driver does).
type DriverChecker interface {
	CheckInvariants() error
}

// CheckAll runs every applicable check and returns the first violation as a
// typed *InvariantError. drv may be nil (naive-UM and Ideal policies have no
// driver).
func CheckAll(r *um.Residency, tl *sim.Timeline, drv DriverChecker) error {
	if err := CheckResidency(r); err != nil {
		return err
	}
	if tl != nil {
		if err := CheckTimeline(tl); err != nil {
			return violated("timeline", "%v", err)
		}
	}
	if drv != nil {
		if err := drv.CheckInvariants(); err != nil {
			return violated("driver", "%v", err)
		}
	}
	return nil
}
