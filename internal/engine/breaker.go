package engine

import (
	"fmt"
	"time"

	"deepum/internal/obs"
	"deepum/internal/sim"
)

// The prefetch circuit breaker. Prefetching is a pure optimization: when the
// link is so unhealthy that prefetch transfers keep failing, continuing to
// issue them wastes link occupancy and backoff time that the demand path —
// which cannot give up — then has to wait behind. After breakerThreshold
// consecutive failed prefetch-transfer attempts the breaker opens and the
// run falls back to pure on-demand faulting (correct, merely slower — the
// same graceful-degradation contract as the rest of the chaos hardening).
// After a cooldown in virtual time it half-opens and probes with real
// prefetches; one delivered transfer closes it, one failure reopens it.
// Every transition is recorded in the breaker's own log for post-run audit,
// and a run whose breaker ever opened finishes as StatusDegraded.

// Breaker state names, as reported in BreakerStats and the transition log.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

const (
	// breakerThreshold is the consecutive-failure count that opens the
	// breaker. The chaos injector's default MaxConsecutiveFails is 4, so
	// the builtin scenarios degrade via retries without ever tripping it;
	// only a genuinely wedged link does.
	breakerThreshold = 8
	// breakerCooldown is the virtual time the breaker stays open before
	// probing again — long enough to skip past a transient outage, short
	// enough to re-enable prefetching within an iteration.
	breakerCooldown = sim.Duration(500 * time.Microsecond)
)

// BreakerStats snapshots the prefetch circuit breaker for the run result.
type BreakerStats struct {
	Threshold int
	Cooldown  sim.Duration
	// State is the breaker's state when the run ended.
	State string
	// Opens counts closed/half-open -> open transitions.
	Opens int64
	// EverOpened is true when the breaker tripped at least once; it marks
	// the run StatusDegraded.
	EverOpened bool
	// ShortCircuited counts prefetch opportunities skipped while open.
	ShortCircuited int64
	// Transitions is the full state-transition log, in order.
	Transitions []BreakerTransition
}

// BreakerTransition is one breaker state change, stamped in virtual time.
type BreakerTransition struct {
	At       sim.Time
	From, To string
	Reason   string
}

// prefetchBreaker is the engine's breaker state machine. All methods are
// nil-safe: a nil breaker (non-DeepUM policies) always allows and records
// nothing, mirroring the nil-injector convention in internal/chaos.
type prefetchBreaker struct {
	state       string
	consecFails int
	openedAt    sim.Time
	opens       int64
	short       int64
	log         []BreakerTransition

	// obs, when attached, receives a breaker event per transition.
	obs *obs.Recorder
	// onTransition, when attached, feeds transitions to the health
	// controller (the breaker is one ladder input, see internal/health).
	onTransition func(now sim.Time, from, to string)
}

func newPrefetchBreaker() *prefetchBreaker {
	return &prefetchBreaker{state: BreakerClosed}
}

// allow reports whether prefetch work may proceed at virtual time now. In
// the open state it counts the short-circuited opportunity, unless the
// cooldown has elapsed — then it half-opens and lets one probe through.
func (b *prefetchBreaker) allow(now sim.Time) bool {
	if b == nil {
		return true
	}
	if b.state != BreakerOpen {
		return true
	}
	if now.Sub(b.openedAt) >= breakerCooldown {
		b.transition(now, BreakerHalfOpen, "cooldown elapsed, probing")
		return true
	}
	b.short++
	return false
}

// success records a delivered prefetch transfer.
func (b *prefetchBreaker) success(now sim.Time) {
	if b == nil {
		return
	}
	b.consecFails = 0
	if b.state == BreakerHalfOpen {
		b.transition(now, BreakerClosed, "probe transfer delivered")
	}
}

// failure records one failed prefetch-transfer attempt.
func (b *prefetchBreaker) failure(now sim.Time) {
	if b == nil {
		return
	}
	b.consecFails++
	switch b.state {
	case BreakerHalfOpen:
		b.open(now, "probe transfer failed")
	case BreakerClosed:
		if b.consecFails >= breakerThreshold {
			b.open(now, fmt.Sprintf("%d consecutive prefetch-transfer failures", b.consecFails))
		}
	}
}

func (b *prefetchBreaker) open(now sim.Time, reason string) {
	b.openedAt = now
	b.opens++
	b.transition(now, BreakerOpen, reason)
}

func (b *prefetchBreaker) transition(now sim.Time, to, reason string) {
	b.log = append(b.log, BreakerTransition{At: now, From: b.state, To: to, Reason: reason})
	if b.obs != nil {
		b.obs.Instant(obs.KindBreaker, obs.TrackBreaker, int64(now), b.state+"->"+to, 0, 0, 0)
	}
	if b.onTransition != nil {
		b.onTransition(now, b.state, to)
	}
	b.state = to
}

// snapshot freezes the breaker into the run result.
func (b *prefetchBreaker) snapshot() BreakerStats {
	if b == nil {
		return BreakerStats{}
	}
	return BreakerStats{
		Threshold:      breakerThreshold,
		Cooldown:       breakerCooldown,
		State:          b.state,
		Opens:          b.opens,
		EverOpened:     b.opens > 0,
		ShortCircuited: b.short,
		Transitions:    b.log,
	}
}
