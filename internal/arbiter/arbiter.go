// Package arbiter is the shared GPU-memory arbiter behind oversubscribed
// admission. Where the strict quota path rejects any run that would push the
// aggregate committed demand past GPUMemoryBudget, the arbiter admits it and
// keeps every admitted run alive under pressure, escalating through three
// rungs (after the oversubscription-manager design of arXiv 2204.02974):
//
//  1. Soft grants. Every running run holds a guaranteed floor (a fraction of
//     the budget, never revoked while the run executes) plus a revocable
//     burst share topping the grant up to its declared demand. The ratio of
//     granted bytes to budget is folded into an EWMA pressure signal in
//     [0..1+] — smoothed exactly like internal/health's component scores —
//     which the supervisor feeds into each run's health ladder as a
//     migrator-style impulse, so pressured runs shed prefetch aggressiveness
//     (degree caps, batch caps, pre-evict off) before anyone is evicted.
//  2. Cross-run revocation. Under sustained pressure the arbiter revokes
//     burst shares one victim per tick — lowest priority class first, then
//     largest burst holder — shrinking the victim's grant to its floor. A
//     revoked run sees its personal pressure pinned to 1.0, driving its
//     ladder to the top rung; the engine honors the squeeze through the
//     existing per-level gates. Bursts are restored when pressure decays.
//  3. Suspend-to-checkpoint. When every burst is revoked and pressure still
//     holds above the suspend threshold, the arbiter names suspend victims —
//     lowest priority, then largest grant — and the supervisor checkpoints
//     them through the warm-state envelope, journals them as suspended, and
//     requeues them. Resumption is gated on raw (instantaneous, unsmoothed)
//     headroom so a suspended run is not throttled by EWMA decay latency.
//
// Like internal/health and internal/obs the package is clock-agnostic:
// timestamps are plain int64 nanoseconds on whatever clock the owner feeds
// (the supervisor feeds wall time). All methods are safe for concurrent use.
package arbiter

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Default tuning; the half-life is sized for a wall-clock supervisor tick
// of a few milliseconds.
const (
	// DefaultHalfLife is the pressure EWMA half-life in nanoseconds.
	DefaultHalfLife = int64(50_000_000) // 50ms
	// DefaultSustain is how long smoothed pressure must hold above a
	// threshold before the arbiter acts on it.
	DefaultSustain = int64(100_000_000) // 100ms
)

// Fixed tuning. Thresholds are ratios of granted bytes to budget.
const (
	// floorFraction is each run's guaranteed floor as a fraction of the
	// budget. 0.25 means four floors fill the device exactly.
	floorFraction = 0.25
	// revokeAt: smoothed pressure that starts burst revocation.
	revokeAt = 0.85
	// suspendAt: smoothed pressure that starts suspensions once no bursts
	// remain. Above 1.0 so floors that exactly fill the budget are stable
	// (hysteresis against the resume gate at resumeAt).
	suspendAt = 1.05
	// resumeAt: raw post-resume pressure a resumption may reach.
	resumeAt = 1.0
)

// Options tune an Arbiter. Budget must be positive; the zero value of every
// other field selects the defaults above.
type Options struct {
	// Budget is the shared GPU memory budget in bytes.
	Budget int64
	// HalfLife is the pressure EWMA half-life in nanoseconds.
	HalfLife int64
	// Sustain is how long (ns) smoothed pressure must hold above revokeAt /
	// suspendAt before the arbiter revokes / suspends.
	Sustain int64
}

func (o Options) withDefaults() Options {
	if o.HalfLife <= 0 {
		o.HalfLife = DefaultHalfLife
	}
	if o.Sustain <= 0 {
		o.Sustain = DefaultSustain
	}
	return o
}

// grant is one running run's share of the budget.
type grant struct {
	id         uint64
	priority   int
	demand     int64
	floor      int64 // guaranteed while running
	burst      int64 // current revocable share (0 after revocation)
	fullBurst  int64 // burst as originally granted
	revoked    bool  // burst revoked; personal pressure pinned to 1
	suspending bool  // named a suspend victim; awaiting Release
}

// Decision is what one Tick resolved: burst revocations and restorations
// already applied to the ledger, and runs the owner must now suspend
// (checkpoint + requeue, then Release).
type Decision struct {
	Revoked  []uint64
	Restored []uint64
	Suspend  []uint64
}

// Stats is a point-in-time arbiter snapshot.
type Stats struct {
	Budget  int64 `json:"budget"`
	Granted int64 `json:"granted"` // floors + bursts of running runs
	Floors  int64 `json:"floors"`
	Bursts  int64 `json:"bursts"`
	Running int   `json:"running"`
	// Pressure is the smoothed signal clamped to [0,1]; Raw is the
	// instantaneous granted/budget ratio (exceeds 1 when oversubscribed).
	Pressure    float64 `json:"pressure"`
	Raw         float64 `json:"raw_pressure"`
	Revocations int64   `json:"revocations"`
	Restores    int64   `json:"restores"`
	Suspensions int64   `json:"suspensions"`
	Grants      int64   `json:"grants"`
	Releases    int64   `json:"releases"`
}

// Arbiter is the grant ledger and pressure controller. Construct with New;
// a nil *Arbiter is the oversubscription-off mode: every method no-ops and
// every gate answers permissively, mirroring the nil-controller convention.
type Arbiter struct {
	mu  sync.Mutex
	opt Options

	grants  map[uint64]*grant
	granted int64 // sum of floor+burst over grants

	smoothed float64 // EWMA of raw pressure
	lastTS   int64   // clock of the last smoothing step

	revokeSince  int64 // when smoothed first held >= revokeAt (0 = below)
	suspendSince int64 // when smoothed first held >= suspendAt (0 = below)

	revocations, restores, suspensions int64
	grantCount, releaseCount           int64
}

// New builds an arbiter over the given budget. Returns an error when the
// budget is not positive — an arbiter without a budget is meaningless; run
// with a nil *Arbiter instead to disable oversubscription.
func New(opt Options) (*Arbiter, error) {
	if opt.Budget <= 0 {
		return nil, fmt.Errorf("arbiter: budget must be positive, got %d", opt.Budget)
	}
	return &Arbiter{opt: opt.withDefaults(), grants: map[uint64]*grant{}}, nil
}

// FloorOf returns the guaranteed floor a run with the given demand would
// hold: min(demand, floorFraction*Budget).
func (a *Arbiter) FloorOf(demand int64) int64 {
	if a == nil || demand <= 0 {
		return 0
	}
	f := int64(floorFraction * float64(a.opt.Budget))
	if demand < f {
		return demand
	}
	return f
}

// Acquire records a soft grant — floor plus burst up to the declared demand
// — for a run entering execution. It always succeeds: admission control is
// the owner's queue, not the ledger. ts is the owner's clock in ns.
func (a *Arbiter) Acquire(ts int64, id uint64, demand int64, priority int) {
	if a == nil {
		return
	}
	floor := a.FloorOf(demand)
	burst := demand - floor
	if burst < 0 {
		burst = 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stepLocked(ts)
	if old, ok := a.grants[id]; ok {
		// Re-acquire (a resumed run): replace the stale grant.
		a.granted -= old.floor + old.burst
	}
	a.grants[id] = &grant{id: id, priority: priority, demand: demand, floor: floor, burst: burst, fullBurst: burst}
	a.granted += floor + burst
	a.grantCount++
}

// Release drops a run's grant when it leaves execution (finished, failed,
// cancelled, or suspended).
func (a *Arbiter) Release(ts int64, id uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	g, ok := a.grants[id]
	if !ok {
		return
	}
	a.stepLocked(ts)
	delete(a.grants, id)
	a.granted -= g.floor + g.burst
	a.releaseCount++
}

// Pressure returns the smoothed pressure signal clamped to [0,1].
func (a *Arbiter) Pressure() float64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return clamp01(a.smoothed)
}

// PressureFor returns the pressure signal a specific run should fold into
// its health ladder: the global smoothed signal, pinned to 1.0 while the
// run's burst is revoked (the squeeze must reach the top rung even if the
// aggregate has relaxed since).
func (a *Arbiter) PressureFor(id uint64) float64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if g, ok := a.grants[id]; ok && g.revoked {
		return 1
	}
	return clamp01(a.smoothed)
}

// CanResume reports whether a suspended run with the given demand may
// re-enter execution now. The gate is raw, instantaneous headroom — not the
// EWMA — so resumption is not delayed by decay latency: the run's floor must
// fit under resumeAt×Budget alongside the currently granted bytes.
func (a *Arbiter) CanResume(demand int64) bool {
	if a == nil {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return float64(a.granted+a.FloorOf(demand)) <= resumeAt*float64(a.opt.Budget)
}

// Tick advances the pressure clock and resolves the escalation ladder for
// this instant. Revocations and restorations are applied to the ledger
// before Tick returns; suspend victims are only *named* — the owner
// checkpoints and requeues them, then calls Release.
func (a *Arbiter) Tick(ts int64) Decision {
	if a == nil {
		return Decision{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stepLocked(ts)
	var d Decision

	// Rung 2: sustained pressure over revokeAt revokes one burst per tick;
	// decayed pressure under revokeAt/2 restores one per tick.
	switch {
	case a.smoothed >= revokeAt:
		if a.revokeSince == 0 {
			a.revokeSince = ts
		} else if ts-a.revokeSince >= a.opt.Sustain {
			if g := a.revokeVictimLocked(); g != nil {
				a.granted -= g.burst
				g.burst, g.revoked = 0, true
				a.revocations++
				d.Revoked = append(d.Revoked, g.id)
			}
		}
	case a.smoothed < revokeAt/2:
		a.revokeSince = 0
		if g := a.restoreCandidateLocked(); g != nil {
			g.burst, g.revoked = g.fullBurst, false
			a.granted += g.burst
			a.restores++
			d.Restored = append(d.Restored, g.id)
		}
	default:
		a.revokeSince = 0
	}

	// Rung 3: bursts exhausted and pressure still sustained over suspendAt
	// names one suspend victim per tick.
	if a.smoothed >= suspendAt {
		if a.suspendSince == 0 {
			a.suspendSince = ts
		} else if ts-a.suspendSince >= a.opt.Sustain && !a.anyBurstLocked() {
			if g := a.suspendVictimLocked(); g != nil {
				g.suspending = true
				a.suspensions++
				d.Suspend = append(d.Suspend, g.id)
			}
		}
	} else {
		a.suspendSince = 0
	}
	return d
}

// Stats snapshots the ledger.
func (a *Arbiter) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Stats{
		Budget:      a.opt.Budget,
		Granted:     a.granted,
		Running:     len(a.grants),
		Pressure:    clamp01(a.smoothed),
		Raw:         a.rawLocked(),
		Revocations: a.revocations,
		Restores:    a.restores,
		Suspensions: a.suspensions,
		Grants:      a.grantCount,
		Releases:    a.releaseCount,
	}
	for _, g := range a.grants {
		st.Floors += g.floor
		st.Bursts += g.burst
	}
	return st
}

// --- internals --------------------------------------------------------------

func (a *Arbiter) rawLocked() float64 {
	return float64(a.granted) / float64(a.opt.Budget)
}

// stepLocked advances the EWMA toward the current raw pressure. Like
// health.decayAll, time never runs backwards.
func (a *Arbiter) stepLocked(ts int64) {
	if ts <= a.lastTS {
		return
	}
	if a.lastTS != 0 {
		dt := float64(ts - a.lastTS)
		k := 1 - math.Exp2(-dt/float64(a.opt.HalfLife))
		a.smoothed += (a.rawLocked() - a.smoothed) * k
	} else {
		a.smoothed = a.rawLocked()
	}
	a.lastTS = ts
}

// revokeVictimLocked picks the burst to revoke: lowest priority class first,
// then largest burst holder. Nil when no revocable burst remains.
func (a *Arbiter) revokeVictimLocked() *grant {
	var v *grant
	for _, g := range a.sortedLocked() {
		if g.burst <= 0 || g.suspending {
			continue
		}
		if v == nil || g.priority < v.priority || (g.priority == v.priority && g.burst > v.burst) {
			v = g
		}
	}
	return v
}

// restoreCandidateLocked picks the revoked burst to restore: highest
// priority first, then smallest burst (the cheapest to re-grant).
func (a *Arbiter) restoreCandidateLocked() *grant {
	var v *grant
	for _, g := range a.sortedLocked() {
		if !g.revoked || g.suspending || g.fullBurst <= 0 {
			continue
		}
		if v == nil || g.priority > v.priority || (g.priority == v.priority && g.fullBurst < v.fullBurst) {
			v = g
		}
	}
	return v
}

// suspendVictimLocked picks the run to suspend: lowest priority class, then
// largest grant. Zero-grant runs are never victims — suspending them frees
// nothing.
func (a *Arbiter) suspendVictimLocked() *grant {
	var v *grant
	for _, g := range a.sortedLocked() {
		if g.suspending || g.floor+g.burst <= 0 {
			continue
		}
		if v == nil || g.priority < v.priority ||
			(g.priority == v.priority && g.floor+g.burst > v.floor+v.burst) {
			v = g
		}
	}
	return v
}

func (a *Arbiter) anyBurstLocked() bool {
	for _, g := range a.grants {
		if g.burst > 0 && !g.suspending {
			return true
		}
	}
	return false
}

// sortedLocked returns grants in deterministic (run-ID) order so victim
// selection ties break identically across runs of the same schedule.
func (a *Arbiter) sortedLocked() []*grant {
	out := make([]*grant, 0, len(a.grants))
	for _, g := range a.grants {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
