// Package health is the closed-loop health controller of the UM substrate.
// It consumes the degradation telemetry the rest of the system already
// produces — link transfer failures and retries, prefetch waste and late
// hits, fault-batch latency, circuit-breaker transitions, migration-thread
// stalls, memory pressure — folds each signal into a windowed EWMA health
// score per component (link, prefetcher, migrator), and drives a graduated
// degradation ladder:
//
//	L0  full prefetch + pre-eviction (the paper's headline configuration)
//	L1  chained-correlation-only prefetch: speculative re-queueing of
//	    evicted predictions stops and the chaining degree is halved
//	L2  shrunken prefetch batches (degree floor), pre-eviction disabled,
//	    fault batches capped so handler cycles stay short
//	L3  pure demand faulting: no speculation at all, stock LRM eviction
//
// Escalation is hysteretic: a level is only raised when the worst component
// score crosses upThreshold AND the controller has dwelt at the current
// level for at least Dwell; recovery is probed, not assumed — once scores
// decay under downThreshold the controller walks back down ONE level per
// ProbeInterval, so a flapping fault source cannot make the ladder oscillate
// faster than the dwell/probe clock.
//
// The controller subsumes the engine's prefetch circuit breaker: a breaker
// opening is one (severe) link-health input rather than the only adaptive
// mechanism. Every degradation decision trades speculation for safety and
// never touches the demand path, so correctness is level-invariant — the
// engine's equivalence tests pin a bit-identical GPU access sequence at
// every forced ladder level.
//
// Like internal/obs, the package is clock-agnostic: timestamps are plain
// int64 nanoseconds on whatever clock the owner feeds (the engine feeds
// virtual, simulated time). All methods are safe for concurrent use and
// nil-safe — a nil *Controller (health monitoring off) answers every gate
// permissively, mirroring the nil-injector and nil-recorder conventions.
package health

import (
	"fmt"
	"math"
	"sync"

	"deepum/internal/obs"
)

// Level is a rung of the degradation ladder. Higher levels trade more
// speculation away for stability; L3 is pure on-demand faulting.
type Level uint8

// Ladder levels, mildest first.
const (
	L0 Level = iota // full prefetch + pre-eviction
	L1              // chained-correlation-only prefetch, halved degree
	L2              // shrunken batches, pre-eviction off
	L3              // pure demand
	numLevels
)

func (l Level) String() string {
	if l < numLevels {
		return fmt.Sprintf("L%d", uint8(l))
	}
	return "L?"
}

// LevelByName is the inverse of Level.String.
func LevelByName(s string) (Level, bool) {
	for l := L0; l < numLevels; l++ {
		if l.String() == s {
			return l, true
		}
	}
	return L0, false
}

// Component identifies one scored subsystem.
type Component uint8

// Scored components.
const (
	Link       Component = iota // transfer failures, retries, breaker opens
	Prefetcher                  // waste, late hits, give-ups
	Migrator                    // fault-batch latency, stalls, memory pressure
	numComponents
)

func (c Component) String() string {
	switch c {
	case Link:
		return "link"
	case Prefetcher:
		return "prefetcher"
	case Migrator:
		return "migrator"
	}
	return "unknown"
}

// Default tuning. The virtual-time constants are sized against the engine's
// event scale (fault cycles are tens of microseconds, iterations are
// milliseconds): scores forget a failure burst within a few hundred
// microseconds, the ladder moves at most one level per dwell, and a fully
// degraded run walks back to L0 within roughly a millisecond of clean
// operation.
const (
	DefaultHalfLife      = int64(50_000)  // 50us score half-life
	DefaultDwell         = int64(100_000) // 100us minimum between escalations
	DefaultProbeInterval = int64(250_000) // 250us between recovery probes
)

// The ladder's hysteresis: the worst component score escalates at
// upThreshold and allows recovery probes at or under downThreshold.
const (
	upThreshold   = 0.6
	downThreshold = 0.15
)

// Impulse weights: how hard one observation of each signal pushes its
// component's score toward 1. Scores are clamped to [0,1], so weights
// express "how many of these in one half-life mean trouble".
const (
	wTransferFail   = 0.30 // one failed transfer attempt
	wPrefetchRetry  = 0.10 // a retried prefetch attempt
	wPrefetchGiveUp = 0.20 // a prefetch abandoned to demand faulting
	wPrefetchWaste  = 0.08 // a prefetched block evicted unused
	wLateHit        = 0.05 // a prefetch the GPU still stalled on
	wBreakerOpen    = 0.90 // the circuit breaker tripping
	wSlowFaultBatch = 0.25 // a handler cycle far over its running mean
	wMigratorStall  = 0.30 // an injected/observed migration-thread stall
	// wPressure scales the sampled memory-pressure gauge (0..1) into a
	// migrator impulse. Sampled once per half-life, a sustained gauge of p
	// holds the score near 2·wPressure·p, so full pressure (1.0) crosses
	// upThreshold while moderate pressure (≤0.8) does not.
	wPressure = 0.35
)

// slowBatchFactor is how far over the running-mean duration a fault batch
// must be to count as a migrator-health impulse, and slowBatchMinSamples is
// how many batches establish the baseline first.
const (
	slowBatchFactor     = 4.0
	slowBatchMinSamples = 8
)

// Options tune a Controller. The zero value selects the defaults above.
type Options struct {
	// HalfLife is the EWMA score half-life in nanoseconds (on whatever
	// clock the owner feeds the controller).
	HalfLife int64
	// Dwell is the minimum nanoseconds between ladder moves in either
	// direction — the flap damper.
	Dwell int64
	// ProbeInterval is the minimum nanoseconds between recovery probes
	// (de-escalations); recovery walks down one level per probe.
	ProbeInterval int64
	// OnTransition, when set, is called (with the controller unlocked) for
	// every ladder transition — the live-monitoring hook the supervisor's
	// Prometheus export rides on.
	OnTransition func(Transition)
	// Pressure, when set, is a memory-pressure gauge in [0,1] (the
	// arbiter's EWMA-smoothed grant pressure). The controller samples it at
	// most once per half-life on its own clock and folds the reading into
	// the migrator score as a wPressure-weighted impulse, so a pressured
	// run sheds prefetch aggressiveness through the ordinary ladder gates
	// before the arbiter has to revoke or suspend anyone.
	Pressure func() float64
}

func (o Options) withDefaults() Options {
	if o.HalfLife <= 0 {
		o.HalfLife = DefaultHalfLife
	}
	if o.Dwell <= 0 {
		o.Dwell = DefaultDwell
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	return o
}

// Transition is one ladder move.
type Transition struct {
	// At is the controller-clock timestamp (ns) of the move.
	At int64 `json:"at_ns"`
	// From and To are adjacent ladder levels — the controller never jumps.
	From Level `json:"-"`
	To   Level `json:"-"`
	// FromName/ToName are the JSON-friendly level names.
	FromName string `json:"from"`
	ToName   string `json:"to"`
	// Component is the subsystem whose score drove an escalation; for
	// recovery probes it is the (recovered) worst component.
	Component string `json:"component"`
	// Reason is a human-readable explanation.
	Reason string `json:"reason"`
}

// Report is the JSON-friendly end-of-run health summary carried on run
// results and supervisor outcomes.
type Report struct {
	// Level is the ladder level when the report was taken; a converged run
	// reports "L0".
	Level string `json:"level"`
	// MaxLevel is the highest rung the run ever reached — what marks a
	// completed run StatusDegraded when above L0.
	MaxLevel string `json:"max_level"`
	// Transitions counts ladder moves; TransitionLog lists them in order.
	Transitions   int          `json:"transitions"`
	TransitionLog []Transition `json:"transition_log,omitempty"`
	// Scores are the final (decayed) component scores; PeakScores the
	// per-component maxima observed.
	Scores     map[string]float64 `json:"scores,omitempty"`
	PeakScores map[string]float64 `json:"peak_scores,omitempty"`
	// Impulses counts degradation signals folded into the scores.
	Impulses int64 `json:"impulses"`
}

// MaxLevelValue parses Report.MaxLevel back into a Level (L0 when absent).
func (r *Report) MaxLevelValue() Level {
	if r == nil {
		return L0
	}
	l, _ := LevelByName(r.MaxLevel)
	return l
}

// Controller is the ladder state machine. Construct with NewController (or
// Fixed, for tests pinning a level); a nil *Controller is the monitoring-off
// mode and answers every query permissively.
type Controller struct {
	mu  sync.Mutex
	opt Options

	level, maxLevel Level
	lastMove        int64 // ts of the last ladder move
	lastProbe       int64 // ts of the last recovery probe
	frozen          bool  // Fixed(): never transitions

	scores [numComponents]float64
	peak   [numComponents]float64
	lastTS [numComponents]int64

	transitions []Transition
	impulses    int64

	// Running fault-batch latency baseline for slow-batch detection.
	batchMean float64
	batchN    int64

	// lastPressure throttles Options.Pressure sampling to once per
	// half-life.
	lastPressure int64

	// rec, when attached, receives a KindHealth event per transition and
	// per significant score movement, on TrackHealth.
	rec *obs.Recorder
	// scoreBucket throttles score-sample emission: one event per component
	// per 1/8th-of-scale bucket crossing.
	scoreBucket [numComponents]int
}

// NewController builds a controller at L0 with the given options.
func NewController(opt Options) *Controller {
	return &Controller{opt: opt.withDefaults()}
}

// Fixed returns a controller frozen at the given level: it scores signals
// and reports normally but never transitions. The ladder-equivalence tests
// use it to pin each rung.
func Fixed(l Level) *Controller {
	c := NewController(Options{})
	if l >= numLevels {
		l = L3
	}
	c.level, c.maxLevel, c.frozen = l, l, true
	return c
}

// SetObserver attaches the tracing recorder health events are emitted into.
func (c *Controller) SetObserver(rec *obs.Recorder) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.rec = rec
	c.mu.Unlock()
}

// --- ladder gates (nil-safe, read-only) ------------------------------------

// Level returns the current rung (L0 for a nil controller).
func (c *Controller) Level() Level {
	if c == nil {
		return L0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// MaxLevel returns the highest rung ever reached.
func (c *Controller) MaxLevel() Level {
	if c == nil {
		return L0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxLevel
}

// AllowPrefetch reports whether any prefetch work (queued-command takeover,
// background streaming) may run: false only at L3.
func (c *Controller) AllowPrefetch() bool { return c.Level() < L3 }

// AllowPreevict reports whether background pre-eviction may run: false from
// L2 up.
func (c *Controller) AllowPreevict() bool { return c.Level() < L2 }

// SpeculativeRequeue reports whether the driver may re-queue evicted
// protected blocks (prediction-driven speculation beyond the chain): false
// from L1 up — L1 is chained-correlation-only prefetching.
func (c *Controller) SpeculativeRequeue() bool { return c.Level() < L1 }

// DegreeCap bounds the effective prefetch chaining degree for the current
// level: full at L0, halved at L1, floored to 1 at L2, zero at L3. Every
// policy pauses on a cap below 1, so nothing is queued at L3.
func (c *Controller) DegreeCap(base int) int {
	switch c.Level() {
	case L0:
		return base
	case L1:
		return max(1, base/2)
	case L2:
		return 1
	default:
		return 0
	}
}

// FaultBatchCap bounds how many UM blocks one fault-handling cycle covers:
// unlimited through L1, halved at L2, quartered at L3 — sick-substrate runs
// take smaller bites so each handler cycle stays short and interruptible.
func (c *Controller) FaultBatchCap(base int) int {
	switch c.Level() {
	case L0, L1:
		return base
	case L2:
		return max(1, base/2)
	default:
		return max(1, base/4)
	}
}

// UseFallbackEviction reports whether victim selection should ignore the
// driver's protected-set predictions and use plain LRM: true at L3, where
// predictions are unhonored speculation.
func (c *Controller) UseFallbackEviction() bool { return c.Level() >= L3 }

// --- signal inputs ----------------------------------------------------------

// ObserveTransferFailure folds one failed prefetch-transfer attempt.
func (c *Controller) ObserveTransferFailure(ts int64) { c.impulse(ts, Link, wTransferFail) }

// ObserveTransferSuccess records a delivered transfer: no impulse, but the
// decay clock advances and the ladder is re-evaluated (this is how recovery
// probes fire during clean operation).
func (c *Controller) ObserveTransferSuccess(ts int64) { c.Tick(ts) }

// ObservePrefetchRetry folds one prefetch retry attempt.
func (c *Controller) ObservePrefetchRetry(ts int64) { c.impulse(ts, Link, wPrefetchRetry) }

// ObservePrefetchGiveUp folds one prefetch abandoned to demand faulting.
func (c *Controller) ObservePrefetchGiveUp(ts int64) { c.impulse(ts, Prefetcher, wPrefetchGiveUp) }

// ObservePrefetchWaste folds one prefetched-but-never-used eviction.
func (c *Controller) ObservePrefetchWaste(ts int64) { c.impulse(ts, Prefetcher, wPrefetchWaste) }

// ObserveLateHit folds one prefetch hit the GPU still had to stall on
// (negative lead time).
func (c *Controller) ObserveLateHit(ts int64) { c.impulse(ts, Prefetcher, wLateHit) }

// ObserveBreaker folds a circuit-breaker transition: an opening is a severe
// link signal; other transitions merely advance the clock.
func (c *Controller) ObserveBreaker(ts int64, from, to string) {
	if c == nil {
		return
	}
	if to == "open" {
		c.impulse(ts, Link, wBreakerOpen)
		return
	}
	c.Tick(ts)
}

// ObserveFaultBatch folds one fault-handling cycle's latency: cycles far
// over the running mean are a migrator-health impulse.
func (c *Controller) ObserveFaultBatch(ts, durNs int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	slow := false
	if c.batchN >= slowBatchMinSamples && float64(durNs) > slowBatchFactor*c.batchMean {
		slow = true
	}
	// Running mean over all batches (slow ones included, so a persistently
	// slow handler raises its own baseline instead of alarming forever).
	c.batchN++
	c.batchMean += (float64(durNs) - c.batchMean) / float64(c.batchN)
	c.mu.Unlock()
	if slow {
		c.impulse(ts, Migrator, wSlowFaultBatch)
	} else {
		c.Tick(ts)
	}
}

// ObserveMigratorStall folds one migration-thread stall.
func (c *Controller) ObserveMigratorStall(ts, durNs int64) { c.impulse(ts, Migrator, wMigratorStall) }

// Tick advances the controller's clock without an impulse: scores decay and
// the ladder is re-evaluated (escalation on stale-but-high scores, recovery
// probes on decayed ones). The engine calls it at kernel boundaries.
func (c *Controller) Tick(ts int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.decayAll(ts)
	c.samplePressureLocked(ts)
	t := c.stepLocked(ts)
	c.mu.Unlock()
	c.fire(t)
}

// impulse folds one weighted degradation signal and re-evaluates the ladder.
func (c *Controller) impulse(ts int64, comp Component, w float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.decayAll(ts)
	c.samplePressureLocked(ts)
	c.addLocked(ts, comp, w)
	t := c.stepLocked(ts)
	c.mu.Unlock()
	c.fire(t)
}

// addLocked folds one weighted impulse into a component score; caller holds
// mu and has already decayed to ts.
func (c *Controller) addLocked(ts int64, comp Component, w float64) {
	c.impulses++
	s := c.scores[comp] + w
	if s > 1 {
		s = 1
	}
	c.scores[comp] = s
	if s > c.peak[comp] {
		c.peak[comp] = s
	}
	c.emitScoreLocked(ts, comp)
}

// samplePressureLocked reads the memory-pressure gauge at most once per
// half-life and folds it into the migrator score; caller holds mu. The
// gauge is called under the lock and must not call back into the
// controller.
func (c *Controller) samplePressureLocked(ts int64) {
	if c.opt.Pressure == nil || ts-c.lastPressure < c.opt.HalfLife {
		return
	}
	c.lastPressure = ts
	p := c.opt.Pressure()
	if p <= 0 {
		return
	}
	if p > 1 {
		p = 1
	}
	c.addLocked(ts, Migrator, wPressure*p)
}

// decayAll decays every component score to ts. Timestamps may regress
// (the engine occasionally observes an event whose completion time precedes
// the current clock); decay simply does not run backwards.
func (c *Controller) decayAll(ts int64) {
	for i := range c.scores {
		last := c.lastTS[i]
		if ts > last {
			if last != 0 || c.scores[i] != 0 {
				dt := float64(ts - last)
				c.scores[i] *= math.Exp2(-dt / float64(c.opt.HalfLife))
			}
			c.lastTS[i] = ts
		}
	}
}

// worst returns the highest component score and its component.
func (c *Controller) worst() (float64, Component) {
	w, wc := c.scores[0], Component(0)
	for i := 1; i < int(numComponents); i++ {
		if c.scores[i] > w {
			w, wc = c.scores[i], Component(i)
		}
	}
	return w, wc
}

// stepLocked evaluates the ladder; caller holds mu. Returns a non-zero
// transition to fire (unlocked) when a move happened.
func (c *Controller) stepLocked(ts int64) *Transition {
	if c.frozen {
		return nil
	}
	score, comp := c.worst()
	switch {
	case score >= upThreshold && c.level < L3 && ts-c.lastMove >= c.opt.Dwell:
		return c.moveLocked(ts, c.level+1, comp,
			fmt.Sprintf("%s score %.2f over %.2f", comp, score, upThreshold))
	case score <= downThreshold && c.level > L0 &&
		ts-c.lastMove >= c.opt.Dwell && ts-c.lastProbe >= c.opt.ProbeInterval:
		c.lastProbe = ts
		return c.moveLocked(ts, c.level-1, comp,
			fmt.Sprintf("recovery probe: worst score %.2f under %.2f", score, downThreshold))
	}
	return nil
}

// moveLocked performs one ladder move; caller holds mu.
func (c *Controller) moveLocked(ts int64, to Level, comp Component, reason string) *Transition {
	t := Transition{
		At: ts, From: c.level, To: to,
		FromName: c.level.String(), ToName: to.String(),
		Component: comp.String(), Reason: reason,
	}
	c.level = to
	if to > c.maxLevel {
		c.maxLevel = to
	}
	c.lastMove = ts
	c.transitions = append(c.transitions, t)
	if c.rec != nil {
		c.rec.Instant(obs.KindHealth, obs.TrackHealth, ts,
			t.FromName+"->"+t.ToName, 0, int64(to), int64(comp))
	}
	return &t
}

// emitScoreLocked emits a score sample when the component's score crossed
// into a new 1/8th bucket; caller holds mu. Bucketing bounds event volume
// to a handful per component per burst.
func (c *Controller) emitScoreLocked(ts int64, comp Component) {
	if c.rec == nil {
		return
	}
	b := int(c.scores[comp] * 8)
	if b == c.scoreBucket[comp] {
		return
	}
	c.scoreBucket[comp] = b
	c.rec.Instant(obs.KindHealth, obs.TrackHealth, ts,
		comp.String(), 0, int64(c.scores[comp]*1e6), int64(comp))
}

// fire invokes the transition callback outside the lock.
func (c *Controller) fire(t *Transition) {
	if t != nil && c.opt.OnTransition != nil {
		c.opt.OnTransition(*t)
	}
}

// Transitions returns the ladder moves so far, in order.
func (c *Controller) Transitions() []Transition {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Transition, len(c.transitions))
	copy(out, c.transitions)
	return out
}

// Report snapshots the controller into the JSON-friendly run summary; nil
// for a nil controller.
func (c *Controller) Report() *Report {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &Report{
		Level:       c.level.String(),
		MaxLevel:    c.maxLevel.String(),
		Transitions: len(c.transitions),
		Impulses:    c.impulses,
		Scores:      map[string]float64{},
		PeakScores:  map[string]float64{},
	}
	r.TransitionLog = make([]Transition, len(c.transitions))
	copy(r.TransitionLog, c.transitions)
	for i := Component(0); i < numComponents; i++ {
		r.Scores[i.String()] = c.scores[i]
		if c.peak[i] > 0 {
			r.PeakScores[i.String()] = c.peak[i]
		}
	}
	return r
}
