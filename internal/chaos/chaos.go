// Package chaos is a deterministic, seeded fault-injection layer for the
// DeepUM reproduction. It perturbs every substrate the simulation is built
// on — link bandwidth and latency (degradation, jitter), transfer
// reliability (transient failures the migration engine must retry), the
// fault-handling path (fault-buffer overflow, dropped and duplicated fault
// notifications to the driver), host-memory pressure spikes, correlation-
// table capacity, and the migration thread's responsiveness — so the engine
// can demonstrate the paper's central resilience claim: a driver-level
// prefetcher whose predictions fail merely loses speed, never correctness
// (§6.2 DLRM, §6.4 host-memory wall).
//
// All injection decisions come from one seeded PRNG consulted in simulation
// order, so a run under any scenario is exactly reproducible: same seed,
// same scenario, byte-identical event trace. The package also houses the
// always-on invariant checker (invariants.go) the engine runs under every
// scenario.
package chaos

import (
	"math/rand"

	"deepum/internal/correlation"
	"deepum/internal/sim"
)

// Stats counts the perturbations an Injector delivered and how the
// consumers degraded. All counters are written from the single simulation
// goroutine.
type Stats struct {
	TransferFailures int64        // transfers that transiently failed
	DemandRetries    int64        // demand-migration retry attempts
	PrefetchRetries  int64        // prefetch retry attempts
	PrefetchGiveUps  int64        // prefetches abandoned to on-demand faulting
	BackoffTime      sim.Duration // virtual time spent backing off
	BatchCapHits     int64        // fault batches truncated by buffer overflow
	DroppedNotifies  int64        // fault notifications the driver never saw
	DupNotifies      int64        // fault notifications delivered twice
	MigratorStalls   int64        // injected migration-thread stalls
	StallTime        sim.Duration // total injected stall time
	PressureWindows  int64        // transfers slowed by a host-pressure spike
	InjectedCancels  int64        // supervisor cancellations delivered
}

// Injector perturbs a simulated run according to one Scenario. It
// implements sim.TransferPerturber for the link-level faults and exposes
// query methods the engine consults on the fault and migration paths.
// It is not safe for concurrent use: the discrete-event engine is
// single-threaded, which is what keeps injection deterministic.
type Injector struct {
	sc  Scenario
	rng *rand.Rand

	// clock, when set, lets the timeless query methods (FaultBatchCap,
	// DropNotify, DupNotify, MigratorStall) locate themselves on the
	// virtual timeline; phased injection needs it. Nil means time zero.
	clock func() sim.Time
	// phases, when non-empty, overlay scheduled scenarios on top of sc;
	// effMask/effCache memoize the merge for the current activation set.
	phases   []Phase
	effMask  uint64
	effCache Scenario

	// consecFails bounds how many transfer failures can occur in a row, so
	// a retry loop in the migration engine always terminates.
	consecFails int
	// kernelLaunches counts launches toward CancelAfterKernels.
	kernelLaunches int64

	Stats Stats
}

// NewInjector returns an injector for the scenario, with every decision
// drawn from a PRNG seeded by seed.
func NewInjector(sc Scenario, seed int64) *Injector {
	sc = sc.withDefaults()
	return &Injector{sc: sc, rng: rand.New(rand.NewSource(seed))}
}

// Scenario returns the base scenario the injector was built from (phased
// overlays, if any, are not folded in).
func (in *Injector) Scenario() Scenario { return in.sc }

// SetClock installs the virtual-time source the timeless query methods use
// to locate themselves on the schedule. The engine installs its event
// clock; without one, phased injection evaluates at time zero. Nil-safe.
func (in *Injector) SetClock(fn func() sim.Time) {
	if in != nil {
		in.clock = fn
	}
}

func (in *Injector) now() sim.Time {
	if in.clock != nil {
		return in.clock()
	}
	return 0
}

// PerturbTransfer implements sim.TransferPerturber: it returns the perturbed
// occupancy for a transfer of n bytes whose unperturbed duration is base,
// and whether the transfer transiently fails (the attempt still occupies
// the link; the caller retries). A nil *Injector perturbs nothing.
func (in *Injector) PerturbTransfer(at sim.Time, n int64, dir sim.Direction, base sim.Duration) (sim.Duration, bool) {
	if in == nil {
		return base, false
	}
	sc := in.eff(at)
	d := base
	if sc.LinkDegradeFactor > 1 {
		d = sim.Duration(float64(d) * sc.LinkDegradeFactor)
	}
	if sc.LinkJitterFrac > 0 {
		// Uniform jitter in [-frac, +frac] around the (possibly degraded)
		// duration; never below zero.
		j := 1 + sc.LinkJitterFrac*(2*in.rng.Float64()-1)
		if j < 0 {
			j = 0
		}
		d = sim.Duration(float64(d) * j)
	}
	if f := hostPressure(sc, at); f > 1 {
		d = sim.Duration(float64(d) * f)
		in.Stats.PressureWindows++
	}
	fail := false
	if sc.TransferFailProb > 0 && in.consecFails < sc.MaxConsecutiveFails &&
		in.rng.Float64() < sc.TransferFailProb {
		fail = true
		in.consecFails++
		in.Stats.TransferFailures++
	} else {
		in.consecFails = 0
	}
	return d, fail
}

// hostPressure returns the transfer slowdown factor active at virtual time
// at: during a pressure spike the host's memory subsystem is saturated and
// every UM transfer runs slower.
func hostPressure(sc *Scenario, at sim.Time) float64 {
	if sc.HostPressureFactor <= 1 || sc.HostPressurePeriod <= 0 {
		return 1
	}
	phase := sim.Duration(at) % sc.HostPressurePeriod
	if phase < sc.HostPressureDuration {
		return sc.HostPressureFactor
	}
	return 1
}

// FaultBatchCap returns the effective number of UM blocks one fault-handling
// cycle may cover, modeling fault-buffer overflow: entries beyond the cap
// are replayed in the next cycle, exactly as a full hardware buffer stalls
// the SMs into retrying.
func (in *Injector) FaultBatchCap(base int) int {
	if in == nil {
		return base
	}
	sc := in.eff(in.now())
	if sc.FaultBatchCap <= 0 || sc.FaultBatchCap >= base {
		return base
	}
	in.Stats.BatchCapHits++
	return sc.FaultBatchCap
}

// DropNotify reports whether the next fault notification to the driver is
// lost (interrupt coalescing under pressure). The block is still served by
// the handler — only the driver's learning is perturbed.
func (in *Injector) DropNotify() bool {
	if in == nil {
		return false
	}
	sc := in.eff(in.now())
	if sc.DropNotifyProb <= 0 {
		return false
	}
	if in.rng.Float64() < sc.DropNotifyProb {
		in.Stats.DroppedNotifies++
		return true
	}
	return false
}

// DupNotify reports whether the next fault notification is delivered twice
// (a replayed interrupt): consumers must tolerate duplicates without
// corrupting their tables or queues.
func (in *Injector) DupNotify() bool {
	if in == nil {
		return false
	}
	sc := in.eff(in.now())
	if sc.DupNotifyProb <= 0 {
		return false
	}
	if in.rng.Float64() < sc.DupNotifyProb {
		in.Stats.DupNotifies++
		return true
	}
	return false
}

// MigratorStall returns how long the migration thread is unresponsive after
// the current kernel launch (scheduling pressure on the host CPU); zero
// when no stall is injected.
func (in *Injector) MigratorStall() sim.Duration {
	if in == nil {
		return 0
	}
	sc := in.eff(in.now())
	if sc.MigratorStallProb <= 0 {
		return 0
	}
	if in.rng.Float64() < sc.MigratorStallProb {
		in.Stats.MigratorStalls++
		in.Stats.StallTime += sc.MigratorStallTime
		return sc.MigratorStallTime
	}
	return 0
}

// NoteKernelLaunch counts one kernel launch toward the scenario's supervisor
// cancellation and reports whether the cancellation fires at this launch. The
// count consumes no PRNG draw, so enabling it does not shift the other
// perturbations' decision sequence.
func (in *Injector) NoteKernelLaunch() bool {
	if in == nil || in.sc.CancelAfterKernels <= 0 {
		return false
	}
	in.kernelLaunches++
	if in.kernelLaunches == in.sc.CancelAfterKernels {
		in.Stats.InjectedCancels++
		return true
	}
	return false
}

// VirtualDeadline returns the scenario's simulated-time budget for the whole
// run, or zero when the scenario imposes none.
func (in *Injector) VirtualDeadline() sim.Duration {
	if in == nil {
		return 0
	}
	return in.sc.VirtualDeadline
}

// ShrinkTables applies the scenario's correlation-table capacity pressure:
// row count divided by TableRowsDivisor (floor 1), modeling a driver built
// with far less CPU memory for tables than Table 4 budgets.
func (in *Injector) ShrinkTables(cfg correlation.BlockTableConfig) correlation.BlockTableConfig {
	if in == nil || in.sc.TableRowsDivisor <= 1 {
		return cfg
	}
	cfg.NumRows /= in.sc.TableRowsDivisor
	if cfg.NumRows < 1 {
		cfg.NumRows = 1
	}
	return cfg
}

// MaxPrefetchRetries bounds retries for background prefetch transfers;
// past it the command is abandoned and the block falls back to on-demand
// faulting (correct, merely slower).
const MaxPrefetchRetries = 3

// Backoff returns sim.RetryBackoff(attempt), the wait before a prefetch
// transfer's retry attempt (0-indexed), and records it in the stats.
func (in *Injector) Backoff(attempt int) sim.Duration {
	d := sim.RetryBackoff(attempt)
	if in != nil {
		in.Stats.BackoffTime += d
	}
	return d
}

// NotePrefetchRetry counts one prefetch retry attempt.
func (in *Injector) NotePrefetchRetry() {
	if in != nil {
		in.Stats.PrefetchRetries++
	}
}

// NotePrefetchGiveUp counts one abandoned prefetch command.
func (in *Injector) NotePrefetchGiveUp() {
	if in != nil {
		in.Stats.PrefetchGiveUps++
	}
}
