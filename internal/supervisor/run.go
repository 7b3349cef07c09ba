package supervisor

import (
	"context"
	"errors"
	"fmt"
	"time"

	"deepum/internal/admission"
	"deepum/internal/health"
)

// RunSpec describes one training run submitted to the supervisor. It is
// engine-agnostic on purpose — the supervisor schedules and supervises;
// the Runner interprets the spec (the deepum package wires Train in) — and
// JSON-serializable because it is journaled verbatim and carried over the
// deepum-serve HTTP API.
type RunSpec struct {
	Model   string `json:"model"`
	Dataset string `json:"dataset,omitempty"`
	Batch   int64  `json:"batch"`
	// System names the memory-management system; empty means DeepUM.
	System string `json:"system,omitempty"`
	// Policy names the prefetch policy for DeepUM runs; empty selects the
	// default (correlation). Serving layers validate it at admission so an
	// unknown name is a typed client error, never a failed run.
	Policy string `json:"policy,omitempty"`
	// Scale divides model and machine sizes (0 = runner default).
	Scale      int64 `json:"scale,omitempty"`
	Iterations int   `json:"iterations,omitempty"`
	Warmup     int   `json:"warmup,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	// Chaos and ChaosSeed name an in-run fault-injection scenario.
	Chaos     string `json:"chaos,omitempty"`
	ChaosSeed int64  `json:"chaos_seed,omitempty"`
	// Health enables the in-run closed-loop health controller (degradation
	// ladder); the run's ladder level surfaces in RunInfo.HealthLevel and
	// the supervisor's health metrics.
	Health bool `json:"health,omitempty"`
	// CheckpointEvery asks the runner to surface warm-state checkpoints
	// every so many measured iterations (0 = only at run end). Mid-run
	// checkpoints are what journal replay resumes from after a kill.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// MemoryDemand is the simulated GPU bytes this run charges against the
	// supervisor's budget; 0 lets Config.Estimate fill it at admission.
	MemoryDemand int64 `json:"memory_demand,omitempty"`
	// Priority is the run's arbiter priority class (higher = more
	// important; 0 is the default class). Under oversubscription the
	// arbiter picks revocation and suspension victims lowest-priority
	// first. Journaled with the spec, so priority survives restarts and
	// federation handoffs.
	Priority int `json:"priority,omitempty"`
	// Timeout overrides Config.WatchdogTimeout for this run (wall clock;
	// 0 inherits the supervisor default).
	Timeout time.Duration `json:"timeout,omitempty"`
}

// Outcome is what a Runner reports for a finished (or interrupted) run.
type Outcome struct {
	// Status is the terminal run status: completed, cancelled,
	// deadline-exceeded, degraded, or failed.
	Status string `json:"status"`
	// Iterations counts completed measured iterations across all chunks.
	Iterations int `json:"iterations"`
	// IterationTime is the mean measured iteration time (virtual).
	IterationTime time.Duration `json:"iteration_time_ns"`
	// FaultsPerIteration is the mean page-fault count per iteration.
	FaultsPerIteration int64 `json:"faults_per_iteration,omitempty"`
	// AccessChecksum fingerprints the run's ordered memory-access stream
	// (engine Result.AccessChecksum; for chunked runs, an order-sensitive
	// fold of the per-chunk checksums). It is the bit-identity witness the
	// failover-equivalence tests compare: an adopted, resumed run must
	// reproduce the checksum of its uninterrupted execution.
	AccessChecksum uint64 `json:"access_checksum,omitempty"`
	// Error carries the failure message for failed runs.
	Error string `json:"error,omitempty"`
	// Health is the run's degradation-ladder summary when the spec enabled
	// the health controller (nil otherwise).
	Health *health.Report `json:"health,omitempty"`
	// Checkpoint is the run's final warm state, if the runner produced
	// one. The supervisor journals it as a checkpoint record. A suspended
	// run keeps it as the state it resumes from; a finished run drops it,
	// so RunInfo.Outcome never carries it. Never inlined in JSON.
	Checkpoint []byte `json:"-"`
}

// Runner executes one run. Implementations must honor ctx — the
// supervisor's watchdog, Cancel API, and drain escalation all stop a run
// by cancelling it — and may call progress to report liveness (nil
// checkpoint) or durable warm state (non-nil checkpoint bytes, which the
// supervisor journals so a killed-and-restarted supervisor can resume the
// run from there).
type Runner interface {
	Run(ctx context.Context, spec RunSpec, resume []byte, progress func(checkpoint []byte)) (Outcome, error)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
	return f(ctx, spec, resume, progress)
}

// RunState is a run's position in the supervisor's state machine.
type RunState string

// Run states. A run is queued from admission until a worker picks it up,
// running until its Runner returns, then terminal. The terminal states
// mirror engine.RunStatus plus "failed" for runs whose Runner errored or
// whose worker panicked.
const (
	StateQueued           RunState = "queued"
	StateRunning          RunState = "running"
	StateCompleted        RunState = "completed"
	StateCancelled        RunState = "cancelled"
	StateDeadlineExceeded RunState = "deadline-exceeded"
	StateDegraded         RunState = "degraded"
	StateFailed           RunState = "failed"
	// StateSuspended is NOT terminal: the arbiter checkpointed the run out
	// of execution under memory pressure and returned it to the queue; a
	// worker resumes it from its warm state once headroom exists (or an
	// operator forces it via Resume).
	StateSuspended RunState = "suspended"
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	switch s {
	case StateCompleted, StateCancelled, StateDeadlineExceeded, StateDegraded, StateFailed:
		return true
	}
	return false
}

// RunInfo is a point-in-time snapshot of one run, safe to retain.
type RunInfo struct {
	ID   uint64  `json:"id"`
	Spec RunSpec `json:"spec"`
	// Demand is the admitted simulated-GPU-memory charge in bytes.
	Demand int64    `json:"demand"`
	State  RunState `json:"state"`
	// Reason explains a cancellation or failure (api, watchdog, drain,
	// worker panic, journal replay).
	Reason string `json:"reason,omitempty"`
	// Attempts counts how many times a worker started this run; >1 means
	// the run was recovered from a journal replay.
	Attempts int `json:"attempts"`
	// Resumed is true when the current attempt was seeded from a journaled
	// checkpoint rather than started cold.
	Resumed bool `json:"resumed,omitempty"`
	// HealthLevel is the run's current degradation-ladder level (0-3),
	// live-updated for runs whose spec enabled health monitoring and whose
	// runner reports ladder moves (HealthReporterFromContext).
	HealthLevel int `json:"health_level,omitempty"`
	// Suspends counts arbiter suspend-to-checkpoint cycles this run has
	// been through (each one adds an Attempts increment when it resumes).
	Suspends int `json:"suspends,omitempty"`
	// Checkpoints counts journaled warm-state checkpoints for this run.
	Checkpoints int        `json:"checkpoints,omitempty"`
	Submitted   time.Time  `json:"submitted"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
	// Outcome is set once the run is terminal.
	Outcome *Outcome `json:"outcome,omitempty"`
}

// --- typed admission and lookup errors ---

// ErrShuttingDown rejects submissions to a draining or killed supervisor.
var ErrShuttingDown = errors.New("supervisor: shutting down; not admitting runs")

// ErrAlreadyFinished rejects Cancel on a terminal run.
var ErrAlreadyFinished = errors.New("supervisor: run already reached a terminal state")

// ErrNotSuspended rejects Resume on a run that is not suspended.
var ErrNotSuspended = errors.New("supervisor: run is not suspended")

// ErrNotRunning rejects Suspend on a run that is not currently executing.
var ErrNotRunning = errors.New("supervisor: run is not running")

// pressureCtxKey carries the per-run memory-pressure gauge in the runner's
// context under oversubscription.
type pressureCtxKey struct{}

// PressureFromContext returns the memory-pressure gauge the supervisor
// attached to a running run's context (the arbiter's smoothed 0..1 signal,
// pinned to 1 while the run's burst is revoked), or nil when the run is not
// executing under an oversubscription arbiter. Runners feed it into their
// health controller (health.Options.Pressure) so pressured runs shed
// prefetch aggressiveness through the ordinary ladder gates.
func PressureFromContext(ctx context.Context) func() float64 {
	f, _ := ctx.Value(pressureCtxKey{}).(func() float64)
	return f
}

// healthCtxKey carries the per-run ladder-level reporter in the runner's
// context for runs whose spec enabled health monitoring.
type healthCtxKey struct{}

// HealthReporterFromContext returns the ladder-level reporter the
// supervisor attached to a running run's context, or nil when the run's
// spec did not enable health monitoring. Runners call it with the new
// level (0-3) on every in-run ladder transition; the supervisor mirrors
// the level into RunInfo.HealthLevel and the deepum_health_level /
// deepum_health_transitions_total metric family while the run is live.
func HealthReporterFromContext(ctx context.Context) func(level int) {
	f, _ := ctx.Value(healthCtxKey{}).(func(int))
	return f
}

// ShedError is admission.ShedError re-exported at the supervisor layer: a
// submission rejected because its propagated client deadline cannot be met
// at the current queue drain rate.
type ShedError = admission.ShedError

// QueueFullError rejects a submission because the bounded submission queue
// is at capacity — backpressure, not failure: the caller should retry
// after runs drain.
type QueueFullError struct {
	// Depth is the queue capacity that was exhausted.
	Depth int
	// RetryAfter is the jittered backoff hint priced from the observed
	// drain rate (0 when the supervisor constructed the error without a
	// shedder observation yet).
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("supervisor: submission queue full (depth %d); retry after runs drain", e.Depth)
}

// QuotaError rejects a submission over the simulated GPU-memory quota.
// PerRun distinguishes "this run can never fit its slice" (permanent)
// from "the budget is committed right now" (retryable).
type QuotaError struct {
	// Demand is the run's estimated simulated GPU memory in bytes.
	Demand int64
	// Limit is the bound that was exceeded: the per-run quota slice when
	// PerRun, otherwise the whole budget.
	Limit int64
	// Committed is the budget already pledged to admitted runs (whole-
	// budget rejections only).
	Committed int64
	PerRun    bool
}

func (e *QuotaError) Error() string {
	if e.PerRun {
		return fmt.Sprintf("supervisor: run demands %d bytes of simulated GPU memory, over the %d-byte per-run quota", e.Demand, e.Limit)
	}
	return fmt.Sprintf("supervisor: run demands %d bytes of simulated GPU memory but %d of the %d-byte budget is committed; retry after runs finish", e.Demand, e.Committed, e.Limit)
}

// Retryable reports whether waiting for other runs to finish could admit
// this run (false for per-run quota violations, which never fit).
func (e *QuotaError) Retryable() bool { return !e.PerRun }

// NotFoundError reports an unknown run ID.
type NotFoundError struct{ ID uint64 }

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("supervisor: no run with id %d", e.ID)
}
