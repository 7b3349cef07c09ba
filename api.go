package deepum

// This file is the package's STABLE PUBLIC API FACADE. Everything an
// application should import lives here or in the handful of sibling files
// that define behaviour (Train/TrainContext in deepum.go, NewSupervisor in
// supervisor.go, NewObserver in observer.go); the internal/ packages are
// implementation detail and may change without notice.
//
// API stability: the names declared in this file — the type aliases, the
// typed errors, the run-state and run-status constants, and the discovery
// functions — are the compatibility surface of the module. They follow the
// usual Go convention: existing names keep their meaning and signatures
// across minor revisions; new capability arrives as new names. Callers
// should branch on the typed errors (errors.As / errors.Is) and the
// exported constants rather than matching error strings, and must not
// import internal/supervisor or any other internal package to do so.
//
// Discovery functions (Systems, Models, Experiments, ChaosScenarios)
// return deterministically ordered slices — same binary, same order — so
// their output is directly usable in golden tests, CLI listings, and
// documentation without re-sorting.

import (
	"net/http"
	"sort"

	"deepum/internal/admission"
	"deepum/internal/arbiter"
	"deepum/internal/chaos"
	"deepum/internal/core"
	"deepum/internal/correlation"
	"deepum/internal/engine"
	"deepum/internal/experiments"
	"deepum/internal/federation"
	"deepum/internal/health"
	"deepum/internal/models"
	"deepum/internal/policy"
	"deepum/internal/sim"
	"deepum/internal/store"
	"deepum/internal/supervisor"
)

// --- single-run types ---

// ChaosStats re-exports the fault-injection counters.
type ChaosStats = chaos.Stats

// RunStatus re-exports the engine's run-ending classification. Use
// RunStatus.Terminal to test for finality and Result.Succeeded for the
// common "did it complete cleanly" check.
type RunStatus = engine.RunStatus

// Run statuses: how a training run ended (Result.Status).
const (
	StatusCompleted        = engine.StatusCompleted
	StatusCancelled        = engine.StatusCancelled
	StatusDeadlineExceeded = engine.StatusDeadlineExceeded
	StatusDegraded         = engine.StatusDegraded
)

// IterStat re-exports the per-iteration measurement slice.
type IterStat = engine.IterStat

// BreakerStats re-exports the prefetch circuit breaker snapshot.
type BreakerStats = engine.BreakerStats

// InvariantError re-exports the typed invariant-checker violation.
type InvariantError = chaos.InvariantError

// --- health-controller types ---

// HealthOptions re-exports the health controller's tuning knobs (half-life,
// dwell, probe interval, and the pressure gauge and transition hooks); the
// zero value selects the defaults. The hysteresis thresholds are fixed.
// Set Config.Health to enable the controller on a run.
type HealthOptions = health.Options

// HealthReport re-exports a finished run's degradation-ladder summary
// (Result.Health): final and peak level, transition log, peak scores.
type HealthReport = health.Report

// HealthLevel re-exports the degradation-ladder level type.
type HealthLevel = health.Level

// HealthTransition re-exports one recorded ladder move.
type HealthTransition = health.Transition

// Degradation-ladder levels, from full speculation to pure demand paging.
const (
	// HealthL0 runs full prefetching and pre-eviction.
	HealthL0 = health.L0
	// HealthL1 restricts prefetching to chained correlations (degree cap).
	HealthL1 = health.L1
	// HealthL2 shrinks fault batches and disables pre-eviction.
	HealthL2 = health.L2
	// HealthL3 is pure demand paging: no speculation at all.
	HealthL3 = health.L3
)

// DriverOptions re-exports the DeepUM driver knobs for callers tuning the
// prefetch degree (Fig. 11) or table parameters (Table 6 / Fig. 12).
type DriverOptions = core.Options

// BlockTableConfig re-exports the UM-block correlation-table parameters.
type BlockTableConfig = correlation.BlockTableConfig

// --- prefetch-policy types ---

// PrefetchPolicy re-exports the pluggable prefetch-policy seam: the driver
// owns the queue mechanics while a PrefetchPolicy decides what to fetch
// next from the kernel-launch and fault streams. Select a registered one by
// name through Config.Policy (see Policies); implementing new policies
// happens inside the module (internal/policy), not through this alias —
// the interface may grow methods between minor revisions.
type PrefetchPolicy = policy.Policy

// PrefetchCommand re-exports the prefetch queue's payload: a UM block
// paired with the execution ID of the kernel it is predicted to serve.
type PrefetchCommand = core.PrefetchCommand

// PolicyInfo describes one registered prefetch policy for discovery
// listings (Policies, deepum-sim -policy-list).
type PolicyInfo struct {
	// Name is the value for Config.Policy and the -policy CLI flags.
	Name string
	// Summary is a one-line human-readable description.
	Summary string
}

// PolicyState is a prefetch policy's serialized warm state, the one form in
// which a run's learned state travels between runs: PolicyCheckpointOf
// captures it from a Result, SavePolicyCheckpoint and LoadPolicyCheckpoint
// move it through a checkpoint file, and Config.ResumeState seeds the next
// run with it. Under the default correlation policy the payload holds the
// execution-ID and UM-block correlation tables the driver learned. Those
// are worth carrying: residency and link state rebuild themselves within
// one iteration, while the tables take a full warm-up epoch.
type PolicyState struct {
	// Policy is the registered name of the policy that produced Payload.
	Policy string
	// Payload is the policy's deterministic Save encoding.
	Payload []byte
}

// UnknownPolicyError: Config.Policy (or a checkpoint envelope) names a
// prefetch policy nobody registered. Never admittable — fix the name.
type UnknownPolicyError = policy.UnknownError

// PolicyUnsupportedError rejects Config.Policy on a system that runs no
// prefetch policy: only SystemDeepUM has the driver the policies plug into.
type PolicyUnsupportedError struct {
	System System
	Policy string
}

func (e *PolicyUnsupportedError) Error() string {
	return "deepum: Config.Policy selects prefetch policy \"" + e.Policy +
		"\"; system \"" + string(e.System) + "\" runs no prefetch policy (SystemDeepUM only)"
}

// PolicyKnown reports whether name is a registered prefetch policy (the
// empty name counts: it selects the default).
func PolicyKnown(name string) bool { return policy.Known(name) }

// Machine re-exports the hardware model for custom configurations.
type Machine = sim.Params

// Duration re-exports the simulation's virtual-time duration type
// (Config.Deadline, Result.IterationTime).
type Duration = sim.Duration

// Byte-size constants for configuring Machine fields and formatting
// Result traffic numbers without importing internal/sim.
const (
	KiB = sim.KiB
	MiB = sim.MiB
	GiB = sim.GiB
)

// ExperimentOptions scope a RunExperiment call; the zero value selects the
// defaults (scale 8, four measured iterations).
type ExperimentOptions = experiments.Options

// --- supervisor types ---

// Supervisor re-exports the multi-run supervision layer.
type Supervisor = supervisor.Supervisor

// SupervisorConfig re-exports the supervisor configuration. Runner and
// Estimate may be left nil: NewSupervisor fills them with the
// TrainContext-backed runner and the workload-footprint estimator.
type SupervisorConfig = supervisor.Config

// RunSpec re-exports one submitted run's description.
type RunSpec = supervisor.RunSpec

// RunInfo re-exports a run's point-in-time snapshot.
type RunInfo = supervisor.RunInfo

// RunOutcome re-exports a finished run's report.
type RunOutcome = supervisor.Outcome

// SupervisorStats re-exports the supervisor's aggregate snapshot.
type SupervisorStats = supervisor.Stats

// Runner executes one supervised run; implement it (or wrap a function in
// RunnerFunc) to drive the supervisor with custom work instead of the
// default TrainContext-backed runner.
type Runner = supervisor.Runner

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc = supervisor.RunnerFunc

// SubmitOptions re-exports the retry-safety extras a submission may attach:
// an idempotency key (a retried submit resolves to the run the first
// attempt created) and a propagated client deadline (shed at admission when
// the backlog cannot meet it). Pass to Supervisor.SubmitWithOptions or
// Federation.SubmitWithOptions.
type SubmitOptions = supervisor.SubmitOptions

// RunState is a supervised run's position in the supervisor's state
// machine; RunState.Terminal reports finality.
type RunState = supervisor.RunState

// Supervisor run states (RunInfo.State).
const (
	RunQueued           = supervisor.StateQueued
	RunRunning          = supervisor.StateRunning
	RunCompleted        = supervisor.StateCompleted
	RunCancelled        = supervisor.StateCancelled
	RunDeadlineExceeded = supervisor.StateDeadlineExceeded
	RunDegraded         = supervisor.StateDegraded
	RunFailed           = supervisor.StateFailed
	// RunSuspended is non-terminal: the oversubscription arbiter
	// checkpointed the run out of execution under memory pressure; it
	// resumes from its warm state once headroom exists.
	RunSuspended = supervisor.StateSuspended
)

// ArbiterStats re-exports the oversubscription arbiter's aggregate snapshot
// (SupervisorStats.Arbiter): budget, granted floors and bursts, the smoothed
// pressure signal, and revoke/restore/suspend counters.
type ArbiterStats = arbiter.Stats

// ArbiterOptions re-exports the arbiter's tuning knobs for
// SupervisorConfig.Arbiter; the zero value (with Budget filled from
// GPUMemoryBudget) selects the defaults.
type ArbiterOptions = arbiter.Options

// Typed admission and lookup failures, re-exported so callers can branch
// on rejection kind (retry later vs. reject outright) with errors.As
// without importing internal/supervisor.
type (
	// QueueFullError: the bounded submission queue is at capacity.
	QueueFullError = supervisor.QueueFullError
	// QuotaError: the run's memory demand does not fit. Retryable()
	// distinguishes transient budget pressure from a per-run quota the
	// spec can never satisfy.
	QuotaError = supervisor.QuotaError
	// RunNotFoundError: no run with the requested ID.
	RunNotFoundError = supervisor.NotFoundError
	// ShedError: the submission's propagated deadline cannot be met at the
	// current queue drain rate. Retryable() is true; RetryAfter carries a
	// jittered backoff hint priced from the observed drain.
	ShedError = supervisor.ShedError
)

// Sentinel supervisor errors, for errors.Is.
var (
	// ErrShuttingDown rejects submissions to a draining supervisor.
	ErrShuttingDown = supervisor.ErrShuttingDown
	// ErrRunAlreadyFinished rejects Cancel on a terminal run.
	ErrRunAlreadyFinished = supervisor.ErrAlreadyFinished
	// ErrRunNotSuspended rejects Resume on a run that is not suspended.
	ErrRunNotSuspended = supervisor.ErrNotSuspended
	// ErrRunNotRunning rejects Suspend on a run that is not executing.
	ErrRunNotRunning = supervisor.ErrNotRunning
)

// MaxIdempotencyKeyLen is the longest accepted idempotency key in bytes.
const MaxIdempotencyKeyLen = admission.MaxKeyLen

// ValidateIdempotencyKey reports whether key is usable as an idempotency
// key: 1 to MaxIdempotencyKeyLen bytes of printable ASCII. Serving layers
// call it before admission so a malformed key is a clean client error, not
// a supervisor rejection.
func ValidateIdempotencyKey(key string) error { return admission.ValidateKey(key) }

// --- checkpoint store types ---

// CheckpointStore re-exports the durable content-addressed checkpoint
// store: a single-file, append-only, CRC-framed blob store keyed by
// content hash, with torn-tail-truncating recovery on open, optional
// replicated frames, a scrubber that repairs bit rot from a surviving
// replica (or degrades the key to a cold restart), and crash-safe
// compaction. Wire one into SupervisorConfig.Checkpoints (or set
// FederationOptions.StorePath) and RecCheckpointed journal records shrink
// from full blobs to 16-byte references.
type CheckpointStore = store.Store

// CheckpointStoreOptions re-exports the store's Open options; the zero
// value is production-ready (OS filesystem, one replica, fsync per Put).
type CheckpointStoreOptions = store.Options

// CheckpointStoreStats re-exports the store's counters snapshot.
type CheckpointStoreStats = store.Stats

// CheckpointStoreOpenStats re-exports what Open's recovery scan found.
type CheckpointStoreOpenStats = store.OpenStats

// CheckpointKey is a blob's content-hash address in the store.
type CheckpointKey = store.Key

// StoreScrubReport re-exports one scrub pass's findings (frames verified,
// repaired, degraded keys, torn bytes).
type StoreScrubReport = store.ScrubReport

// StoreAuditReport re-exports the read-only audit summary
// (AuditCheckpointStore, deepum-inspect store).
type StoreAuditReport = store.AuditReport

// CheckpointNotFoundError: the requested key is not in the store's index —
// never written, scrub-degraded, or compacted away. Supervisors treat it
// as a cold restart, never a run failure.
type CheckpointNotFoundError = store.NotFoundError

// OpenCheckpointStore opens (creating if absent) the store at path,
// rebuilding its in-memory index and truncating any torn tail. The caller
// owns the store and must Close it after the supervisors using it have
// drained.
func OpenCheckpointStore(path string, opts CheckpointStoreOptions) (*CheckpointStore, CheckpointStoreOpenStats, error) {
	return store.Open(path, opts)
}

// AuditCheckpointStore scans a store file read-only — no truncation, no
// cleanup — and reports frames, keys, replica bounds, corrupt regions,
// and the torn-tail offset.
func AuditCheckpointStore(path string) (StoreAuditReport, error) {
	return store.Audit(path)
}

// --- federation types ---

// Federation re-exports the sharded supervisor fleet: a consistent-hash
// ring of supervisors behind one admission front-end, with per-shard WAL
// journals and kill/handoff failover. Build one with NewFederation.
type Federation = federation.Federation

// FederationOptions re-exports the federation configuration. The embedded
// Supervisor field is the per-shard template; its Runner and Estimate may
// be left nil (NewFederation fills the TrainContext-backed defaults).
type FederationOptions = federation.Config

// FederationStats re-exports the federation-wide aggregate snapshot.
type FederationStats = federation.Stats

// FederationShardStats re-exports one shard's status row (the /shards
// endpoint payload).
type FederationShardStats = federation.ShardStats

// ShardHandoffReport re-exports the summary of one journal handoff.
type ShardHandoffReport = federation.HandoffReport

// Typed federation failures, for errors.As.
type (
	// ShardHandoffError: the run (or a fresh run ID) maps to a dead shard
	// whose journal has not been handed off yet. Retryable() is true —
	// serving layers answer 503 + Retry-After until the handoff lands.
	ShardHandoffError = federation.HandoffError
	// ShardError wraps a shard-local rejection with the owning shard's
	// ordinal; Unwrap exposes the shard's typed error (QueueFullError,
	// QuotaError, ErrShuttingDown, ...).
	ShardError = federation.ShardError
)

// --- discovery ---

// Systems returns every supported system name in ascending order.
func Systems() []System {
	s := []System{SystemUM, SystemDeepUM, SystemIdeal, SystemLMS, SystemLMSMod,
		SystemVDNN, SystemAutoTM, SystemSwapAdvisor, SystemCapuchin, SystemSentinel}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// Models returns the supported model names (Table 2) in ascending order.
func Models() []string {
	m := models.Names()
	sort.Strings(m)
	return m
}

// ExperimentInfo identifies one reproducible paper artifact.
type ExperimentInfo struct {
	// ID names the artifact for RunExperiment (e.g. "fig9a", "table5").
	ID string
	// Title is the artifact's human-readable caption.
	Title string
}

// Experiments returns every reproducible paper artifact in ascending ID
// order; run one with RunExperiment.
func Experiments() []ExperimentInfo {
	all := experiments.All()
	out := make([]ExperimentInfo, 0, len(all))
	for _, e := range all {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ChaosScenarioInfo identifies one named fault-injection scenario.
type ChaosScenarioInfo struct {
	// Name is the value for Config.Chaos and deepum-sim -chaos.
	Name        string
	Description string
}

// ChaosScenarios returns the named fault-injection scenarios in ascending
// name order.
func ChaosScenarios() []ChaosScenarioInfo {
	all := chaos.Scenarios()
	out := make([]ChaosScenarioInfo, 0, len(all))
	for _, s := range all {
		out = append(out, ChaosScenarioInfo{Name: s.Name, Description: s.Description})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FaultTransport re-exports the chaos HTTP round-tripper that injects
// client-visible network faults (post-send timeouts, slow responses, torn
// bodies) for retry-storm style harnesses.
type FaultTransport = chaos.FaultTransport

// NetFaultOptions re-exports FaultTransport's fault mix.
type NetFaultOptions = chaos.NetFaultOptions

// NewFaultTransport wraps base (nil = http.DefaultTransport) with the
// configured fault mix.
func NewFaultTransport(base http.RoundTripper, opts NetFaultOptions) *FaultTransport {
	return chaos.NewFaultTransport(base, opts)
}

// Policies returns every registered prefetch policy in ascending name
// order; select one with Config.Policy or the -policy CLI flags.
func Policies() []PolicyInfo {
	all := policy.Infos()
	out := make([]PolicyInfo, 0, len(all))
	for _, p := range all {
		out = append(out, PolicyInfo{Name: p.Name, Summary: p.Summary})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
