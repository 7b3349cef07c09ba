// Package deepum is a pure-Go reproduction of "DeepUM: Tensor Migration and
// Prefetching in Unified Memory" (Jung, Kim, Lee — ASPLOS 2023).
//
// DeepUM lets DNN training oversubscribe GPU memory by allocating everything
// in CUDA Unified Memory and hiding the page-migration cost with a
// correlation-prefetching technique at the UM-block level, plus two
// fault-handling optimizations: page pre-eviction and invalidation of UM
// blocks backing inactive PyTorch allocator blocks.
//
// Because the original system is a Linux kernel module driving an NVIDIA
// GPU, this library reproduces it on a calibrated discrete-event simulation
// of the whole substrate — GPU, UM page-fault pipeline, PCIe link, PyTorch
// caching allocator, nine DNN training workloads, and the six baseline
// swapping systems the paper compares against. The public API runs training
// simulations under any of the systems and regenerates every table and
// figure of the paper's evaluation; see DESIGN.md for the model and
// EXPERIMENTS.md for paper-versus-measured results.
//
// Quick start:
//
//	cfg := deepum.DefaultConfig()
//	res, err := deepum.Train(deepum.Workload{Model: "bert-large", Batch: 16}, cfg)
//	if err != nil { ... }
//	fmt.Println(res.IterationTime, res.PageFaultsPerIteration)
package deepum

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"deepum/internal/baselines"
	"deepum/internal/chaos"
	"deepum/internal/core"
	"deepum/internal/correlation"
	"deepum/internal/engine"
	"deepum/internal/experiments"
	"deepum/internal/health"
	"deepum/internal/metrics"
	"deepum/internal/models"
	"deepum/internal/policy"
	"deepum/internal/sim"
	"deepum/internal/workload"
)

// System selects the memory-management system a training run uses.
type System string

// Supported systems: the naive CUDA Unified Memory baseline, DeepUM itself,
// the no-oversubscription upper bound, and the six swapping baselines from
// the paper's evaluation.
const (
	SystemUM          System = "um"
	SystemDeepUM      System = "deepum"
	SystemIdeal       System = "ideal"
	SystemLMS         System = "lms"
	SystemLMSMod      System = "lms-mod"
	SystemVDNN        System = "vdnn"
	SystemAutoTM      System = "autotm"
	SystemSwapAdvisor System = "swapadvisor"
	SystemCapuchin    System = "capuchin"
	SystemSentinel    System = "sentinel"
)

// Workload names a Table 2 model/dataset pair at a batch size.
type Workload struct {
	// Model is one of: gpt2-xl, gpt2-l, bert-large, bert-base, dlrm,
	// resnet152, resnet200, dcgan, mobilenet.
	Model string
	// Dataset selects a variant where the paper uses one (e.g. "cola" for
	// BERT Large fine-tuning, "cifar10" for ResNet-200). Empty picks the
	// Table 2 default.
	Dataset string
	Batch   int64
}

// Config parameterizes a simulated training run.
type Config struct {
	// System is the memory manager; defaults to SystemDeepUM.
	System System
	// Machine is the simulated hardware; defaults to the paper's
	// V100-32GB / 512 GiB configuration.
	Machine sim.Params
	// Driver configures the DeepUM driver (SystemDeepUM only).
	Driver core.Options
	// Scale divides model and machine sizes so runs finish quickly while
	// preserving footprint-to-capacity ratios; 1 simulates paper-sized
	// workloads. Defaults to 8.
	Scale int64
	// Iterations measured and Warmup iterations before measurement.
	Iterations, Warmup int
	// Seed drives input-dependent (irregular) access sampling.
	Seed int64
	// Chaos names a fault-injection scenario (see ChaosScenarios); empty or
	// "none" runs clean. Chaos applies to the UM-side systems only — the
	// tensor-level baselines do not model the UM substrate it perturbs.
	Chaos string
	// ChaosSeed seeds the injection PRNG; 0 reuses Seed, so a run is fully
	// reproducible from (Seed, Chaos) alone.
	ChaosSeed int64
	// Deadline bounds the run in VIRTUAL (simulated) time: the run stops at
	// the first event at or past the budget and returns a partial Result
	// with StatusDeadlineExceeded. Deterministic under a fixed seed, unlike
	// a context deadline. Zero means unbounded. UM-side systems only.
	Deadline sim.Duration
	// Policy names the prefetch policy the DeepUM driver runs; see
	// Policies() for the registered set. Empty selects the default
	// ("correlation", the paper's chaser). SystemDeepUM only: any other
	// system rejects a non-empty Policy with *PolicyUnsupportedError, and an
	// unregistered name is rejected with *UnknownPolicyError.
	Policy string
	// ResumeState seeds the named policy with its checkpointed warm state
	// (PolicyCheckpointOf, or LoadPolicyCheckpoint from a file), skipping
	// the warm-up it took to learn. SystemDeepUM only; ResumeState.Policy
	// must agree with Policy.
	ResumeState *PolicyState
	// Health enables the closed-loop health controller: windowed health
	// scores per component (link, prefetcher, migrator) drive a
	// graduated degradation ladder — L0 full prefetch+pre-eviction, L1
	// chained-correlation-only prefetch, L2 shrunk batches / no
	// pre-eviction, L3 pure demand paging — with hysteresis, dwell times,
	// and periodic recovery probes that walk back toward L0. The zero
	// Options value (&HealthOptions{}) selects the defaults. Nil (the
	// default) disables the controller at zero cost. The demand path is
	// never gated: every level is bit-identical on a fixed workload, only
	// slower. UM-side systems only.
	Health *HealthOptions
	// Observe attaches an event-trace observer (NewObserver) to the run:
	// fault batches, link transfers, prefetch lifecycle, evictions, breaker
	// transitions, and per-iteration spans are recorded into its ring
	// buffer for export as a Chrome trace or offline analysis. Nil (the
	// default) disables tracing at zero cost — the hot paths take a single
	// nil check. UM-side systems only; the tensor-level baselines do not
	// run the event simulation the observer instruments.
	Observe *Observer
}

// DefaultConfig returns the paper's headline configuration: DeepUM with all
// optimizations, N=32, Config9 tables, on a scaled V100-32GB machine.
func DefaultConfig() Config {
	return Config{
		System:     SystemDeepUM,
		Machine:    sim.DefaultParams(),
		Driver:     core.DefaultOptions(),
		Scale:      8,
		Iterations: 4,
		Warmup:     3,
		Seed:       1,
	}
}

// Result reports a training run's measurements. An interrupted run (Status
// cancelled or deadline-exceeded) returns a PARTIAL result with a nil
// error: Iterations counts only completed measured iterations and Status
// tells the supervisor why the run stopped.
//
// Degradation semantics: StatusDegraded means the run RAN TO COMPLETION
// but not cleanly — either the prefetch circuit breaker opened at least
// once (Breaker.EverOpened) or the invariant checker reported a violation
// (Invariant != nil). EverOpened is sticky: it stays true even when the
// breaker recovered and closed again before the run ended, so a run whose
// prefetching was suspended for any window is never reported as cleanly
// completed. The measurements of a degraded run are real but were taken
// partly under pure on-demand faulting; treat cross-run comparisons with
// suspicion.
type Result struct {
	System System
	// Status classifies how the run ended: completed, cancelled,
	// deadline-exceeded, or degraded (run finished but the prefetch breaker
	// opened or an invariant was violated — see Invariant).
	Status RunStatus
	// Iterations is the number of measured iterations that completed.
	Iterations int
	// IterationTime is the mean steady-state time per training iteration.
	IterationTime sim.Duration
	// TotalTime covers the measured iterations.
	TotalTime sim.Duration
	// PageFaultsPerIteration is the Table 5 metric (UM-side systems only).
	PageFaultsPerIteration int64
	// TrafficH2D and TrafficD2H are cumulative link bytes per direction.
	TrafficH2D, TrafficD2H int64
	// EnergyJoules integrates the full-system power model (Fig. 9c).
	EnergyJoules float64
	// CorrelationTableBytes is the driver's table memory (Table 4).
	CorrelationTableBytes int64
	// PrefetchIssued and PrefetchUseful count driver prefetch commands and
	// those that served a later access (SystemDeepUM only).
	PrefetchIssued, PrefetchUseful int64
	// ChaosStats counts injected perturbations and how the run degraded;
	// all zero when Config.Chaos was empty or "none".
	ChaosStats ChaosStats
	// IterStats is the per-iteration trace (warmup included): time, faults,
	// prefetch counts. It is the unit of the checkpoint/resume equivalence
	// guarantee. UM-side systems only.
	IterStats []IterStat
	// Invariant is the first invariant-checker violation, reported through
	// the result instead of failing the run; nil on a consistent run.
	Invariant *InvariantError
	// Breaker snapshots the prefetch circuit breaker (SystemDeepUM only).
	Breaker BreakerStats
	// DiscardedPrefetches counts queued prefetch commands thrown away when
	// the run was interrupted (demand work drains; speculation does not).
	DiscardedPrefetches int64
	// Health summarizes the degradation ladder when Config.Health enabled
	// the controller: final and peak level, the transition log, and peak
	// per-component scores. Nil when the controller was off. A run whose
	// ladder ever left L0 finishes StatusDegraded.
	Health *HealthReport
	// AccessChecksum fingerprints the ordered memory-access stream (FNV-1a
	// over every block touch). It depends only on the workload and Seed —
	// not on timing, chaos, or ladder level — so two runs of the same
	// workload at different degradation levels must report identical
	// checksums. UM-side systems only.
	AccessChecksum uint64
	// Policy is the prefetch policy the driver ran ("correlation",
	// "learned", ...); empty for non-DeepUM systems.
	Policy string

	// prefetcher is the policy the driver ran, kept live so
	// PolicyCheckpointOf can serialize its warm state on demand; nil for
	// non-DeepUM systems.
	prefetcher policy.Policy
}

// Succeeded reports whether the run completed every requested iteration
// cleanly: StatusCompleted, no degradation. A degraded, cancelled, or
// deadline-exceeded run returns false even though its (partial)
// measurements are real.
func (r *Result) Succeeded() bool {
	return r.Status == StatusCompleted
}

// SavePolicyCheckpoint serializes any prefetch policy's warm state to w as
// a versioned, CRC32-checksummed envelope with the policy's name recorded
// in the frame.
func SavePolicyCheckpoint(w io.Writer, st *PolicyState) error {
	if st == nil {
		return fmt.Errorf("deepum: cannot checkpoint nil policy state")
	}
	return correlation.WriteEnvelope(w, st.Policy, st.Payload)
}

// LoadPolicyCheckpoint reads any checkpoint envelope — including legacy v1
// correlation blobs, which come back with Policy "correlation" — verifying
// magic, version, and checksum. Feed the result to Config.ResumeState.
func LoadPolicyCheckpoint(r io.Reader) (*PolicyState, error) {
	name, payload, err := correlation.ReadEnvelope(r)
	if err != nil {
		return nil, err
	}
	return &PolicyState{Policy: name, Payload: payload}, nil
}

// PolicyCheckpointOf serializes a run's warm policy state, whichever policy
// ran. Train encodes nothing, so each call runs the policy's Save afresh;
// the encoding is deterministic, so every call returns the same payload.
// Nil when the run had no policy (non-DeepUM systems) or its policy failed
// to encode.
func PolicyCheckpointOf(res *Result) *PolicyState {
	if res == nil || res.prefetcher == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := res.prefetcher.Save(&buf); err != nil {
		return nil
	}
	return &PolicyState{Policy: res.Policy, Payload: buf.Bytes()}
}

// Train simulates training the workload under the configured system. It
// returns an error when the system cannot run the workload — device OOM for
// the tensor-level baselines, host backing-store exhaustion for the UM-side
// systems, or an unsupported model (vDNN on non-CNNs).
func Train(w Workload, cfg Config) (*Result, error) {
	return TrainContext(context.Background(), w, cfg)
}

// TrainContext is Train under a supervising context. Cancelling ctx (or
// letting its deadline expire) stops the simulation at the next event:
// demand migrations drain, queued prefetches are discarded, and the partial
// measurements come back as a *Result tagged StatusCancelled or
// StatusDeadlineExceeded with a NIL error — the caller decides whether a
// partial run is useful. Config.Deadline adds a deterministic virtual-time
// bound on top.
func TrainContext(ctx context.Context, w Workload, cfg Config) (*Result, error) {
	cfg, scenario, err := trainDefaults(w, cfg)
	if err != nil {
		return nil, err
	}
	prog, err := BuildProgram(w, cfg.Scale)
	if err != nil {
		return nil, err
	}
	return trainProgram(ctx, prog, cfg, scenario)
}

// trainDefaults checks the workload and the parts of cfg that do not
// depend on the program, fills cfg's defaults, and looks up its chaos
// scenario.
func trainDefaults(w Workload, cfg Config) (Config, chaos.Scenario, error) {
	if w.Batch <= 0 {
		return cfg, chaos.Scenario{}, fmt.Errorf("deepum: batch size must be positive, got %d", w.Batch)
	}
	if cfg.System == "" {
		cfg.System = SystemDeepUM
	}
	if cfg.Scale < 1 {
		cfg.Scale = 8
	}
	if cfg.Iterations < 1 {
		cfg.Iterations = 4
	}
	if cfg.Warmup < 1 {
		cfg.Warmup = 3
	}
	if cfg.Machine.GPUMemory == 0 {
		cfg.Machine = sim.DefaultParams()
	}
	if params := cfg.Machine.Scale(cfg.Scale); params.GPUMemory < sim.BlockSize {
		return cfg, chaos.Scenario{}, fmt.Errorf("deepum: scaled GPU memory %d bytes is smaller than one %d-byte UM block (GPUMemory %d at scale 1/%d); raise Machine.GPUMemory or lower Scale",
			params.GPUMemory, int64(sim.BlockSize), cfg.Machine.GPUMemory, cfg.Scale)
	}
	scenario, err := chaos.ByName(cfg.Chaos)
	if err != nil {
		return cfg, scenario, fmt.Errorf("deepum: %w", err)
	}
	return cfg, scenario, nil
}

// trainProgram runs prog, built for cfg.Scale, under cfg and its chaos
// scenario, as trainDefaults returned them. It only reads prog, so the
// chunks of one run can share it.
func trainProgram(ctx context.Context, prog *workload.Program, cfg Config, scenario chaos.Scenario) (*Result, error) {
	params := cfg.Machine.Scale(cfg.Scale)
	if cfg.System != SystemDeepUM {
		if cfg.Policy != "" {
			return nil, &PolicyUnsupportedError{System: cfg.System, Policy: cfg.Policy}
		}
		if cfg.ResumeState != nil {
			return nil, fmt.Errorf("deepum: Config.ResumeState carries prefetch-policy state; system %q runs no prefetch policy", cfg.System)
		}
	}
	if !policy.Known(cfg.Policy) {
		return nil, &UnknownPolicyError{Name: cfg.Policy}
	}
	if cfg.ResumeState != nil {
		if !policy.Known(cfg.ResumeState.Policy) {
			return nil, &UnknownPolicyError{Name: cfg.ResumeState.Policy}
		}
		if cfg.Policy != "" && cfg.ResumeState.Policy != cfg.Policy {
			return nil, fmt.Errorf("deepum: Config.ResumeState holds %q policy state but Config.Policy selects %q", cfg.ResumeState.Policy, cfg.Policy)
		}
	}
	switch cfg.System {
	case SystemUM, SystemDeepUM, SystemIdeal:
		policy := engine.PolicyUM
		drv := core.Options{}
		switch cfg.System {
		case SystemDeepUM:
			policy = engine.PolicyDeepUM
			drv = cfg.Driver
			if !drv.Prefetch && !drv.Preevict && !drv.Invalidate {
				drv = core.DefaultOptions()
			}
			if drv.Prefetch && drv.Degree < 1 {
				return nil, fmt.Errorf("deepum: prefetch degree must be >= 1, got %d (the paper sweeps 1-128, headline N=32)", drv.Degree)
			}
			drv.Policy = cfg.Policy
			if cfg.ResumeState != nil {
				drv.Policy = cfg.ResumeState.Policy
				drv.WarmPayload = cfg.ResumeState.Payload
			}
		case SystemIdeal:
			policy = engine.PolicyIdeal
		}
		var inj *chaos.Injector
		if scenario.Active() {
			seed := cfg.ChaosSeed
			if seed == 0 {
				seed = cfg.Seed
			}
			inj = chaos.NewInjector(scenario, seed)
		}
		var hc *health.Controller
		if cfg.Health != nil {
			hc = health.NewController(*cfg.Health)
		}
		r, err := engine.RunContext(ctx, engine.Config{
			Params:        params,
			Program:       prog,
			Policy:        policy,
			DriverOptions: drv,
			Iterations:    cfg.Iterations,
			Warmup:        cfg.Warmup,
			Seed:          cfg.Seed,
			Chaos:         inj,
			Deadline:      cfg.Deadline,
			Health:        hc,
			Obs:           cfg.Observe.recorder(),
		})
		if err != nil {
			return nil, err
		}
		res := &Result{
			System:                 cfg.System,
			Status:                 r.Status,
			Iterations:             r.Iterations,
			IterationTime:          r.IterTime(),
			TotalTime:              r.TotalTime,
			PageFaultsPerIteration: r.FaultsPerIter,
			TrafficH2D:             r.TrafficH2D,
			TrafficD2H:             r.TrafficD2H,
			EnergyJoules:           r.EnergyJoules,
			CorrelationTableBytes:  r.DriverTableBytes,
			PrefetchIssued:         r.Driver.PrefetchIssued,
			PrefetchUseful:         r.Driver.PrefetchUseful,
			ChaosStats:             r.Chaos,
			IterStats:              r.IterStats,
			Invariant:              r.Invariant,
			Breaker:                r.Breaker,
			DiscardedPrefetches:    r.DiscardedPrefetches,
			Health:                 r.Health,
			AccessChecksum:         r.AccessChecksum,
			prefetcher:             r.Prefetcher,
		}
		if r.Prefetcher != nil {
			res.Policy = r.Prefetcher.Name()
		}
		return res, nil
	default:
		if scenario.Active() {
			return nil, fmt.Errorf("deepum: chaos scenario %q applies to the UM-side systems (um, deepum, ideal); %q manages memory at tensor level and has no UM substrate to perturb", scenario.Name, cfg.System)
		}
		if cfg.Deadline > 0 {
			return nil, fmt.Errorf("deepum: Config.Deadline bounds the UM-side event simulation; system %q does not run one", cfg.System)
		}
		if cfg.Observe != nil {
			return nil, fmt.Errorf("deepum: Config.Observe traces the UM-side event simulation; system %q does not run one", cfg.System)
		}
		if cfg.Health != nil {
			return nil, fmt.Errorf("deepum: Config.Health monitors the UM-side event simulation; system %q does not run one", cfg.System)
		}
		pl, err := plannerFor(cfg.System)
		if err != nil {
			return nil, err
		}
		r, err := baselines.Run(baselines.Config{
			Params:     params,
			Program:    prog,
			Planner:    pl,
			Iterations: cfg.Iterations,
			Warmup:     cfg.Warmup,
		})
		if err != nil {
			return nil, err
		}
		return &Result{
			System:        cfg.System,
			Status:        StatusCompleted,
			Iterations:    r.Iterations,
			IterationTime: r.IterTime(),
			TotalTime:     r.TotalTime,
			TrafficH2D:    r.TrafficH2D,
			TrafficD2H:    r.TrafficD2H,
			EnergyJoules:  r.EnergyJoules,
		}, nil
	}
}

func plannerFor(s System) (baselines.Planner, error) {
	switch s {
	case SystemLMS:
		return baselines.NewLMS(), nil
	case SystemLMSMod:
		return baselines.NewLMSMod(), nil
	case SystemVDNN:
		return baselines.VDNN{}, nil
	case SystemAutoTM:
		return baselines.AutoTM{}, nil
	case SystemSwapAdvisor:
		return baselines.NewSwapAdvisor(), nil
	case SystemCapuchin:
		return baselines.Capuchin{}, nil
	case SystemSentinel:
		return baselines.Sentinel{}, nil
	}
	return nil, fmt.Errorf("deepum: unknown system %q", s)
}

// RunExperiment regenerates one paper table or figure by ID (e.g. "fig9a",
// "table5") and returns the rendered result.
func RunExperiment(id string, opts ExperimentOptions) (*metrics.Table, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}

// V100_32GB returns the paper's Table 1 machine.
func V100_32GB() sim.Params { return sim.DefaultParams() }

// V100_16GB returns the §6.4 comparison machine.
func V100_16GB() sim.Params { return sim.V100_16GB() }

// BuildProgram exposes the workload generator for custom engines and tools.
func BuildProgram(w Workload, scale int64) (*workload.Program, error) {
	return models.Build(models.Spec{Model: w.Model, Dataset: w.Dataset}, w.Batch, scale)
}
