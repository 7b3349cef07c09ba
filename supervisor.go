package deepum

// Multi-run supervision. NewSupervisor lifts the single-run lifecycle
// machinery (TrainContext, typed RunStatus, warm-state checkpoints) to a
// production-shaped serving layer: a bounded worker pool executes many
// concurrent runs, admission control rejects overload with typed errors,
// per-run quotas partition a simulated GPU memory budget, watchdogs cancel
// hung runs, and a crash-safe journal lets a restarted supervisor resume
// interrupted runs from their latest checkpoints. cmd/deepum-serve exposes
// the same layer over HTTP.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"deepum/internal/correlation"
	"deepum/internal/federation"
	"deepum/internal/supervisor"
)

// NewSupervisor builds a multi-run supervisor whose workers execute
// TrainContext. Zero-valued config fields get production defaults; set
// SupervisorConfig.JournalPath to survive process kills (the journal is
// replayed on the next NewSupervisor and interrupted runs resume from
// their last checkpoint).
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Runner == nil {
		cfg.Runner = TrainRunner()
	}
	if cfg.Estimate == nil {
		cfg.Estimate = EstimateMemoryDemand
	}
	return supervisor.New(cfg)
}

// NewFederation builds a sharded supervisor fleet: a consistent-hash ring
// of supervisors behind one admission front-end, each shard journaling to
// FederationOptions.JournalDir/shard-<n>.journal. When a shard is killed,
// Federation.Handoff replays its journal and the surviving peers adopt its
// runs (finished stay finished, queued restart cold, interrupted resume
// from their latest checkpoint). As with NewSupervisor, nil Runner and
// Estimate default to the TrainContext-backed runner and the
// workload-footprint estimator.
func NewFederation(cfg FederationOptions) (*Federation, error) {
	if cfg.Supervisor.Runner == nil {
		cfg.Supervisor.Runner = TrainRunner()
	}
	if cfg.Supervisor.Estimate == nil {
		cfg.Supervisor.Estimate = EstimateMemoryDemand
	}
	return federation.New(cfg)
}

// EstimateMemoryDemand is the default admission estimator: a run is
// charged its workload's scaled memory footprint against the supervisor's
// simulated GPU memory budget. A footprint depends only on the workload
// and the scale, so each is built once and then remembered.
func EstimateMemoryDemand(spec RunSpec) (int64, error) {
	scale := spec.Scale
	if scale < 1 {
		scale = DefaultConfig().Scale
	}
	key := footprintKey{model: spec.Model, dataset: spec.Dataset, batch: spec.Batch, scale: scale}
	if n, ok := footprints.get(key); ok {
		return n, nil
	}
	prog, err := BuildProgram(Workload{Model: spec.Model, Dataset: spec.Dataset, Batch: spec.Batch}, scale)
	if err != nil {
		return 0, err
	}
	n := prog.FootprintBytes()
	footprints.put(key, n)
	return n, nil
}

// footprints remembers EstimateMemoryDemand's answers. Sharing one table
// across supervisors is safe because a footprint is a pure function of
// its key.
var footprints footprintCache

type footprintKey struct {
	model, dataset string
	batch, scale   int64
}

// footprintCacheCap bounds the table: a server accepts arbitrary specs,
// so a full table is cleared rather than grown.
const footprintCacheCap = 256

type footprintCache struct {
	mu sync.Mutex
	m  map[footprintKey]int64
}

func (c *footprintCache) get(k footprintKey) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.m[k]
	return n, ok
}

func (c *footprintCache) put(k footprintKey, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[footprintKey]int64)
	}
	if len(c.m) >= footprintCacheCap {
		clear(c.m)
	}
	c.m[k] = n
}

// TrainRunner returns the supervisor runner backed by TrainContext. It
// honors context cancellation (watchdog, Cancel, drain escalation) at
// simulated-event granularity for the UM-side systems, and — for DeepUM
// runs with RunSpec.CheckpointEvery set — executes the run in iteration
// chunks, surfacing a warm-state checkpoint after each chunk so the
// supervisor can journal resumable progress mid-run. Runs with
// RunSpec.Health set report each degradation-ladder move to the
// supervisor as it happens.
func TrainRunner() supervisor.Runner { return supervisor.RunnerFunc(runTrain) }

func runTrain(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (supervisor.Outcome, error) {
	w := Workload{Model: spec.Model, Dataset: spec.Dataset, Batch: spec.Batch}
	cfg := DefaultConfig()
	if spec.System != "" {
		cfg.System = System(spec.System)
	}
	if spec.Scale > 0 {
		cfg.Scale = spec.Scale
	}
	if spec.Iterations > 0 {
		cfg.Iterations = spec.Iterations
	}
	if spec.Warmup > 0 {
		cfg.Warmup = spec.Warmup
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	cfg.Chaos = spec.Chaos
	cfg.ChaosSeed = spec.ChaosSeed
	cfg.Policy = spec.Policy
	if spec.Health {
		opt := HealthOptions{}
		if report := supervisor.HealthReporterFromContext(ctx); report != nil {
			opt.OnTransition = func(t HealthTransition) { report(int(t.To)) }
		}
		// Under oversubscription the supervisor attaches the arbiter's
		// pressure gauge to the run context; feeding it into the health
		// controller lets pressured runs shed prefetch aggressiveness
		// through the ordinary ladder gates instead of a side channel.
		if pf := supervisor.PressureFromContext(ctx); pf != nil {
			opt.Pressure = pf
		}
		cfg.Health = &opt
	}
	if len(resume) > 0 {
		if cfg.System != SystemDeepUM {
			return supervisor.Outcome{}, fmt.Errorf("deepum: resume checkpoint for system %q (only deepum has warm state)", cfg.System)
		}
		st, err := LoadPolicyCheckpoint(bytes.NewReader(resume))
		if err != nil {
			return supervisor.Outcome{}, fmt.Errorf("deepum: decoding resume checkpoint: %w", err)
		}
		cfg.ResumeState = st
		// trainProgram rejects a spec whose Policy disagrees with the
		// envelope's recorded policy name.
		// Policy state is warm; one warmup iteration rebuilds GPU residency.
		cfg.Warmup = 1
	}
	progress(nil) // liveness before the first (potentially long) chunk

	// Every chunk trains on one program: the engine only reads it.
	cfg, scenario, err := trainDefaults(w, cfg)
	if err != nil {
		return supervisor.Outcome{}, err
	}
	prog, err := BuildProgram(w, cfg.Scale)
	if err != nil {
		return supervisor.Outcome{}, err
	}
	// An unchunked run, and any run of a system without warm state, is one
	// chunk of all its iterations.
	total := cfg.Iterations
	chunk := spec.CheckpointEvery
	if chunk <= 0 || cfg.System != SystemDeepUM {
		chunk = total
	}
	var agg runAggregate
	for {
		cfg.Iterations = min(chunk, total-agg.iterations)
		res, err := trainProgram(ctx, prog, cfg, scenario)
		if err != nil {
			return supervisor.Outcome{}, err
		}
		agg.add(res)
		// One encode per chunk serves both the checkpoint bytes and the next
		// chunk's resume state.
		st := PolicyCheckpointOf(res)
		ck := checkpointBytes(st)
		if res.Status.Interrupted() || res.Iterations == 0 || agg.iterations >= total {
			// The supervisor journals the final checkpoint from the outcome.
			return agg.outcome(res, ck), nil
		}
		progress(ck)
		cfg.ResumeState = st
		cfg.Warmup = 1
	}
}

// checkpointBytes frames warm policy state as checkpoint bytes, or nil when
// there is none.
func checkpointBytes(st *PolicyState) []byte {
	if st == nil {
		return nil
	}
	ck, err := correlation.AppendEnvelope(nil, st.Policy, st.Payload)
	if err != nil {
		return nil
	}
	return ck
}

// runAggregate folds per-chunk results into one outcome (chunked runs
// report totals across chunks, mirroring what one uninterrupted run would
// have measured — the PR-2 resume-equivalence guarantee makes the chunks
// steady-state comparable).
type runAggregate struct {
	iterations int
	faults     int64
	totalTime  int64 // virtual ns across measured iterations
	checksum   uint64
	degraded   bool

	// Health folding: each chunk runs a fresh controller (starting at L0),
	// so the aggregate keeps the worst level and the concatenated
	// transition log across chunks.
	healthSeen  bool
	healthMax   HealthLevel
	healthTrans int
	healthLog   []HealthTransition
}

func (a *runAggregate) add(res *Result) {
	a.iterations += res.Iterations
	a.faults += res.PageFaultsPerIteration * int64(res.Iterations)
	a.totalTime += int64(res.TotalTime)
	// Order-sensitive FNV fold: chunk N+1's access stream depends on the
	// warm state chunk N produced, so the folded checksum is a witness that
	// a resumed run replayed the same chunk sequence an uninterrupted run
	// would have (the failover-equivalence comparison).
	a.checksum = a.checksum*0x100000001b3 ^ res.AccessChecksum
	if res.Status == StatusDegraded {
		a.degraded = true
	}
	if res.Health != nil {
		a.healthSeen = true
		if lvl := res.Health.MaxLevelValue(); lvl > a.healthMax {
			a.healthMax = lvl
		}
		a.healthTrans += res.Health.Transitions
		a.healthLog = append(a.healthLog, res.Health.TransitionLog...)
	}
}

func (a *runAggregate) outcome(last *Result, ck []byte) supervisor.Outcome {
	status := last.Status
	if status == StatusCompleted && a.degraded {
		status = StatusDegraded
	}
	out := supervisor.Outcome{
		Status:         status.String(),
		Iterations:     a.iterations,
		AccessChecksum: a.checksum,
		Checkpoint:     ck,
	}
	if a.iterations > 0 {
		out.IterationTime = time.Duration(a.totalTime / int64(a.iterations))
		out.FaultsPerIteration = a.faults / int64(a.iterations)
	}
	if a.healthSeen && last.Health != nil {
		rep := *last.Health
		rep.MaxLevel = a.healthMax.String()
		rep.Transitions = a.healthTrans
		rep.TransitionLog = a.healthLog
		out.Health = &rep
	}
	return out
}
