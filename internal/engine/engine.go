// Package engine executes a training workload against the Unified Memory
// substrate under a configurable policy: naive UM (the NVIDIA driver alone),
// or DeepUM with any subset of its mechanisms. It is the measurement
// apparatus behind every UM-side number of the paper's evaluation —
// iteration times (Fig. 9), fault counts (Table 5), ablation (Fig. 10),
// degree sensitivity (Fig. 11), table parameters (Fig. 12), and energy
// (Fig. 9c/11b).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"deepum/internal/chaos"
	"deepum/internal/core"
	"deepum/internal/correlation"
	"deepum/internal/health"
	"deepum/internal/obs"
	"deepum/internal/policy"

	// All built-in prefetch policies register themselves so run configs and
	// discovery listings resolve them anywhere the engine is linked.
	_ "deepum/internal/policy/gpuvm"
	_ "deepum/internal/policy/learned"
	"deepum/internal/sim"
	"deepum/internal/torchalloc"
	"deepum/internal/um"
	"deepum/internal/workload"
)

// Policy selects the memory-management stack.
type Policy uint8

const (
	// PolicyUM is the naive CUDA Unified Memory baseline: on-demand fault
	// migration, stock least-recently-migrated eviction, no prefetching.
	PolicyUM Policy = iota
	// PolicyDeepUM runs the DeepUM driver with the options in
	// Config.DriverOptions.
	PolicyDeepUM
	// PolicyIdeal gives the device unbounded memory: the no-oversubscription
	// upper bound used for the "Ideal" bars of Figures 9 and 13.
	PolicyIdeal
)

func (p Policy) String() string {
	switch p {
	case PolicyUM:
		return "UM"
	case PolicyDeepUM:
		return "DeepUM"
	case PolicyIdeal:
		return "Ideal"
	}
	return "unknown"
}

// Config parameterizes one simulated training run.
type Config struct {
	Params  sim.Params
	Program *workload.Program
	Policy  Policy
	// DriverOptions configure the DeepUM driver (PolicyDeepUM only).
	DriverOptions core.Options
	// Iterations is the number of measured training iterations.
	Iterations int
	// Warmup iterations run before measurement starts (the correlation
	// tables learn during them). Defaults to 2 when zero.
	Warmup int
	// Seed drives the irregular-access sampler.
	Seed int64
	// UMDensityPrefetch enables the NVIDIA driver's neighborhood heuristic
	// on the fault path (whole-block coalescing for dense faults) — an
	// ablation point between naive UM and DeepUM.
	UMDensityPrefetch bool
	// Obs, when set, attaches the structured observability layer: typed
	// spans and instants (iterations, kernels, fault batches, the prefetch
	// lifecycle, evictions, link occupancy, breaker transitions, queue
	// depths) in virtual time, exportable as a Chrome/Perfetto trace. Nil —
	// the default — costs one branch per emit site and zero allocations.
	Obs *obs.Recorder
	// Chaos, when set, perturbs the run: link degradation and jitter,
	// transient transfer failures (retried with backoff; prefetches give up
	// and fall back to on-demand faulting), fault-buffer overflow, dropped
	// and duplicated driver notifications, host-pressure spikes, and
	// migration-thread stalls. Injection is deterministic per injector seed.
	// The invariant checker runs regardless of whether Chaos is set.
	Chaos *chaos.Injector
	// Health, when set, attaches the closed-loop health controller: the
	// run's degradation telemetry (transfer failures/retries, prefetch
	// waste and late hits, fault-batch latency, breaker transitions,
	// migrator stalls) feeds per-component EWMA scores, and the resulting
	// ladder level gates speculation — prefetch issue and enqueue, chaining
	// degree, pre-eviction, fault-batch size, eviction policy. Nil (the
	// default) disables the ladder entirely; the demand path is never
	// gated, so correctness is identical at every level.
	Health *health.Controller

	// Deadline bounds the run in VIRTUAL (simulated) time: the run stops at
	// the first event at or past this budget with StatusDeadlineExceeded.
	// Unlike a context deadline it is deterministic under a fixed seed —
	// the chaos scenario "deadline-tight" uses it. Zero means unbounded.
	Deadline sim.Duration
}

// Result aggregates the measurements of a run. Interrupted runs (Status
// cancelled or deadline-exceeded) return a partial Result: Iterations and
// the per-iteration slices cover only what completed, and the aggregate
// counters cover the run up to the stop event.
type Result struct {
	Policy Policy
	// Iterations is the number of measured iterations that actually
	// completed — equal to the configured count only for uninterrupted runs.
	Iterations int
	// Status classifies how the run ended; see RunStatus.
	Status RunStatus

	TotalTime sim.Duration // measured iterations only
	IterTimes []sim.Duration
	// IterStats covers every completed iteration, warmup included, with
	// per-iteration fault and prefetch counts (the checkpoint/resume
	// equivalence trace).
	IterStats []IterStat
	GPUBusy   sim.Duration // SM-active time within measured iterations
	LinkBusy  sim.Duration // link-active (either direction) time

	// FaultsPerIter is the average page-fault count per measured iteration
	// (Table 5).
	FaultsPerIter int64
	Handler       um.HandlerStats
	Driver        core.Stats
	// DriverTableBytes is the prefetch policy's state memory — the
	// correlation-table bytes of Table 4 under the default policy.
	DriverTableBytes int64
	// Prefetcher is the prefetch policy the driver ran, holding the warm
	// state it learned (the correlation tables under the default policy);
	// nil for non-DeepUM system policies. The engine serializes nothing:
	// a caller that checkpoints calls Prefetcher.Save.
	Prefetcher policy.Policy

	TrafficH2D, TrafficD2H int64
	PeakAllocBytes         int64
	EnergyJoules           float64

	// Chaos reports what the injector delivered; zero without injection.
	Chaos chaos.Stats

	// Invariant is the first invariant-checker violation, reported through
	// the result (Status degraded) instead of aborting the caller; nil on a
	// consistent run.
	Invariant *chaos.InvariantError
	// Breaker snapshots the prefetch circuit breaker (zero value for
	// policies without a driver).
	Breaker BreakerStats
	// DiscardedPrefetches counts queued prefetch commands thrown away when
	// the run was interrupted (demand work drains; speculation does not).
	DiscardedPrefetches int64
	// Health summarizes the degradation ladder when Config.Health was set
	// (nil otherwise): final and max level, transition log, peak scores.
	Health *health.Report
	// AccessChecksum is an FNV-1a digest of the ordered GPU access sequence
	// (block, pages, write per touch). The sequence depends only on the
	// workload and Seed — never on timing, chaos, or the ladder level — so
	// equal checksums across configurations certify that degradation
	// changed scheduling, not computation.
	AccessChecksum uint64
}

// IterTime returns the mean measured iteration time.
func (r *Result) IterTime() sim.Duration {
	if r.Iterations == 0 {
		return 0
	}
	return r.TotalTime / sim.Duration(r.Iterations)
}

// Run executes the configured training run and returns its measurements.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a supervising context: once ctx is cancelled or
// its deadline expires, the run stops at the next simulated event, drains
// demand work, discards prefetches, and returns a partial Result (nil
// error) tagged StatusCancelled or StatusDeadlineExceeded. A nil ctx never
// interrupts.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("engine: nil program")
	}
	if cfg.Iterations < 1 {
		cfg.Iterations = 1
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 2
	}
	e, err := newExec(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// touch is one UM-block access of a kernel.
type touch struct {
	block um.BlockID
	pages int64
	write bool
}

type exec struct {
	cfg     Config
	params  sim.Params
	space   *um.Space
	res     *um.Residency
	link    *sim.Duplex
	linkTL  *sim.Timeline
	alloc   *torchalloc.Allocator
	handler *um.Handler
	driver  *core.Driver // nil for PolicyUM / PolicyIdeal
	rng     *rand.Rand
	chaos   *chaos.Injector    // nil-safe: methods on a nil injector inject nothing
	health  *health.Controller // nil-safe: a nil controller never degrades

	bases  map[workload.TensorID]um.Addr
	inputs []workload.TensorID
	// prefetched marks, indexed by UM block, a prefetched block no kernel
	// has touched since. Only migrate sets a mark, for a block inside the
	// space's block table, so it grows no further than that table.
	prefetched []bool
	// execIDs maps a launch-command hash to its execution ID (launchID);
	// nil without a driver, which is the only reader of the IDs.
	execIDs map[uint64]correlation.ExecID
	// pending is a prefetch command parked because eviction would have
	// displaced protected blocks, when parked is set; retried on the next
	// pump.
	pending core.PrefetchCommand
	parked  bool
	// evictedInCycle records blocks evicted while the current fault cycle
	// runs, so the served-invariant check can tell "served then displaced"
	// (legitimate; the GPU replays) from "silently lost" (a bug).
	evictedInCycle map[um.BlockID]bool

	now     sim.Time
	cmdTime sim.Time // when the pending prefetch commands became available
	gpuBusy sim.Duration
	// launches counts kernel launches, to yield every yieldEvery of them.
	launches int

	// Run-lifecycle supervision (lifecycle.go): the supervising context, the
	// absolute virtual-time deadline (0 = none), the status recorded by the
	// first interrupt check that fired, and the first invariant violation.
	ctx       context.Context
	deadline  sim.Time
	status    RunStatus
	invariant *chaos.InvariantError
	// breaker is the prefetch circuit breaker (breaker.go); nil (and
	// nil-safe) for policies without a driver.
	breaker *prefetchBreaker

	touchBuf []touch
	groupBuf []um.FaultGroup

	// accessSum folds every touch in program order (see Result.AccessChecksum).
	accessSum uint64

	obs *obs.Recorder
}

func newExec(ctx context.Context, cfg Config) (*exec, error) {
	params := cfg.Params
	// The UM address space is virtual: untouched segment tails consume no
	// host RAM, so the space itself is unbounded and the backing-store wall
	// is enforced on live (active PT block) bytes below.
	space := um.NewSpace(0)
	capacity := params.GPUMemory
	if cfg.Policy == PolicyIdeal {
		capacity = 1 << 62 // ideal runs also ignore the host wall
	}
	linkTL := &sim.Timeline{}
	e := &exec{
		cfg:       cfg,
		params:    params,
		space:     space,
		res:       um.NewResidency(space, capacity),
		link:      sim.NewDuplex(params, linkTL),
		linkTL:    linkTL,
		alloc:     torchalloc.New(space),
		rng:       rand.New(rand.NewSource(cfg.Seed + 1)),
		chaos:     cfg.Chaos,
		health:    cfg.Health,
		bases:     make(map[workload.TensorID]um.Addr),
		accessSum: fnvOffset,
	}
	if e.chaos != nil {
		e.link.SetPerturber(e.chaos)
		// Phased (scheduled) injection needs to locate itself in virtual
		// time; static scenarios ignore the clock.
		e.chaos.SetClock(func() sim.Time { return e.now })
	}
	if e.health != nil {
		e.health.SetObserver(cfg.Obs)
	}
	e.ctx = ctx
	// Virtual-time deadline: explicit config first, else the chaos
	// scenario's. Runs start at virtual time zero, so the budget is the
	// absolute deadline.
	if cfg.Deadline > 0 {
		e.deadline = sim.Time(cfg.Deadline)
	} else if vd := e.chaos.VirtualDeadline(); vd > 0 {
		e.deadline = sim.Time(vd)
	}
	var policy um.EvictionPolicy = um.LRMPolicy{}
	var invalidator um.Invalidator = um.NoInvalidate{}
	if cfg.Policy == PolicyDeepUM {
		if cfg.DriverOptions.TakeWindow == 0 && params.ScaleDivisor > 1 {
			w := 64 / int(params.ScaleDivisor)
			if w < 4 {
				w = 4
			}
			cfg.DriverOptions.TakeWindow = w
		}
		if e.chaos != nil {
			// Table capacity pressure: shrink the row count before the driver
			// sizes its tables (default the config first so the divisor has
			// something to act on).
			if cfg.DriverOptions.TableConfig.NumRows == 0 {
				cfg.DriverOptions.TableConfig = correlation.DefaultBlockTableConfig()
			}
			cfg.DriverOptions.TableConfig = e.chaos.ShrinkTables(cfg.DriverOptions.TableConfig)
		}
		drv, err := core.NewDriverFor(cfg.DriverOptions, e.res)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		e.driver = drv
		e.execIDs = make(map[uint64]correlation.ExecID)
		policy = e.driver
		invalidator = e.driver
		if e.health != nil {
			// The ladder gates speculation at its source (the enqueue point)
			// and, at L3, drops victim selection back to stock LRM — the
			// protected-set predictions are speculation the run no longer
			// honors.
			e.driver.SetHealthGate(e.health)
			policy = um.SwitchPolicy{
				Base:        e.driver,
				Fallback:    um.LRMPolicy{},
				UseFallback: e.health.UseFallbackEviction,
			}
		}
		if e.driver.Options().Prefetch {
			e.breaker = newPrefetchBreaker()
			e.breaker.obs = cfg.Obs
			if e.health != nil {
				// The breaker stays intact as a fast local mechanism; its
				// transitions become one (severe) input to the ladder.
				hc := e.health
				e.breaker.onTransition = func(now sim.Time, from, to string) {
					hc.ObserveBreaker(int64(now), from, to)
				}
			}
		}
		e.alloc.OnActive = e.driver.OnPTActive
		e.alloc.OnInactive = e.driver.OnPTInactive
	}
	e.obs = cfg.Obs
	e.handler = &um.Handler{
		Params:          params,
		Space:           space,
		Res:             e.res,
		Link:            e.link,
		Policy:          policy,
		Invalidator:     invalidator,
		DensityPrefetch: cfg.UMDensityPrefetch,
		Ctx:             ctx,
		Obs:             cfg.Obs,
	}
	if e.health != nil {
		hc := e.health
		e.handler.OnBatch = func(start, end sim.Time, blocks int) {
			hc.ObserveFaultBatch(int64(end), int64(end.Sub(start)))
		}
		e.handler.OnTransferRetry = func(at sim.Time) {
			hc.ObserveTransferFailure(int64(at))
		}
	}
	if rec := cfg.Obs; rec != nil {
		// Link occupancy: every reservation on either lane becomes one span,
		// tagged with the lane track so Perfetto renders per-direction rows.
		e.link.SetObserver(func(start, end sim.Time, n int64, dir sim.Direction, failed bool) {
			track, name := obs.TrackLinkH2D, "h2d"
			if dir == sim.DeviceToHost {
				track, name = obs.TrackLinkD2H, "d2h"
			}
			var failedArg int64
			if failed {
				failedArg = 1
			}
			rec.Span(obs.KindLinkTransfer, track, int64(start), int64(end), name, 0, n, failedArg)
		})
		if e.driver != nil {
			e.driver.SetObserver(rec, func() int64 { return int64(e.now) })
		}
	}
	if e.driver != nil {
		e.handler.OnMigrated = func(b um.BlockID) {
			// Chaos can lose the notification (interrupt coalescing: the
			// handler served the block but the driver never learns of it) or
			// deliver it twice (a replayed interrupt; the correlator and
			// prefetcher must tolerate duplicates without corrupting state).
			if !e.chaos.DropNotify() {
				e.driver.OnFault(b)
				if e.chaos.DupNotify() {
					e.driver.OnFault(b)
				}
			}
		}
	}
	e.handler.OnEvicted = func(b um.BlockID) {
		e.dropPrefetched(b)
		if e.evictedInCycle != nil {
			e.evictedInCycle[b] = true
		}
		if e.driver != nil {
			e.driver.NoteEviction(b)
		}
	}

	// Setup phase: allocate persistent tensors through the caching
	// allocator, exactly as PyTorch would.
	for _, s := range cfg.Program.Setup {
		if s.Kind != workload.StepAlloc {
			continue
		}
		if err := e.allocTensor(s.Tensor); err != nil {
			return nil, fmt.Errorf("engine: setup allocation of %q: %w",
				cfg.Program.Tensors[s.Tensor].Name, err)
		}
	}
	// Input tensors are written by the host every iteration: their content
	// starts (and stays) host-populated.
	for _, t := range cfg.Program.Tensors {
		if t.Kind == workload.Input && t.Persistent {
			e.inputs = append(e.inputs, t.ID)
			e.markHostPopulated(t.ID)
		}
	}
	return e, nil
}

func (e *exec) allocTensor(id workload.TensorID) error {
	t := e.cfg.Program.Tensors[id]
	b, err := e.alloc.Alloc(t.Bytes)
	if err != nil {
		return err
	}
	if e.cfg.Policy != PolicyIdeal && e.params.HostMemory > 0 &&
		e.alloc.Stats().ActiveBytes > e.params.HostMemory {
		return fmt.Errorf("engine: %w: %d live bytes exceed the CPU backing store",
			um.ErrHostExhausted, e.alloc.Stats().ActiveBytes)
	}
	e.bases[id] = b.Base
	return nil
}

func (e *exec) markHostPopulated(id workload.TensorID) {
	t := e.cfg.Program.Tensors[id]
	first, last := um.BlockSpan(e.bases[id], t.Bytes)
	for b := first; b <= last; b++ {
		e.space.Block(b).HostPopulated = true
	}
}

func (e *exec) run() (*Result, error) {
	res := &Result{Policy: e.cfg.Policy}
	var measureStart sim.Time
	var faultsAtMeasureStart int64
	var busyAtMeasureStart sim.Duration
	var prevFaults, prevIssued, prevUseful int64

	total := e.cfg.Warmup + e.cfg.Iterations
	for iter := 0; iter < total; iter++ {
		if e.interrupted() {
			break
		}
		if iter == e.cfg.Warmup {
			measureStart = e.now
			faultsAtMeasureStart = e.handler.Stats.PageFaults
			busyAtMeasureStart = e.gpuBusy
		}
		iterStart := e.now
		err := e.iteration()
		stopped := errors.Is(err, errRunInterrupted)
		if err != nil && !stopped {
			// An invariant violation is reported through the result (Status
			// degraded) so supervised callers decide policy; any other error
			// (OOM, bad workload) still fails the run outright.
			var inv *chaos.InvariantError
			if !errors.As(err, &inv) {
				return nil, err
			}
			e.invariant = inv
			break
		}
		// Always-on invariant checker: residency accounting balanced, link
		// timeline well-formed, driver bookkeeping coherent — under every
		// chaos scenario and under none, including after a partial
		// (interrupted) iteration: stopping must not corrupt state.
		if err := e.checkInvariants(); err != nil {
			var inv *chaos.InvariantError
			if !errors.As(err, &inv) {
				return nil, fmt.Errorf("engine: after iteration %d: %w", iter, err)
			}
			e.invariant = inv
			break
		}
		if stopped {
			break
		}
		stat := IterStat{
			Warmup: iter < e.cfg.Warmup,
			Time:   e.now.Sub(iterStart),
			Faults: e.handler.Stats.PageFaults - prevFaults,
		}
		if e.driver != nil {
			stat.PrefetchIssued = e.driver.Stats.PrefetchIssued - prevIssued
			stat.PrefetchUseful = e.driver.Stats.PrefetchUseful - prevUseful
			prevIssued = e.driver.Stats.PrefetchIssued
			prevUseful = e.driver.Stats.PrefetchUseful
		}
		prevFaults = e.handler.Stats.PageFaults
		res.IterStats = append(res.IterStats, stat)
		if e.obs != nil {
			var warm int64
			if stat.Warmup {
				warm = 1
			}
			e.obs.Span(obs.KindIteration, obs.TrackRun, int64(iterStart), int64(e.now),
				"", int64(iter), stat.Faults, warm)
		}
		if iter >= e.cfg.Warmup {
			res.IterTimes = append(res.IterTimes, stat.Time)
		}
	}

	// Finalize — valid for complete and partial runs alike. A run cut during
	// warmup never opened the measurement window, so the window degenerates
	// to [0, now) with zero measured iterations.
	// A final ladder tick so post-injection recovery observed up to the last
	// event is reflected in the report.
	e.health.Tick(int64(e.now))
	if e.status == StatusCompleted && (e.invariant != nil ||
		(e.breaker != nil && e.breaker.opens > 0) || e.health.MaxLevel() > health.L0) {
		e.status = StatusDegraded
	}
	res.Status = e.status
	res.Invariant = e.invariant
	res.Iterations = len(res.IterTimes)
	res.TotalTime = e.now.Sub(measureStart)
	res.GPUBusy = e.gpuBusy - busyAtMeasureStart
	res.LinkBusy = e.linkTL.Busy()
	if res.Iterations > 0 {
		res.FaultsPerIter = (e.handler.Stats.PageFaults - faultsAtMeasureStart) / int64(res.Iterations)
	}
	res.Handler = e.handler.Stats
	if e.driver != nil {
		if e.status == StatusCancelled || e.status == StatusDeadlineExceeded {
			// Shutdown policy: demand work already drained at the event
			// boundary; speculative work is discarded.
			res.DiscardedPrefetches = e.driver.DiscardPrefetches()
		}
		res.Driver = e.driver.Stats
		res.Prefetcher = e.driver.Policy()
		res.DriverTableBytes = res.Prefetcher.SizeBytes()
	}
	res.Breaker = e.breaker.snapshot()
	res.Health = e.health.Report()
	res.AccessChecksum = e.accessSum
	res.TrafficH2D, res.TrafficD2H = e.link.Traffic()
	res.PeakAllocBytes = e.alloc.Stats().PeakActiveBytes
	res.EnergyJoules = e.energy(res)
	if e.chaos != nil {
		res.Chaos = e.chaos.Stats
		// Demand-path retries live in the handler's stats (um cannot import
		// chaos); fold them in so Result.Chaos is the complete picture.
		res.Chaos.DemandRetries += e.handler.Stats.TransferRetries
		res.Chaos.BackoffTime += e.handler.Stats.RetryStall
	}
	return res, nil
}

// checkInvariants runs the always-on consistency audit at an iteration
// boundary.
func (e *exec) checkInvariants() error {
	var dc chaos.DriverChecker
	if e.driver != nil {
		dc = e.driver
	}
	return chaos.CheckAll(e.res, e.linkTL, dc)
}

// energy integrates the full-system power model over the measured window,
// the stand-in for the Hioki power meter of Table 1.
func (e *exec) energy(r *Result) float64 {
	secs := r.TotalTime.Seconds()
	return (e.params.PowerSystemBase+e.params.PowerGPUIdle)*secs +
		e.params.PowerGPUBusy*r.GPUBusy.Seconds() +
		e.params.PowerLinkActive*r.LinkBusy.Seconds()
}

func (e *exec) iteration() error {
	if e.driver != nil {
		e.driver.BeginIteration()
	}
	// The host wrote a fresh minibatch: device copies of the input tensors
	// are stale and get unmapped without writeback.
	for _, id := range e.inputs {
		first, last := um.BlockSpan(e.bases[id], e.cfg.Program.Tensors[id].Bytes)
		for b := first; b <= last; b++ {
			e.res.Remove(b)
			e.space.Block(b).HostPopulated = true
		}
	}
	for _, s := range e.cfg.Program.Iteration {
		switch s.Kind {
		case workload.StepAlloc:
			if err := e.allocTensor(s.Tensor); err != nil {
				return fmt.Errorf("engine: allocation of %q: %w",
					e.cfg.Program.Tensors[s.Tensor].Name, err)
			}
		case workload.StepFree:
			if err := e.alloc.Free(e.bases[s.Tensor]); err != nil {
				return err
			}
			delete(e.bases, s.Tensor)
		case workload.StepLaunch:
			if err := e.kernel(s.Kernel); err != nil {
				return err
			}
		}
	}
	return nil
}

// maxFaultBatch bounds how many UM blocks one fault-handling cycle covers:
// the hardware fault buffer is finite.
const maxFaultBatch = 64

// yieldEvery is how many kernel launches a run simulates between yields of
// its processor. A run never blocks, so without them the goroutines that
// share its processor (a server's request handlers) wait for Go's 10 ms
// preemption; yielding at every launch made BenchmarkTrainBertDeepUM about
// a quarter slower on 2 vCPUs.
const yieldEvery = 16

// kernel simulates one launch: the runtime callback, the faulting walk over
// the kernel's UM-block accesses, and the roofline compute time, with the
// migration thread pumping prefetch and pre-eviction work in the background.
func (e *exec) kernel(k *workload.Kernel) error {
	if e.interrupted() {
		return errRunInterrupted
	}
	if e.launches++; e.launches%yieldEvery == 0 {
		runtime.Gosched()
	}
	// An injected supervisor kill (scenario cancel-mid-iteration) fires on a
	// launch count, deliberately unaligned to iteration boundaries.
	if e.chaos.NoteKernelLaunch() {
		e.status = StatusCancelled
		return errRunInterrupted
	}
	// The ladder is clocked at kernel boundaries: scores decay to the
	// current time and a pending escalation or recovery probe fires here,
	// deterministically in virtual time.
	e.health.Tick(int64(e.now))
	var id correlation.ExecID
	if e.driver != nil {
		// The runtime's pre-launch callback (§3.1): the driver learns which
		// kernel is about to run.
		id = e.launchID(k.Name, k.Args)
		e.driver.KernelLaunch(id)
	}
	kernelStart := e.now
	if e.obs != nil && e.driver != nil {
		e.obs.Counter(obs.TrackDriver, int64(e.now), "prefetch-queue", int64(e.driver.PendingPrefetches()))
	}
	e.cmdTime = e.now
	// An injected migration-thread stall delays when queued commands become
	// serviceable; demand faults still handle at full priority.
	if st := e.chaos.MigratorStall(); st > 0 {
		e.cmdTime = e.cmdTime.Add(st)
		e.health.ObserveMigratorStall(int64(e.now), int64(st))
	}
	e.pump(e.now)

	touches := e.touches(k)
	var bytesTouched int64
	for _, t := range touches {
		bytesTouched += t.pages * sim.PageSize
		e.accessSum = fnvFold(e.accessSum, t)
	}

	i := 0
	for i < len(touches) {
		if e.interrupted() {
			return errRunInterrupted
		}
		t := touches[i]
		blk := e.space.Block(t.block)
		resident := e.res.Resident(t.block)
		if !resident && e.driver != nil && e.speculate(e.now) && e.driver.TakeQueued(t.block) {
			// A prefetch command for this block is already in the queue:
			// the migration thread runs it ahead of the remaining queue
			// (fault avoided; the GPU stalls on the in-flight transfer).
			// Without room, or after a give-up, the access demand-faults.
			e.migrate(t.block, e.now)
			resident = e.res.Resident(t.block)
		}
		if resident {
			// Lead time before the stall adjustment: positive means the block
			// was ready ahead of the access, negative means the GPU waits.
			lead := int64(e.now) - int64(blk.ReadyAt)
			if blk.ReadyAt > e.now {
				// Prefetch in flight: stall until the transfer lands.
				if e.obs != nil {
					e.obs.Instant(obs.KindStall, obs.TrackGPU, int64(e.now),
						"", int64(t.block), int64(blk.ReadyAt.Sub(e.now)), 0)
				}
				e.now = blk.ReadyAt
			}
			// Materialize pages of the block this access covers that an
			// earlier partial fault did not (co-located tensors).
			e.res.TopUp(t.block, t.pages)
			e.res.Touch(t.block, t.write)
			if e.driver != nil {
				e.driver.Unprotect(t.block)
			}
			if e.isPrefetched(t.block) {
				e.prefetched[t.block] = false
				if e.driver != nil {
					e.driver.NotePrefetchUseful()
				}
				if e.obs != nil {
					e.obs.Instant(obs.KindPrefetchHit, obs.TrackGPU, int64(e.now),
						"", int64(t.block), lead, 0)
				}
				if lead < 0 {
					e.health.ObserveLateHit(int64(e.now))
				}
			}
			i++
			continue
		}
		// Batch consecutive non-resident blocks into one fault cycle; a block
		// with a timely prefetch command is not part of the batch — its
		// migration starts as queue work instead.
		e.groupBuf = e.groupBuf[:0]
		// Fault-buffer overflow chaos shrinks the cycle: excess entries
		// replay in the next cycle, as a full hardware buffer forces.
		batchCap := e.health.FaultBatchCap(e.chaos.FaultBatchCap(maxFaultBatch))
		j := i
		for j < len(touches) && len(e.groupBuf) < batchCap {
			tj := touches[j]
			if e.res.Resident(tj.block) {
				break
			}
			if e.driver != nil && e.speculate(e.now) && e.driver.TakeQueued(tj.block) {
				e.migrate(tj.block, e.now)
				break
			}
			e.groupBuf = append(e.groupBuf, um.FaultGroup{Block: tj.block, Count: tj.pages, Write: tj.write})
			j++
		}
		// Let background transfers that start before the fault finish their
		// reservations, then handle the fault with priority.
		e.pump(e.now)
		if e.evictedInCycle == nil {
			e.evictedInCycle = make(map[um.BlockID]bool)
		} else {
			clear(e.evictedInCycle)
		}
		e.now = e.handler.HandleGroups(e.now, e.groupBuf)
		// A cancellation observed during the handling cycle means the handler
		// may have legitimately abandoned trailing groups — skip the served
		// audit for the interrupted cycle and stop.
		if e.interrupted() {
			return errRunInterrupted
		}
		// Every access eventually served: a handling cycle may be slowed by
		// chaos but may never lose a faulted block.
		if err := chaos.CheckServed(e.space, e.res, e.groupBuf, e.evictedInCycle); err != nil {
			return err
		}
		i = j
	}

	// Compute phase: the SMs run while the migration thread keeps pumping.
	dur := e.params.KernelTime(k.FLOPs, bytesTouched+k.ExtraBytes)
	e.gpuBusy += dur
	e.now = e.now.Add(dur)
	e.pump(e.now)
	if e.driver != nil {
		e.driver.KernelComplete(id)
	}
	e.cmdTime = e.now
	e.pump(e.now)
	if e.obs != nil {
		e.obs.Span(obs.KindKernel, obs.TrackGPU, int64(kernelStart), int64(e.now), k.Name, 0, 0, 0)
	}
	return nil
}

// touches expands a kernel's accesses into an ordered UM-block touch list.
func (e *exec) touches(k *workload.Kernel) []touch {
	e.touchBuf = e.touchBuf[:0]
	for _, a := range k.Accesses {
		base, ok := e.bases[a.Tensor]
		if !ok {
			continue // tensor not allocated (defensive; Build validates)
		}
		bytes := e.cfg.Program.Tensors[a.Tensor].Bytes
		first, last := um.BlockSpan(base, bytes)
		if !a.Irregular {
			for b := first; b <= last; b++ {
				e.touchBuf = append(e.touchBuf, touch{b, um.PagesIn(base, bytes, b), a.Write})
			}
			continue
		}
		// Irregular sparse access: sample the block subset fresh each call
		// and visit it in input-dependent (shuffled) order — both the set
		// and the order defeat history-based prediction (§6.2).
		frac := a.Fraction
		if frac <= 0 || frac > 1 {
			frac = 1
		}
		pf := a.PageFraction
		if pf <= 0 || pf > frac {
			pf = frac
		}
		pagesPerBlock := pf / frac * float64(sim.PagesPerBlock)
		if pagesPerBlock < 1 {
			pagesPerBlock = 1
		}
		start := len(e.touchBuf)
		for b := first; b <= last; b++ {
			if frac < 1 && e.rng.Float64() >= frac {
				continue
			}
			pg := int64(pagesPerBlock)
			if full := um.PagesIn(base, bytes, b); pg > full {
				pg = full
			}
			e.touchBuf = append(e.touchBuf, touch{b, pg, a.Write})
		}
		// The driver's fault preprocessing sorts each batch by address, so
		// the handler sees short address-ordered runs arriving in
		// input-dependent order: shuffle runs of blocks, not single blocks.
		sub := e.touchBuf[start:]
		const runLen = 8
		nRuns := (len(sub) + runLen - 1) / runLen
		e.rng.Shuffle(nRuns, func(i, j int) {
			for k := 0; k < runLen; k++ {
				a, b := i*runLen+k, j*runLen+k
				if a < len(sub) && b < len(sub) {
					sub[a], sub[b] = sub[b], sub[a]
				}
			}
		})
	}
	return e.touchBuf
}

// pump advances the migration thread's background work up to the given GPU
// time: pre-evictions keep the watermark of free device memory (§5.1), and
// prefetch commands stream over the H2D lane while it is idle. A transfer
// whose start would land at or beyond `until` stays queued so a future fault
// can jump ahead of it (fault queue > prefetch queue, §3.1).
func (e *exec) pump(until sim.Time) {
	if e.driver == nil {
		return
	}
	// Pre-eviction off the critical path, on the D2H lane. Victims are
	// never blocks predicted for the next N kernels (§5.1). The ladder
	// disables it from L2 up — a sick substrate keeps the D2H lane for
	// demand writebacks only.
	if target := e.driver.PreevictTarget(e.res); target > 0 && e.health.AllowPreevict() {
		victims, _ := e.driver.VictimsForPrefetch(e.res, target)
		for _, v := range victims {
			if e.link.BusyUntil(sim.DeviceToHost) >= until {
				break
			}
			e.evictBackground(v, true)
		}
	}
	// Prefetch stream on the H2D lane. An open circuit breaker short-circuits
	// the whole stream: the run is in pure on-demand mode until the cooldown
	// half-opens it.
	for {
		if e.link.BusyUntil(sim.HostToDevice) >= until {
			return
		}
		if !e.speculate(until) {
			return
		}
		cmd, ok := e.nextPrefetch()
		if !ok {
			return
		}
		if e.migrate(cmd.Block, 0) == noRoom {
			// Everything evictable is predicted for upcoming kernels:
			// displacing it would be self-defeating. Park the command and
			// let demand faults or future frees make room.
			e.pending, e.parked = cmd, true
			return
		}
	}
}

// speculate reports whether prefetch work may run at t. The breaker goes
// first: allow counts a short-circuited opportunity or half-opens it.
func (e *exec) speculate(t sim.Time) bool {
	return e.breaker.allow(t) && e.health.AllowPrefetch()
}

// migration says how a prefetch migration ended.
type migration uint8

const (
	// migrated: the block is on its way, or needed no move (already
	// resident, or never allocated).
	migrated migration = iota
	// noRoom: every evictable block is predicted for upcoming kernels.
	noRoom
	// abandoned: the transfer gave up, and the access demand-faults
	// instead.
	abandoned
)

// migrate starts the whole-block migration of a prefetch command: make room
// without touching protected blocks (victims stream out on the D2H lane, so
// this does not delay the prefetch), then one full-bandwidth transfer, or a
// free zero-fill populate that is ready no earlier than zeroFillFloor.
func (e *exec) migrate(b um.BlockID, zeroFillFloor sim.Time) migration {
	blk := e.space.Lookup(b)
	if blk == nil || blk.AllocatedPages == 0 || e.res.Resident(b) {
		return migrated
	}
	need := blk.Bytes()
	if e.res.Free() < need {
		victims, enough := e.driver.VictimsForPrefetch(e.res, need-e.res.Free())
		if !enough {
			return noRoom
		}
		for _, v := range victims {
			e.evictBackground(v, false)
		}
	}
	at := sim.Max(e.cmdTime, e.link.BusyUntil(sim.HostToDevice))
	ready := sim.Max(at, zeroFillFloor)
	if blk.HostPopulated {
		var ok bool
		if ready, ok = e.prefetchTransfer(at, need); !ok {
			return abandoned
		}
	}
	e.res.Insert(b, blk.AllocatedPages, ready, ready)
	if int(b) >= len(e.prefetched) {
		e.prefetched = append(e.prefetched, make([]bool, int(b)+1-len(e.prefetched))...)
	}
	e.prefetched[b] = true
	if e.obs != nil {
		e.obs.Span(obs.KindPrefetch, obs.TrackDriver, int64(at), int64(ready), "", int64(b), need, 0)
	}
	return migrated
}

// prefetchTransfer moves a whole block H2D for a prefetch, retrying an
// injected transient failure with bounded exponential backoff. Unlike the
// demand path, a prefetch may give up: past MaxPrefetchRetries the command
// is abandoned and the block is served by an on-demand fault when the GPU
// reaches it — the graceful-degradation path that keeps a flaky link from
// wedging the background pipeline. Without injection the first attempt
// always succeeds.
func (e *exec) prefetchTransfer(at sim.Time, need int64) (ready sim.Time, ok bool) {
	for attempt := 0; ; attempt++ {
		_, end, delivered := e.link.ReserveChecked(at, need, sim.HostToDevice)
		if delivered {
			e.breaker.success(end)
			e.health.ObserveTransferSuccess(int64(end))
			return end, true
		}
		e.breaker.failure(end)
		e.health.ObserveTransferFailure(int64(end))
		if attempt >= chaos.MaxPrefetchRetries {
			e.chaos.NotePrefetchGiveUp()
			e.health.ObservePrefetchGiveUp(int64(end))
			return end, false
		}
		if !e.breaker.allow(end) {
			// The breaker opened on this failure: abandon the command without
			// burning the remaining retries — on-demand faulting serves it.
			e.chaos.NotePrefetchGiveUp()
			e.health.ObservePrefetchGiveUp(int64(end))
			return end, false
		}
		e.chaos.NotePrefetchRetry()
		e.health.ObservePrefetchRetry(int64(end))
		at = end.Add(e.chaos.Backoff(attempt))
	}
}

// nextPrefetch returns the parked command first, then the driver queue.
func (e *exec) nextPrefetch() (core.PrefetchCommand, bool) {
	if e.parked {
		e.parked = false
		return e.pending, true
	}
	return e.driver.NextPrefetch()
}

// evictBackground removes one victim off the critical path: invalidated
// blocks drop for free, the rest stream out on the D2H lane.
func (e *exec) evictBackground(v um.BlockID, countPreevict bool) {
	vb := e.space.Block(v)
	if e.driver.CanInvalidate(v) {
		e.res.Remove(v)
		e.driver.NoteInvalidation()
		e.dropPrefetched(v)
		if e.obs != nil {
			e.obs.Instant(obs.KindEvict, obs.TrackDriver, int64(e.now), "", int64(v), 0, obs.EvictInvalidated)
		}
		return
	}
	wb := vb.ResidentBytes()
	_, end := e.link.Reserve(sim.Max(e.cmdTime, e.link.BusyUntil(sim.DeviceToHost)), wb, sim.DeviceToHost)
	vb.HostPopulated = true
	e.dropPrefetched(v)
	if e.obs != nil {
		e.obs.Instant(obs.KindEvict, obs.TrackDriver, int64(end), "", int64(v), wb, 0)
	}
	e.res.Remove(v)
	e.driver.NoteEviction(v)
	if countPreevict {
		e.driver.NotePreeviction()
	}
}

// dropPrefetched clears an evicted block's prefetched mark; every eviction
// path calls it. A block still marked was prefetched and never touched, so
// its transfer was waste.
func (e *exec) dropPrefetched(b um.BlockID) {
	if !e.isPrefetched(b) {
		return
	}
	e.prefetched[b] = false
	if e.obs != nil {
		e.obs.Instant(obs.KindPrefetchWaste, obs.TrackDriver, int64(e.now), "", int64(b), 0, 0)
	}
	e.health.ObservePrefetchWaste(int64(e.now))
}

// isPrefetched reports whether b carries a prefetched mark.
func (e *exec) isPrefetched(b um.BlockID) bool {
	return uint64(b) < uint64(len(e.prefetched)) && e.prefetched[b]
}

// launchID numbers a kernel launch command as the DeepUM runtime does
// (§3.1): the hash of the command keys an execution ID, assigned from 0 in
// first-seen order. Two launches of the same kernel with the same
// arguments, the common case in DNN training, share an ID.
func (e *exec) launchID(name string, args []uint64) correlation.ExecID {
	h := hashLaunch(name, args)
	id, ok := e.execIDs[h]
	if !ok {
		id = correlation.ExecID(len(e.execIDs))
		e.execIDs[h] = id
	}
	return id
}

// hashLaunch is the FNV-1a hash of a kernel name and its argument words,
// each little-endian. Pointer-valued arguments are included: tensor base
// addresses distinguish otherwise identical layers, and the caching
// allocator keeps them stable across iterations.
func hashLaunch(name string, args []uint64) uint64 {
	h := fnvOffset
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	for _, a := range args {
		h = fnvWord(h, a)
	}
	return h
}

// FNV-1a over the touch stream (Result.AccessChecksum).
const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

func fnvFold(h uint64, t touch) uint64 {
	for _, v := range [3]uint64{uint64(t.block), uint64(t.pages), boolBit(t.write)} {
		h = fnvWord(h, v)
	}
	return h
}

// fnvWord folds the eight little-endian bytes of v into h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
