package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"deepum"
)

// trainWorkloads are the two simulator workloads. bert-large b16 is the
// regular transformer the paper is built on, where correlation prefetch
// pays off; dlrm b128000 has input-dependent embedding accesses, so the
// same policy layer predicts badly and burns host time chasing chains.
var trainWorkloads = map[string]deepum.Workload{
	"train-bert": {Model: "bert-large", Batch: 16},
	"train-dlrm": {Model: "dlrm", Batch: 128000},
}

const (
	trainScale = 8
	// setupReps is how many times a server start is repeated and
	// buildReps how many times a program is built; setup_s is the median.
	setupReps = 5
	buildReps = 25
	// trainSeeds is how many simulation seeds one run cycles through.
	trainSeeds = 3
	// umReps is the least number of UM runs of each seed that follow the
	// timed DeepUM loop; all must simulate identically.
	umReps = 2
	// minSubmits is the submit-latency sample size: the p90 has at least
	// ten samples beyond it.
	minSubmits = 100
)

// simSeed maps the benchmark seed to a positive simulation seed.
func simSeed(seed int64) int64 {
	if seed < 0 {
		seed = -seed
	}
	return seed%1_000_003 + 1
}

// trainCall is one deepum.Train call made by the benchmark's runner.
type trainCall struct {
	res   *deepum.Result
	host  time.Duration
	alloc float64 // bytes allocated during the call
	gc    float64 // share of the process CPU spent in GC during the call
}

// trainRun is one run as the client saw it.
type trainRun struct {
	call          trainCall
	info          deepum.RunInfo
	submit, total time.Duration
	seen          time.Time
}

// trainer submits training runs to an in-process supervisor — the
// library's multi-run path — whose runner calls deepum.TrainContext and
// times it.
type trainer struct {
	w   deepum.Workload
	sup *deepum.Supervisor
	tr  *tracer

	mu   sync.Mutex
	last trainCall
}

func newTrainer(w deepum.Workload, tr *tracer) (*trainer, error) {
	t := &trainer{w: w, tr: tr}
	sup, err := deepum.NewSupervisor(deepum.SupervisorConfig{
		Workers:    1,
		QueueDepth: 2,
		Runner:     deepum.RunnerFunc(t.run),
	})
	if err != nil {
		return nil, err
	}
	t.sup = sup
	return t, nil
}

// configOf is the Train configuration a run spec asks for, as the
// supervisor's default runner builds it.
func configOf(spec deepum.RunSpec) deepum.Config {
	cfg := deepum.DefaultConfig()
	if spec.System != "" {
		cfg.System = deepum.System(spec.System)
	}
	cfg.Scale = spec.Scale
	cfg.Seed = spec.Seed
	cfg.Policy = spec.Policy
	if spec.Iterations > 0 {
		cfg.Iterations = spec.Iterations
	}
	if spec.Warmup > 0 {
		cfg.Warmup = spec.Warmup
	}
	return cfg
}

func (t *trainer) run(ctx context.Context, spec deepum.RunSpec, _ []byte, _ func([]byte)) (deepum.RunOutcome, error) {
	before := readRuntime()
	t0 := time.Now()
	res, err := deepum.TrainContext(ctx, t.w, configOf(spec))
	host := time.Since(t0)
	after := readRuntime()
	t.tr.add("deepum.Train "+spec.System, "train", t0, t0.Add(host), 0, 1)
	if err != nil {
		return deepum.RunOutcome{}, err
	}
	t.mu.Lock()
	t.last = trainCall{res: res, host: host, alloc: after.allocBytes - before.allocBytes, gc: gcShare(before, after)}
	t.mu.Unlock()
	return deepum.RunOutcome{
		Status:             res.Status.String(),
		Iterations:         res.Iterations,
		IterationTime:      res.IterationTime,
		FaultsPerIteration: res.PageFaultsPerIteration,
		AccessChecksum:     res.AccessChecksum,
	}, nil
}

// submit runs one spec to completion through the supervisor.
func (t *trainer) submit(spec deepum.RunSpec) (trainRun, error) {
	t0 := time.Now()
	id, _, err := t.sup.SubmitWithOptions(0, spec, deepum.SubmitOptions{})
	t1 := time.Now()
	if err != nil {
		return trainRun{}, fmt.Errorf("submit: %w", err)
	}
	info, err := t.sup.Wait(id)
	t2 := time.Now()
	if err != nil {
		return trainRun{}, fmt.Errorf("wait: %w", err)
	}
	parent := t.tr.add("run "+spec.System, "client", t0, t2, 0, 2)
	t.tr.add("Supervisor.SubmitWithOptions", "supervisor", t0, t1, parent, 2)
	t.tr.add("Supervisor.Wait", "supervisor", t1, t2, parent, 2)
	t.mu.Lock()
	call := t.last
	t.mu.Unlock()
	return trainRun{call: call, info: info, submit: t1.Sub(t0), total: t2.Sub(t0), seen: t2}, nil
}

// check verifies one finished run and reports whether it passed.
func checkTrainRun(c *ops, r trainRun, want *deepum.Result) bool {
	c.try()
	res := r.call.res
	switch {
	case r.info.State != deepum.RunCompleted:
		c.fail("run %d ended %s: %s", r.info.ID, r.info.State, r.info.Reason)
	case res == nil || !res.Succeeded() || res.Invariant != nil:
		c.fail("run %d: train status not completed or invariant violated", r.info.ID)
	case want != nil && (res.IterationTime != want.IterationTime || res.PageFaultsPerIteration != want.PageFaultsPerIteration || res.AccessChecksum != want.AccessChecksum):
		c.fail("run %d (%s) simulated differently from the first run of the same spec", r.info.ID, res.System)
	default:
		return true
	}
	return false
}

func runTrain(o options, c *ops, tr *tracer) (map[string]metric, error) {
	w := trainWorkloads[o.workload]
	// The run cycles through a few simulation seeds drawn from the
	// benchmark seed: on dlrm the seed changes the embedding accesses, and
	// so the chaser's work, and several seeds per run average that out.
	var specs []deepum.RunSpec
	for i := int64(0); i < trainSeeds; i++ {
		specs = append(specs, deepum.RunSpec{Model: w.Model, Batch: w.Batch, System: string(deepum.SystemDeepUM),
			Scale: trainScale, Seed: simSeed(o.seed*trainSeeds + i)})
	}

	var builds []float64
	for i := 0; i < buildReps; i++ {
		t0 := time.Now()
		if _, err := deepum.BuildProgram(w, trainScale); err != nil {
			return nil, err
		}
		tr.add("models.Build", "models", t0, time.Now(), 0, 0)
		builds = append(builds, time.Since(t0).Seconds())
	}

	t, err := newTrainer(w, tr)
	if err != nil {
		return nil, err
	}
	defer t.sup.Drain(context.Background())

	// The timed loop: DeepUM runs, one at a time, until the next one would
	// overrun the measured window, but at least one per seed (a traced run
	// takes one). first holds each seed's first result; repeats must match.
	var runs []trainRun
	first := make([]*deepum.Result, len(specs))
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for n := 0; ; n++ {
		if o.traced && n >= 1 {
			break
		}
		if n >= len(specs) && time.Since(start)+time.Since(start)/time.Duration(n) > budget {
			break
		}
		i := n % len(specs)
		r, err := t.submit(specs[i])
		if err != nil {
			return nil, err
		}
		if checkTrainRun(c, r, first[i]) && first[i] == nil {
			first[i] = r.call.res
		}
		r.call.res = nil // results hold the warm tables; keep only the first per seed
		runs = append(runs, r)
	}
	elapsed := time.Since(start)
	if first[0] == nil {
		return nil, fmt.Errorf("no DeepUM run completed")
	}
	if o.traced {
		return trainLayers(o, c, tr, w, specs[0], runs, first[0], median(builds))
	}

	// UM with the same seeds, round robin: it must touch memory in the same
	// order, and repeats must agree. UM runs are cheap, so they also fill
	// the submit-latency sample to minSubmits, enough for a p90.
	submits := make([]float64, 0, minSubmits)
	for _, r := range runs {
		submits = append(submits, ms(r.submit))
	}
	um := make([]*deepum.Result, len(specs))
	for n := 0; n < umReps*len(specs) || len(submits) < minSubmits; n++ {
		i := n % len(specs)
		umSpec := specs[i]
		umSpec.System = string(deepum.SystemUM)
		r, err := t.submit(umSpec)
		if err != nil {
			return nil, err
		}
		submits = append(submits, ms(r.submit))
		if checkTrainRun(c, r, um[i]) && um[i] == nil {
			um[i] = r.call.res
			c.try()
			if um[i].AccessChecksum != first[i].AccessChecksum {
				c.fail("seed %d: UM access checksum %x differs from DeepUM %x", umSpec.Seed, um[i].AccessChecksum, first[i].AccessChecksum)
			}
		}
	}
	var iters, umIters, faults []float64
	for i, spec := range specs {
		if first[i] == nil || um[i] == nil {
			return nil, fmt.Errorf("seed %d: no DeepUM or no UM run completed", spec.Seed)
		}
		iters = append(iters, ms(first[i].IterationTime))
		umIters = append(umIters, ms(um[i].IterationTime))
		faults = append(faults, float64(first[i].PageFaultsPerIteration))
	}

	var hosts, totals []float64
	for _, r := range runs {
		hosts = append(hosts, r.call.host.Seconds())
		totals = append(totals, ms(r.total))
	}
	rss, err := peakRSSMiB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":             {median(builds), "s"},
		"train_host_s":        {median(hosts), "s"},
		"peak_rss_mb":         {rss, "MiB"},
		"sim_iter_ms":         {mean(iters), "sim_ms"},
		"sim_faults_per_iter": {mean(faults), "pages"},
		"sim_speedup_vs_um":   {mean(umIters) / mean(iters), "x"},
		"submit_ms_p50":       {quantile(submits, 0.5), "ms"},
		"submit_ms_p90":       {quantile(submits, 0.9), "ms"},
		"run_ms_p50":          {quantile(totals, 0.5), "ms"},
		"run_ms_p90":          {quantile(totals, 0.9), "ms"},
		"runs_per_s":          {float64(len(runs)) / elapsed.Seconds(), "1/s"},
		"success_rate":        {c.successRate(), "ratio"},
	}, nil
}

// trainLayers is the traced run's per-layer report for a train workload.
func trainLayers(o options, c *ops, tr *tracer, w deepum.Workload, spec deepum.RunSpec, runs []trainRun, first *deepum.Result, buildS float64) (map[string]metric, error) {
	ls := newLayerSet()
	ls.set("models.build_ms", buildS*1e3)
	r := runs[0]
	ls.set("runtime.alloc_mb_per_train", r.call.alloc/float64(deepum.MiB))
	ls.set("runtime.gc_share", r.call.gc)
	setSupervisorLayers(ls, []runStamps{{submit: r.submit, info: r.info, seen: r.seen}})

	cfg := configOf(spec)
	if err := engineLayers(c, tr, ls, w, cfg, refOf(first)); err != nil {
		return nil, err
	}
	blob, err := checkpointBlob(first)
	if err != nil {
		return nil, err
	}
	if err := adminMicro(o.work, ls, spec, [][]byte{blob}); err != nil {
		return nil, err
	}
	return ls, nil
}

// checkpointBlob serializes a run's warm state the way the supervisor
// journals it.
func checkpointBlob(res *deepum.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := deepum.SavePolicyCheckpoint(&buf, deepum.PolicyCheckpointOf(res)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
