package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"deepum"
)

// serveLayers is the traced run's per-layer report for a serve workload.
// The HTTP phase has just run against srv; each in-process pass then runs
// the same load with one feature changed, and the simulator layers are
// measured on the pool's first spec.
func serveLayers(o options, c *ops, tr *tracer, plan servePlan, oracle []oracleEntry, srv *serverProc, srvDir string, httpLoad loadStats) (map[string]metric, error) {
	ls := newLayerSet()
	sc, err := srv.scrape("deepum_admission_dedup_hits_total", "deepum_admission_shed_total")
	if err != nil {
		return nil, err
	}
	ls.set("admission.dedup_hits", sc["deepum_admission_dedup_hits_total"])
	ls.set("admission.sheds", sc["deepum_admission_shed_total"])
	ls.set("http.polls_per_run", float64(httpLoad.polls)/float64(httpLoad.completed))
	srv.stop()
	journals, err := filepath.Glob(filepath.Join(srvDir, "*.journal"))
	if err != nil {
		return nil, err
	}
	runs := float64(httpLoad.completed)
	ls.set("journal.bytes_per_run", float64(fileSizes(journals...))/runs)
	ls.set("store.bytes_per_run", float64(fileSizes(filepath.Join(srvDir, "ck.store")))/runs)

	passes := map[string]loadStats{}
	d := phaseLength(o.seconds)
	for _, v := range plan.passes {
		dir := filepath.Join(o.work, "pass-"+v.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runner := deepum.TrainRunner()
		if v.noopRunner {
			runner = noopRunner(plan.pool, oracle)
		}
		be, closeFn, err := plan.inproc(dir, v, runner)
		if err != nil {
			return nil, fmt.Errorf("pass %s: %w", v.name, err)
		}
		t0 := time.Now()
		passes[v.name] = drive(plan, oracle, func() backend { return be }, c, tr, o.seed, d)
		tr.add("in-process pass "+v.name, "pass", t0, time.Now(), 0, 0)
		if v.name == "all" {
			passCounters(ls, be)
		}
		closeFn()
	}

	all := passes["all"]
	p50 := func(ps loadStats) float64 { return quantile(ps.runs, 0.5) }
	ls.set("http.submit_overhead_ms", quantile(httpLoad.submits, 0.5)-quantile(all.submits, 0.5))
	setSupervisorLayers(ls, all.stamps)
	if ps, ok := passes["nosync"]; ok {
		ls.set("journal.fsync_share", share(p50(all), p50(ps)))
	}
	if ps, ok := passes["nostore"]; ok {
		ls.set("store.share", share(p50(all), p50(ps)))
	}
	if ps, ok := passes["noarbiter"]; ok {
		ls.set("arbiter.share", share(quantile(all.runs, 0.9), quantile(ps.runs, 0.9)))
	}
	if ps, ok := passes["single"]; ok {
		ls.set("federation.share", share(quantile(all.submits, 0.5), quantile(ps.submits, 0.5)))
	}
	if ps, ok := passes["noop"]; ok {
		ls.set("engine.share_of_run", share(p50(all), p50(ps)))
	}

	// Simulator layers on the pool's first spec, against an untraced run.
	spec := plan.pool[0]
	w := deepum.Workload{Model: spec.Model, Dataset: spec.Dataset, Batch: spec.Batch}
	cfg := configOf(spec)
	var builds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if _, err := deepum.BuildProgram(w, spec.Scale); err != nil {
			return nil, err
		}
		builds = append(builds, ms(time.Since(t0)))
	}
	ls.set("models.build_ms", median(builds))
	before := readRuntime()
	t0 := time.Now()
	res, err := deepum.Train(w, cfg)
	host := time.Since(t0)
	after := readRuntime()
	if err != nil {
		return nil, err
	}
	tr.add("deepum.Train", "train", t0, t0.Add(host), 0, 0)
	ls.set("runtime.alloc_mb_per_train", (after.allocBytes-before.allocBytes)/float64(deepum.MiB))
	ls.set("runtime.gc_share", gcShare(before, after))
	if err := engineLayers(c, tr, ls, w, cfg, refOf(res)); err != nil {
		return nil, err
	}

	var blobs [][]byte
	seen := map[string]bool{}
	for _, e := range oracle {
		if len(e.out.Checkpoint) > 0 && !seen[string(e.out.Checkpoint)] {
			seen[string(e.out.Checkpoint)] = true
			blobs = append(blobs, e.out.Checkpoint)
		}
	}
	if err := adminMicro(o.work, ls, spec, blobs); err != nil {
		return nil, err
	}
	return ls, nil
}

// passCounters records the counters only the in-process backend exposes:
// the store's dedup ratio and the arbiter's actions.
func passCounters(ls layerSet, be backend) {
	var st *deepum.CheckpointStore
	switch b := be.(type) {
	case supervisorBackend:
		st = b.st
		a := b.s.Stats()
		ls.set("arbiter.revokes", float64(a.Arbiter.Revocations))
		ls.set("arbiter.suspends", float64(a.Suspends))
		ls.set("arbiter.resumes", float64(a.Resumes))
	case federationBackend:
		st = b.f.Store()
		fs := b.f.Stats()
		var revokes int64
		for i := 0; i < fs.Shards; i++ {
			revokes += b.f.Supervisor(i).Stats().Arbiter.Revocations
		}
		ls.set("arbiter.revokes", float64(revokes))
		ls.set("arbiter.suspends", float64(fs.Suspends))
		ls.set("arbiter.resumes", float64(fs.Resumes))
	}
	if st != nil {
		s := st.Stats()
		if s.Puts+s.DedupHits > 0 {
			ls.set("store.dedup_ratio", float64(s.DedupHits)/float64(s.Puts+s.DedupHits))
		}
	}
}

// setSupervisorLayers splits finished runs' latency at the supervisor's
// own timestamps: queue wait (submitted to started), execution (started to
// finished) and the lag until the client saw the terminal state.
func setSupervisorLayers(ls layerSet, stamps []runStamps) {
	var sub, wait, exec, lag []float64
	for _, s := range stamps {
		sub = append(sub, float64(s.submit)/float64(time.Microsecond))
		if s.info.Started != nil {
			wait = append(wait, ms(s.info.Started.Sub(s.info.Submitted)))
		}
		if s.info.Started != nil && s.info.Finished != nil {
			exec = append(exec, ms(s.info.Finished.Sub(*s.info.Started)))
		}
		if s.info.Finished != nil {
			lag = append(lag, ms(s.seen.Sub(*s.info.Finished)))
		}
	}
	for name, xs := range map[string][]float64{
		"supervisor.submit_us_p50":     sub,
		"supervisor.queue_wait_ms_p50": wait,
		"supervisor.exec_ms_p50":       exec,
		"supervisor.notify_lag_ms_p50": lag,
	} {
		if len(xs) > 0 {
			ls.set(name, median(xs))
		}
	}
}
