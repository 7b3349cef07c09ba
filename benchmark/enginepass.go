package main

import (
	"context"
	"fmt"
	"time"

	"deepum"
	"deepum/internal/core"
	"deepum/internal/engine"
	"deepum/internal/sim"
)

// simRef is what an untraced DeepUM run simulated; traced passes must
// reproduce it bit for bit.
type simRef struct {
	iterTime sim.Duration
	faults   int64
	checksum uint64
}

func refOf(res *deepum.Result) simRef {
	return simRef{iterTime: res.IterationTime, faults: res.PageFaultsPerIteration, checksum: res.AccessChecksum}
}

// matches reports how a traced pass's simulation differs from the
// untraced reference; empty means bit-identical.
func (r simRef) matches(iterTime sim.Duration, faults int64, checksum uint64) string {
	if iterTime != r.iterTime || faults != r.faults || checksum != r.checksum {
		return fmt.Sprintf("iteration %v/%v, faults %d/%d, checksum %x/%x (traced/untraced)",
			iterTime, r.iterTime, faults, r.faults, checksum, r.checksum)
	}
	return ""
}

// engineLayers measures the simulator's layers on one DeepUM run from
// outside: engine.RunContext timed with the policy decorator installed,
// the same run with an Observer attached, and microbenchmarks sized from
// the run. Both passes are checked against ref, so neither the decorator
// nor the observer may perturb the simulation.
func engineLayers(c *ops, tr *tracer, ls layerSet, w deepum.Workload, cfg deepum.Config, ref simRef) error {
	t0 := time.Now()
	prog, err := deepum.BuildProgram(w, cfg.Scale)
	if err != nil {
		return err
	}
	tr.add("models.Build", "models", t0, time.Now(), 0, 0)

	drv := core.DefaultOptions()
	drv.Policy = timedPolicyName
	timer := armPolicyTimer(tr, cfg.Policy)
	t0 = time.Now()
	r, err := engine.RunContext(context.Background(), engine.Config{
		Params:        cfg.Machine.Scale(cfg.Scale),
		Program:       prog,
		Policy:        engine.PolicyDeepUM,
		DriverOptions: drv,
		Iterations:    cfg.Iterations,
		Warmup:        cfg.Warmup,
		Seed:          cfg.Seed,
	})
	host := time.Since(t0)
	if err != nil {
		return fmt.Errorf("engine pass: %w", err)
	}
	tr.add("engine.RunContext", "engine", t0, t0.Add(host), 0, 0)
	c.try()
	if r.Status != engine.StatusCompleted || r.Invariant != nil {
		c.fail("traced engine pass ended %v (invariant %v)", r.Status, r.Invariant)
	} else if d := ref.matches(r.IterTime(), r.FaultsPerIter, r.AccessChecksum); d != "" {
		c.fail("policy decorator perturbed the simulation: %s", d)
	}

	hostNs := float64(host)
	ls.set("engine.host_ms", ms(host))
	if r.Driver.KernelLaunches > 0 {
		ls.set("engine.host_ns_per_kernel", hostNs/float64(r.Driver.KernelLaunches))
	}
	ls.set("policy.self_ms", ms(timer.self))
	ls.set("policy.share", float64(timer.self)/hostNs)
	ls.set("policy.next_calls", float64(timer.nextCalls))
	if timer.nextCalls > 0 {
		ls.set("policy.next_ns", float64(timer.nextTime)/float64(timer.nextCalls))
	}
	ls.set("policy.onfault_calls", float64(timer.onFaultCalls))
	ls.set("policy.emits", float64(timer.emits))

	d := r.Driver
	ls.set("core.prefetch_issued", float64(d.PrefetchIssued))
	ls.set("core.prefetch_useful", float64(d.PrefetchUseful))
	if d.PrefetchIssued > 0 {
		ls.set("core.prefetch_accuracy", float64(d.PrefetchUseful)/float64(d.PrefetchIssued))
	}
	ls.set("core.chain_restarts", float64(d.ChainRestarts))
	ls.set("core.preevictions", float64(d.Preevictions))
	ls.set("core.invalidations", float64(d.Invalidations))

	h := r.Handler
	ls.set("um.batches", float64(h.Batches))
	ls.set("um.blocks_migrated", float64(h.BlocksMigrated))
	ls.set("um.blocks_evicted", float64(h.BlocksEvicted))
	ls.set("um.transfer_stall_ms", ms(h.TransferStall))
	ls.set("um.evict_stall_ms", ms(h.EvictStall))

	var simulated sim.Duration
	for _, it := range r.IterStats {
		simulated += it.Time
	}
	if simulated > 0 {
		ls.set("sim.link_busy_share", float64(r.LinkBusy)/float64(simulated))
	}
	ls.set("sim.h2d_gb", float64(r.TrafficH2D)/1e9)
	ls.set("sim.d2h_gb", float64(r.TrafficD2H)/1e9)
	ls.set("correlation.table_mb", float64(r.DriverTableBytes)/float64(deepum.MiB))

	// Observer overhead: the same Train call with and without an event
	// ring attached, alternated and repeated while calls are short.
	var plain, observed []float64
	var o *deepum.Observer
	for spent := time.Duration(0); len(plain) == 0 || spent < 200*time.Millisecond; {
		t0 = time.Now()
		if _, err := deepum.Train(w, cfg); err != nil {
			return err
		}
		d := time.Since(t0)
		plain = append(plain, float64(d))

		o = deepum.NewObserver(deepum.TraceOptions{})
		ocfg := cfg
		ocfg.Observe = o
		t0 = time.Now()
		res, err := deepum.Train(w, ocfg)
		od := time.Since(t0)
		if err != nil {
			return fmt.Errorf("observer pass: %w", err)
		}
		tr.add("deepum.Train observed", "obs", t0, t0.Add(od), 0, 0)
		observed = append(observed, float64(od))
		spent += d + od
		c.try()
		if d := ref.matches(res.IterationTime, res.PageFaultsPerIteration, res.AccessChecksum); d != "" {
			c.fail("observer perturbed the simulation: %s", d)
		}
	}
	ls.set("obs.events", float64(o.EventCount()))
	ls.set("obs.dropped", float64(o.Dropped()))
	ls.set("obs.overhead_share", median(observed)/median(plain)-1)

	// Layer microbenchmarks, sized from this run.
	perBatch := 1
	if h.Batches > 0 {
		perBatch = int((h.BlocksMigrated + h.Batches - 1) / h.Batches)
	}
	hg, err := handleGroupsNs(perBatch)
	if err != nil {
		return err
	}
	rs := reserveNs()
	ls.set("um.handle_groups_ns", hg)
	ls.set("sim.reserve_ns", rs)
	ls.set("obs.record_ns", recordNs())

	// What the measured rows explain of the engine's host time: the policy
	// (measured directly), fault handling (per-batch cost × batches) and
	// the prefetch and pre-eviction link reservations.
	explained := float64(timer.self) + hg*float64(h.Batches) + rs*float64(d.PrefetchIssued+d.Preevictions)
	ls.set("engine.unattributed_share", 1-explained/hostNs)
	return nil
}
