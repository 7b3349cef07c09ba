// deepum-serve exposes the multi-run supervisor over an HTTP JSON API:
// submit training runs, watch their lifecycle, cancel them, and survive
// process restarts through the crash-safe run journal.
//
//	deepum-serve -addr :8080 -workers 4 -journal runs.journal
//
// With -shards N (and -journal-dir) the server fronts a federation of N
// supervisor shards on a consistent-hash ring instead of one supervisor;
// requests owned by a dead shard answer 503 + Retry-After (with the shard
// ordinal in the error body) until its journal is handed off, and after
// -handoff-grace those 503s convert into hard failures.
//
//	deepum-serve -addr :8080 -shards 4 -journal-dir /var/lib/deepum
//
// -store points both modes at a durable content-addressed checkpoint
// store: journals then carry 16-byte references instead of checkpoint
// blobs, identical checkpoints dedup across runs (and across shards in
// federation mode), and -scrub-every starts a background scrubber that
// repairs bit rot from a surviving replica or degrades the affected run
// to a cold restart.
//
//	deepum-serve -addr :8080 -journal runs.journal -store ck.store -scrub-every 1m
//
// With -oversubscribe (and a positive -gpu-budget), aggregate demand may
// exceed the budget: the memory arbiter hands every admitted run a
// guaranteed floor plus a revocable burst, revokes bursts under sustained
// pressure, and as a last resort suspends a victim to its checkpoint
// (state "suspended" in GET /runs/{id}) until headroom returns.
//
//	POST /runs              submit a run (RunSpec JSON) -> {"id": N}
//	GET  /runs              list all runs
//	GET  /runs/{id}         one run's snapshot
//	POST /runs/{id}/cancel  request cancellation
//	POST /runs/{id}/resume  force-resume a suspended run (409 otherwise)
//	GET  /healthz           process liveness
//	GET  /readyz            admission readiness (503 while draining)
//	GET  /shards            per-shard status (federation mode)
//
// SIGINT/SIGTERM triggers a graceful drain: admission closes, queued and
// running work finishes (up to -drain-timeout, then runs are cancelled),
// and the journals are closed cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"deepum"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		workers      = flag.Int("workers", 4, "concurrent training runs")
		queue        = flag.Int("queue", 16, "submission queue depth (backpressure bound)")
		gpuBudget    = flag.Int64("gpu-budget", 0, "simulated GPU memory budget in bytes shared by all runs (0 = unlimited)")
		oversub      = flag.Bool("oversubscribe", false, "admit runs past -gpu-budget under the memory arbiter (soft grants, burst revocation, suspend-to-checkpoint) instead of hard quota rejections")
		storeGC      = flag.Float64("store-gc", 0, "compact the checkpoint store when its garbage ratio exceeds this fraction (0 = no automatic GC; single-supervisor mode with -store)")
		journalPath  = flag.String("journal", "", "crash-safe run journal path (empty = no persistence; single-supervisor mode)")
		storePath    = flag.String("store", "", "content-addressed checkpoint store path; journals then carry 16-byte references instead of blobs (empty = inline checkpoints)")
		storeReplica = flag.Int("store-replicas", 2, "frames written per checkpoint blob; 2 lets the scrubber repair bit rot from the surviving twin")
		scrubEvery   = flag.Duration("scrub-every", 0, "background store scrub interval (0 = no background scrubbing; requires -store)")
		shards       = flag.Int("shards", 0, "shard count for federation mode (0 = one supervisor, no federation)")
		journalDir   = flag.String("journal-dir", "", "per-shard journal directory (federation mode; required with -shards)")
		handoffGrace = flag.Duration("handoff-grace", 30*time.Second, "how long a dead shard may answer 503 before rejections become hard failures (0 = forever)")
		watchdog     = flag.Duration("watchdog", 0, "cancel runs with no progress for this long (0 = no watchdog)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on shutdown before runs are cancelled")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request context deadline for API handlers (0 = none)")
		chaosName    = flag.String("chaos", "", "supervisor chaos scenario (empty = none; -chaos list to enumerate)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for chaos injection draws")
	)
	flag.Parse()

	// A finished run frees its state, so a busy server's live heap is a
	// few tens of MiB while each run allocates tens more. At Go's default
	// GOGC=100 the collector then runs dozens of times a second and takes
	// CPU from runs and submits. A 400% heap target cuts that several-fold
	// for a few hundred MiB. GOGC set in the environment still wins.
	if _, set := os.LookupEnv("GOGC"); !set {
		debug.SetGCPercent(400)
	}

	if *chaosName == "list" {
		for _, sc := range deepum.SupervisorChaosScenarios() {
			fmt.Printf("%-16s %s\n", sc.Name, sc.Description)
		}
		return
	}
	cfg := deepum.SupervisorConfig{
		Workers:          *workers,
		QueueDepth:       *queue,
		GPUMemoryBudget:  *gpuBudget,
		Oversubscribe:    *oversub,
		WatchdogTimeout:  *watchdog,
		JournalPath:      *journalPath,
		ChaosSeed:        *chaosSeed,
		StoreGCThreshold: *storeGC,
	}
	if *oversub && *gpuBudget <= 0 {
		log.Fatalf("deepum-serve: -oversubscribe requires a positive -gpu-budget (the arbiter needs a budget to arbitrate)")
	}
	if *chaosName != "" {
		sc, err := deepum.SupervisorChaosScenarioByName(*chaosName)
		if err != nil {
			log.Fatalf("deepum-serve: %v", err)
		}
		cfg.Chaos = sc
	}
	var handler http.Handler
	var drain func(context.Context) error
	if *shards > 0 {
		if *journalDir == "" {
			log.Fatalf("deepum-serve: federation mode (-shards %d) requires -journal-dir", *shards)
		}
		fed, err := deepum.NewFederation(deepum.FederationOptions{
			Shards:          *shards,
			Supervisor:      cfg,
			JournalDir:      *journalDir,
			StorePath:       *storePath,
			StoreReplicas:   *storeReplica,
			StoreScrubEvery: *scrubEvery,
		})
		if err != nil {
			log.Fatalf("deepum-serve: %v", err)
		}
		for _, sh := range fed.Shards() {
			if sh.Recovered > 0 {
				log.Printf("shard %d journal replay re-admitted %d interrupted run(s)", sh.Ordinal, sh.Recovered)
			}
		}
		handler = newFederationServer(fed, *reqTimeout, *handoffGrace)
		drain = fed.Drain
	} else {
		if *storePath != "" {
			st, stats, err := deepum.OpenCheckpointStore(*storePath, deepum.CheckpointStoreOptions{
				Replicas:   *storeReplica,
				ScrubEvery: *scrubEvery,
				OnScrub: func(rep deepum.StoreScrubReport, err error) {
					if err != nil {
						log.Printf("store scrub: %v", err)
						return
					}
					if rep.Repaired > 0 || len(rep.Lost) > 0 || rep.TornBytes > 0 {
						log.Printf("store scrub: repaired %d frame(s), lost %d key(s), truncated %d torn byte(s)", rep.Repaired, len(rep.Lost), rep.TornBytes)
					}
				},
			})
			if err != nil {
				log.Fatalf("deepum-serve: %v", err)
			}
			if stats.TornBytes > 0 || len(stats.CorruptRegions) > 0 {
				log.Printf("store recovery: %d torn byte(s) truncated, %d corrupt region(s) skipped", stats.TornBytes, len(stats.CorruptRegions))
			}
			cfg.Checkpoints = st
			defer st.Close()
		}
		sup, err := deepum.NewSupervisor(cfg)
		if err != nil {
			log.Fatalf("deepum-serve: %v", err)
		}
		if st := sup.Stats(); st.Recovered > 0 {
			log.Printf("journal replay re-admitted %d interrupted run(s)", st.Recovered)
		}
		handler = newServer(sup, *reqTimeout)
		drain = sup.Drain
	}

	// Connection-level timeouts backstop the per-handler deadline: slowloris
	// headers, dribbled bodies, and stalled response writes all get bounded
	// even when a handler never looks at its context.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if *shards > 0 {
		log.Printf("deepum-serve listening on %s (%d shards, %d workers/shard, queue %d)", *addr, *shards, *workers, *queue)
	} else {
		log.Printf("deepum-serve listening on %s (%d workers, queue %d)", *addr, *workers, *queue)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining (budget %v)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatalf("deepum-serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
}
