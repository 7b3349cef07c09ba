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
// A flag that only the other mode reads stops the server at startup:
// -journal and -store-gc with -shards, -journal-dir and -handoff-grace
// without.
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

// serveFlags are deepum-serve's command-line settings.
type serveFlags struct {
	addr         string
	workers      int
	queue        int
	gpuBudget    int64
	oversub      bool
	storeGC      float64
	journalPath  string
	storePath    string
	storeReplica int
	scrubEvery   time.Duration
	shards       int
	journalDir   string
	handoffGrace time.Duration
	watchdog     time.Duration
	drainTimeout time.Duration
	reqTimeout   time.Duration
}

func defineFlags(fs *flag.FlagSet) *serveFlags {
	f := &serveFlags{}
	fs.StringVar(&f.addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&f.workers, "workers", 4, "concurrent training runs")
	fs.IntVar(&f.queue, "queue", 16, "submission queue depth (backpressure bound)")
	fs.Int64Var(&f.gpuBudget, "gpu-budget", 0, "simulated GPU memory budget in bytes shared by all runs (0 = unlimited)")
	fs.BoolVar(&f.oversub, "oversubscribe", false, "admit runs past -gpu-budget under the memory arbiter (soft grants, burst revocation, suspend-to-checkpoint) instead of hard quota rejections")
	fs.Float64Var(&f.storeGC, "store-gc", 0, "compact the checkpoint store when its garbage ratio exceeds this fraction (0 = no automatic GC; single-supervisor mode with -store)")
	fs.StringVar(&f.journalPath, "journal", "", "crash-safe run journal path (empty = no persistence; single-supervisor mode)")
	fs.StringVar(&f.storePath, "store", "", "content-addressed checkpoint store path; journals then carry 16-byte references instead of blobs (empty = inline checkpoints)")
	fs.IntVar(&f.storeReplica, "store-replicas", 2, "frames written per checkpoint blob; 2 lets the scrubber repair bit rot from the surviving twin")
	fs.DurationVar(&f.scrubEvery, "scrub-every", 0, "background store scrub interval (0 = no background scrubbing; requires -store)")
	fs.IntVar(&f.shards, "shards", 0, "shard count for federation mode (0 = one supervisor, no federation)")
	fs.StringVar(&f.journalDir, "journal-dir", "", "per-shard journal directory (federation mode; required with -shards)")
	fs.DurationVar(&f.handoffGrace, "handoff-grace", 30*time.Second, "how long a dead shard may answer 503 before rejections become hard failures (0 = forever; federation mode)")
	fs.DurationVar(&f.watchdog, "watchdog", 0, "cancel runs with no progress for this long (0 = no watchdog)")
	fs.DurationVar(&f.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain budget on shutdown before runs are cancelled")
	fs.DurationVar(&f.reqTimeout, "request-timeout", 30*time.Second, "per-request context deadline for API handlers (0 = none)")
	return f
}

// modeFlags maps each flag that only one serving mode reads to whether
// that mode is federation mode (-shards). A sharded server journals per
// shard under -journal-dir and never compacts the shared store by itself;
// a single supervisor has no shards to hand off.
var modeFlags = map[string]bool{
	"journal":       false,
	"store-gc":      false,
	"journal-dir":   true,
	"handoff-grace": true,
}

// checkMode rejects a flag set explicitly on fs that the chosen mode would
// silently ignore.
func checkMode(fs *flag.FlagSet, sharded bool) error {
	mode := "without -shards"
	if sharded {
		mode = "with -shards"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if fed, ok := modeFlags[f.Name]; ok && fed != sharded && err == nil {
			err = fmt.Errorf("-%s has no effect %s", f.Name, mode)
		}
	})
	return err
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := checkMode(flag.CommandLine, f.shards > 0); err != nil {
		log.Fatalf("deepum-serve: %v", err)
	}

	// A finished run frees its state, so a busy server's live heap is a
	// few tens of MiB while each run allocates tens more. At Go's default
	// GOGC=100 the collector then runs dozens of times a second and takes
	// CPU from runs and submits. A 400% heap target cuts that several-fold
	// for a few hundred MiB. GOGC set in the environment still wins.
	if _, set := os.LookupEnv("GOGC"); !set {
		debug.SetGCPercent(400)
	}

	cfg := deepum.SupervisorConfig{
		Workers:          f.workers,
		QueueDepth:       f.queue,
		GPUMemoryBudget:  f.gpuBudget,
		Oversubscribe:    f.oversub,
		WatchdogTimeout:  f.watchdog,
		JournalPath:      f.journalPath,
		StoreGCThreshold: f.storeGC,
	}
	if f.oversub && f.gpuBudget <= 0 {
		log.Fatalf("deepum-serve: -oversubscribe requires a positive -gpu-budget (the arbiter needs a budget to arbitrate)")
	}
	var handler http.Handler
	var drain func(context.Context) error
	if f.shards > 0 {
		if f.journalDir == "" {
			log.Fatalf("deepum-serve: federation mode (-shards %d) requires -journal-dir", f.shards)
		}
		fed, err := deepum.NewFederation(deepum.FederationOptions{
			Shards:          f.shards,
			Supervisor:      cfg,
			JournalDir:      f.journalDir,
			StorePath:       f.storePath,
			StoreReplicas:   f.storeReplica,
			StoreScrubEvery: f.scrubEvery,
		})
		if err != nil {
			log.Fatalf("deepum-serve: %v", err)
		}
		for _, sh := range fed.Shards() {
			if sh.Recovered > 0 {
				log.Printf("shard %d journal replay re-admitted %d interrupted run(s)", sh.Ordinal, sh.Recovered)
			}
		}
		handler = newFederationServer(fed, f.reqTimeout, f.handoffGrace)
		drain = fed.Drain
	} else {
		if f.storePath != "" {
			st, stats, err := deepum.OpenCheckpointStore(f.storePath, deepum.CheckpointStoreOptions{
				Replicas:   f.storeReplica,
				ScrubEvery: f.scrubEvery,
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
		handler = newServer(sup, f.reqTimeout)
		drain = sup.Drain
	}

	// Connection-level timeouts backstop the per-handler deadline: slowloris
	// headers, dribbled bodies, and stalled response writes all get bounded
	// even when a handler never looks at its context.
	srv := &http.Server{
		Addr:              f.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if f.shards > 0 {
		log.Printf("deepum-serve listening on %s (%d shards, %d workers/shard, queue %d)", f.addr, f.shards, f.workers, f.queue)
	} else {
		log.Printf("deepum-serve listening on %s (%d workers, queue %d)", f.addr, f.workers, f.queue)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining (budget %v)", sig, f.drainTimeout)
	case err := <-errc:
		log.Fatalf("deepum-serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), f.drainTimeout)
	defer cancel()
	if err := drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
}
