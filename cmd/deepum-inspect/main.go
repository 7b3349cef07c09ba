// Command deepum-inspect runs a short training simulation under DeepUM and
// dumps the driver's internal state: execution-ID table statistics, UM-block
// correlation tables (entries, Start/End anchors), and driver counters. It
// is the debugging lens a kernel-module developer would want. -trace also
// records the run's event trace and prints the same analysis the trace
// subcommand prints, including the per-kernel fault and stall table.
//
//	deepum-inspect -model bert-base -batch 8
//	deepum-inspect -model dlrm -batch 96000 -top 20
//	deepum-inspect -model bert-large -batch 16 -scale 64 -trace
//
// The journal subcommand instead dumps and verifies a supervisor run
// journal (record counts, per-run lifecycle, CRC failures, torn-tail
// offset) without modifying it:
//
//	deepum-inspect journal runs.journal
//
// The trace subcommand validates and summarizes a Chrome trace written by
// deepum-sim -trace (see trace.go):
//
//	deepum-inspect trace run.json
//
// The store subcommand audits a content-addressed checkpoint store —
// frame/CRC/index verification — and cross-checks journal checkpoint
// references against it (see store.go); exit status 2 flags corruption or
// a dangling reference:
//
//	deepum-inspect store ck.store shard-0.journal shard-1.journal
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"deepum/internal/core"
	"deepum/internal/correlation"
	"deepum/internal/engine"
	"deepum/internal/models"
	"deepum/internal/obs"
	polcorr "deepum/internal/policy/correlation"
	"deepum/internal/sim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "journal" {
		runJournal(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "store" {
		runStore(os.Args[2:])
		return
	}
	var (
		model   = flag.String("model", "bert-base", "model name")
		dataset = flag.String("dataset", "", "dataset variant")
		batch   = flag.Int64("batch", 8, "batch size")
		scale   = flag.Int64("scale", 32, "size divisor")
		iters   = flag.Int("iters", 2, "measured iterations")
		top     = flag.Int("top", 10, "how many block tables to list")
		doTrace = flag.Bool("trace", false, "record the event trace and print its analysis; per kernel, migrated counts UM blocks in fault batches and prefetch counts prefetch transfers started")
	)
	flag.Parse()

	prog, err := models.Build(models.Spec{Model: *model, Dataset: *dataset}, *batch, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var rec *obs.Recorder
	if *doTrace {
		rec = obs.NewRecorder(obs.DefaultCapacity)
	}
	res, err := engine.Run(engine.Config{
		Params:        sim.DefaultParams().Scale(*scale),
		Program:       prog,
		Policy:        engine.PolicyDeepUM,
		DriverOptions: core.DefaultOptions(),
		Iterations:    *iters,
		Warmup:        3,
		Seed:          1,
		Obs:           rec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("== run ==\n")
	fmt.Printf("model %s batch %d scale 1/%d: %d kernels/iteration, footprint %.2f GiB\n",
		*model, *batch, *scale, prog.Kernels(), float64(prog.FootprintBytes())/float64(sim.GiB))
	fmt.Printf("iteration time %v, %d page faults/iteration\n\n", res.IterTime(), res.FaultsPerIter)

	fmt.Printf("== driver counters ==\n")
	d := res.Driver
	fmt.Printf("kernel launches      %d\n", d.KernelLaunches)
	fmt.Printf("prefetch issued      %d\n", d.PrefetchIssued)
	fmt.Printf("prefetch useful      %d\n", d.PrefetchUseful)
	fmt.Printf("chain restarts       %d\n", d.ChainRestarts)
	fmt.Printf("prediction failures  %d (noexec %d, anchorless %d)\n",
		d.PredictionFails, d.DeathNoExec, d.DeathSkips)
	fmt.Printf("pre-evictions        %d\n", d.Preevictions)
	fmt.Printf("invalidations        %d\n", d.Invalidations)
	fmt.Printf("window misses        %d\n\n", d.WindowMisses)

	tables := res.Prefetcher.(*polcorr.Chaser).Tables() // DefaultOptions runs the correlation chaser
	fmt.Printf("== correlation tables ==\n")
	fmt.Printf("execution table: %d entries, %d records, %.1f KiB\n",
		tables.Exec.Entries(), tables.Exec.Records(), float64(tables.Exec.SizeBytes())/1024)
	fmt.Printf("block tables: %d allocated, %.1f MiB total\n\n",
		tables.NumBlockTables(), float64(tables.SizeBytes())/float64(sim.MiB))

	ids := tables.ExecIDs()
	type row struct {
		id      correlation.ExecID
		entries int
	}
	rows := make([]row, 0, len(ids))
	for _, id := range ids {
		rows = append(rows, row{id, tables.Block(id).Entries()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].entries > rows[j].entries })
	if *top > len(rows) {
		*top = len(rows)
	}
	fmt.Printf("%-8s %-8s %-12s %-12s\n", "execID", "entries", "start", "end")
	for _, r := range rows[:*top] {
		bt := tables.Block(r.id)
		fmt.Printf("%-8d %-8d %-12d %-12d\n", r.id, r.entries, bt.Start, bt.End)
	}

	if rec != nil {
		fmt.Printf("\n== event trace ==\n")
		a := obs.Analyze(rec.Events())
		a.Dropped = rec.Dropped()
		fmt.Print(a.String())
	}
}
