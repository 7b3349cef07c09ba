// Command deepum-bench regenerates the tables and figures of the DeepUM
// paper's evaluation (§6). With no arguments it runs every experiment at the
// default scale; -run selects one; -scale 1 runs paper-sized footprints.
//
//	deepum-bench -run fig9a
//	deepum-bench -run table5 -scale 4 -iters 8
//	deepum-bench -list
//
// -tournament races every registered prefetch policy (-policy-list) over a
// small workload suite and prints the per-workload ranking; any policy
// that fails to complete cleanly, or that perturbs the workload's
// AccessChecksum, exits nonzero — CI runs this as a gate:
//
//	deepum-bench -tournament -quick -scale 32 -iters 2 -warmup 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"deepum"
)

func main() {
	var (
		run     = flag.String("run", "", "experiment id to run (default: all)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		scale   = flag.Int64("scale", 8, "size divisor: 1 = paper-sized footprints")
		iters   = flag.Int("iters", 4, "measured training iterations per run")
		warm    = flag.Int("warmup", 3, "warmup iterations before measurement")
		quick   = flag.Bool("quick", false, "one batch size per model")
		seed    = flag.Int64("seed", 1, "seed for input-dependent access sampling")
		timeout = flag.Duration("timeout", 0, "wall-clock budget for the whole bench; experiments past it are skipped")
		chaosN  = flag.String("chaos", "", "fault-injection scenario for UM-side runs (baselines stay clean); \"list\" enumerates")
		chaosS  = flag.Int64("chaos-seed", 0, "seed for chaos injection draws (0 = reuse -seed)")
		policyN = flag.String("policy", "", "prefetch policy for the DeepUM runs (see -policy-list; default correlation)")
		listPol = flag.Bool("policy-list", false, "list registered prefetch policies and exit")
		tourney = flag.Bool("tournament", false, "race every prefetch policy over a workload suite and print the ranking")
	)
	flag.Parse()

	if *listPol {
		for _, p := range deepum.Policies() {
			fmt.Printf("%-14s %s\n", p.Name, p.Summary)
		}
		return
	}
	if *policyN != "" && !deepum.PolicyKnown(*policyN) {
		fmt.Fprintf(os.Stderr, "deepum-bench: unknown prefetch policy %q (see -policy-list)\n", *policyN)
		os.Exit(1)
	}
	if *tourney {
		rows, err := runTournament(*scale, *iters, *warm, *seed, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepum-bench: tournament: %v\n", err)
			os.Exit(1)
		}
		printTournament(rows)
		return
	}

	if *list {
		for _, e := range deepum.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *chaosN == "list" {
		for _, sc := range deepum.ChaosScenarios() {
			fmt.Printf("%-16s %s\n", sc.Name, sc.Description)
		}
		return
	}
	if *chaosN != "" && *chaosN != "none" && !knownScenario(*chaosN) {
		fmt.Fprintf(os.Stderr, "deepum-bench: unknown chaos scenario %q (see -chaos list)\n", *chaosN)
		os.Exit(1)
	}
	opts := deepum.ExperimentOptions{
		Scale:      *scale,
		Iterations: *iters,
		Warmup:     *warm,
		Quick:      *quick,
		Seed:       *seed,
		Chaos:      *chaosN,
		ChaosSeed:  *chaosS,
		Policy:     *policyN,
	}
	var ids []string
	if *run != "" {
		ids = []string{*run}
	} else {
		for _, e := range deepum.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	for i, id := range ids {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "timeout: %d of %d experiments done; skipped %v onward\n",
				i, len(ids), id)
			os.Exit(3)
		}
		start := time.Now()
		tbl, err := runExperiment(ctx, id, opts)
		if err == context.DeadlineExceeded {
			fmt.Fprintf(os.Stderr, "timeout: %s interrupted after %v (%d of %d experiments done)\n",
				id, time.Since(start).Round(time.Millisecond), i, len(ids))
			os.Exit(3)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(tbl)
		fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// knownScenario checks the name against the public scenario listing.
func knownScenario(name string) bool {
	for _, sc := range deepum.ChaosScenarios() {
		if sc.Name == name {
			return true
		}
	}
	return false
}

// runExperiment bounds one experiment by the context's deadline. Experiments
// are synchronous batch jobs, so the bound is a supervisor: on expiry the
// bench reports partial progress and exits while the abandoned experiment's
// goroutine dies with the process.
func runExperiment(ctx context.Context, id string, opts deepum.ExperimentOptions) (fmt.Stringer, error) {
	if ctx.Done() == nil {
		return deepum.RunExperiment(id, opts)
	}
	type outcome struct {
		tbl fmt.Stringer
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		tbl, err := deepum.RunExperiment(id, opts)
		ch <- outcome{tbl, err}
	}()
	select {
	case o := <-ch:
		return o.tbl, o.err
	case <-ctx.Done():
		return nil, context.DeadlineExceeded
	}
}
