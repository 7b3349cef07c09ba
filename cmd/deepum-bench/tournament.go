package main

import (
	"fmt"
	"sort"
	"strings"

	"deepum"
)

// tournamentRow is one prefetch policy's score on one workload. Rank 1 is
// the fastest mean iteration time; Winner marks it. FaultsPerIter is the
// secondary figure — a policy can buy speed with prefetch traffic, so the
// table keeps both visible.
type tournamentRow struct {
	Policy         string
	IterTimeNs     int64
	FaultsPerIter  int64
	PrefetchIssued int64
	PrefetchUseful int64
	Rank           int
	Winner         bool
}

// tournamentWorkload is one workload's full ranking.
type tournamentWorkload struct {
	Model   string
	Batch   int64
	Ranking []tournamentRow
}

// tournamentSuite is the fixed workload slate: one regular-access
// transformer, one input-dependent recommender, one small CNN. quick
// drops to the first two for CI's short run.
func tournamentSuite(quick bool) []deepum.Workload {
	suite := []deepum.Workload{
		{Model: "bert-base", Batch: 32},
		{Model: "dlrm", Batch: 512},
		{Model: "mobilenet", Batch: 256},
	}
	if quick {
		return suite[:2]
	}
	return suite
}

// runTournament races every registered prefetch policy over the suite and
// ranks them per workload by mean iteration time. Every run must finish
// cleanly — StatusCompleted, no invariant violation — and all policies on
// a workload must report the same AccessChecksum (policies reorder
// migration, never computation); any breach is an error, which is what
// makes -tournament a CI gate and not just a scoreboard.
func runTournament(scale int64, iters, warmup int, seed int64, quick bool) ([]tournamentWorkload, error) {
	policies := deepum.Policies()
	if len(policies) < 2 {
		return nil, fmt.Errorf("tournament needs >= 2 registered policies, have %d", len(policies))
	}
	var out []tournamentWorkload
	for _, w := range tournamentSuite(quick) {
		entry := tournamentWorkload{Model: w.Model, Batch: w.Batch}
		var checksum uint64
		for _, p := range policies {
			cfg := deepum.DefaultConfig()
			cfg.Scale = scale
			cfg.Iterations = iters
			cfg.Warmup = warmup
			cfg.Seed = seed
			cfg.Policy = p.Name
			res, err := deepum.Train(w, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s b%d under %s: %w", w.Model, w.Batch, p.Name, err)
			}
			if !res.Succeeded() {
				return nil, fmt.Errorf("%s b%d under %s: status %s, want completed", w.Model, w.Batch, p.Name, res.Status)
			}
			if res.Invariant != nil {
				return nil, fmt.Errorf("%s b%d under %s: invariant violation: %v", w.Model, w.Batch, p.Name, res.Invariant)
			}
			if checksum == 0 {
				checksum = res.AccessChecksum
			} else if res.AccessChecksum != checksum {
				return nil, fmt.Errorf("%s b%d under %s: AccessChecksum %016x != suite's %016x — policy changed computation",
					w.Model, w.Batch, p.Name, res.AccessChecksum, checksum)
			}
			entry.Ranking = append(entry.Ranking, tournamentRow{
				Policy:         p.Name,
				IterTimeNs:     int64(res.IterationTime),
				FaultsPerIter:  res.PageFaultsPerIteration,
				PrefetchIssued: res.PrefetchIssued,
				PrefetchUseful: res.PrefetchUseful,
			})
		}
		sort.SliceStable(entry.Ranking, func(i, j int) bool {
			return entry.Ranking[i].IterTimeNs < entry.Ranking[j].IterTimeNs
		})
		for i := range entry.Ranking {
			entry.Ranking[i].Rank = i + 1
		}
		entry.Ranking[0].Winner = true
		out = append(out, entry)
	}
	return out, nil
}

// printTournament renders the per-workload ranking as a text table.
func printTournament(rows []tournamentWorkload) {
	for _, w := range rows {
		fmt.Printf("== policy tournament: %s b%d ==\n", w.Model, w.Batch)
		fmt.Printf("%-4s %-14s %14s %12s %10s %10s\n",
			"rank", "policy", "iter-time", "faults/iter", "issued", "useful")
		for _, r := range w.Ranking {
			mark := ""
			if r.Winner {
				mark = "  <- winner"
			}
			fmt.Printf("%-4d %-14s %12.3fms %12d %10d %10d%s\n",
				r.Rank, r.Policy, float64(r.IterTimeNs)/1e6,
				r.FaultsPerIter, r.PrefetchIssued, r.PrefetchUseful, mark)
		}
		fmt.Println(strings.Repeat("-", 70))
	}
}
