package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"deepum/internal/store"
	"deepum/internal/supervisor"
	"deepum/internal/supervisor/journal"
)

// runJournal implements `deepum-inspect journal <path>`: dump and verify a
// supervisor run journal without opening it for writing — record counts by
// type, the per-run state a restart would replay (each finished run's
// terminal state, the checkpoint each other run would resume from), and
// integrity findings (CRC failures, torn-tail offset). Exit status 0 means
// the file parsed cleanly to EOF; 2 means a torn tail or CRC failure was
// found (the intact prefix is still reported — that prefix is exactly what
// a restarted supervisor replays).
//
// With -audit and two or more journal paths it instead cross-checks a shard
// federation's journals (see auditJournals): every run must live on exactly
// one live shard; exit status 2 reports orphaned or duplicated runs.
func runJournal(args []string) {
	fs := flag.NewFlagSet("journal", flag.ExitOnError)
	verbose := fs.Bool("v", false, "dump every record, not just the summary")
	audit := fs.Bool("audit", false, "cross-shard audit over several journals (*.adopted = retired dead shard)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: deepum-inspect journal [-v] <path>")
		fmt.Fprintln(os.Stderr, "       deepum-inspect journal -audit <path>...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *audit {
		if fs.NArg() < 1 {
			fs.Usage()
			os.Exit(1)
		}
		auditJournals(fs.Args())
		return
	}
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(1)
	}
	path := fs.Arg(0)

	recs, stats, err := journal.ReplayFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepum-inspect: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("== journal %s ==\n", path)
	fmt.Printf("records      %d intact\n", stats.Records)
	for t := journal.RecSubmitted; t.Known(); t++ {
		fmt.Printf("  %-13s %d\n", t, stats.ByType[t])
	}
	fmt.Printf("crc failures %d\n", stats.CRCFailures)
	if stats.TornOffset >= 0 {
		what := "unreadable frame"
		if stats.TruncatedFrame {
			what = "torn tail (truncated frame)"
		}
		fmt.Printf("integrity    %s at byte offset %d; records after it are lost\n", what, stats.TornOffset)
	} else {
		fmt.Printf("integrity    clean to EOF\n")
	}

	// Per-run state, folded as a restarting supervisor replays it: a
	// finished run shows its terminal state, any other run the checkpoint
	// a restart would resume it from.
	folder := supervisor.NewAdoptionFolder()
	for _, r := range recs {
		folder.Add(r)
	}
	runs := byID(folder)
	fmt.Printf("\n%-8s %-8s %-11s %-8s %-22s %s\n", "run", "starts", "checkpoints", "suspends", "key", "state")
	interrupted, keyed := 0, 0
	for _, a := range runs {
		state := string(a.State)
		if !a.Terminal {
			state = "interrupted; " + resumesFrom(a)
			interrupted++
		}
		key := "-"
		if a.Key != "" {
			keyed++
			key = a.Key
			if len(key) > 20 {
				key = key[:17] + "..."
			}
		}
		fmt.Printf("%-8d %-8d %-11d %-8d %-22s %s\n", a.ID, a.Attempts, a.Checkpoints, a.Suspends, key, state)
	}
	fmt.Printf("\n%d run(s), %d interrupted, %d keyed\n", len(runs), interrupted, keyed)

	if *verbose {
		fmt.Println()
		for i, r := range recs {
			fmt.Printf("%6d  %-12s run=%d bytes=%d\n", i, r.Type, r.RunID, len(r.Data))
		}
	}
	if stats.TornOffset >= 0 || stats.CRCFailures > 0 {
		os.Exit(2)
	}
}

// byID returns the runs a folder holds, in run-ID order.
func byID(f *supervisor.AdoptionFolder) []supervisor.Adoption {
	runs := f.Adoptions()
	sort.Slice(runs, func(i, j int) bool { return runs[i].ID < runs[j].ID })
	return runs
}

// resumesFrom names the checkpoint a restart resumes an unfinished run
// from: its latest, as a store reference or inline bytes.
func resumesFrom(a supervisor.Adoption) string {
	if len(a.Resume) == 0 {
		return "restarts cold"
	}
	if k, ok := store.DecodeRef(a.Resume); ok {
		return fmt.Sprintf("resumes from checkpoint %d (store key %s)", a.Checkpoints, k)
	}
	return fmt.Sprintf("resumes from checkpoint %d (%d bytes inline)", a.Checkpoints, len(a.Resume))
}

// auditJournals cross-checks a shard federation's journals after a failover
// drill. Paths ending in .adopted are retired journals of dead shards (the
// handoff's on-disk commit point renames them); everything else is a live
// shard's journal. The invariant under audit is the federation's no-loss /
// no-duplication contract: every run ID seen anywhere — including on a dead
// shard — must appear on exactly one live shard. Zero live copies means the
// handoff orphaned the run; two or more means it was adopted twice.
//
// The audit also cross-checks admission keys: a key journaled against two
// different run IDs anywhere in the set is a duplicated admission — a
// retry that should have deduped created a second run instead. (The same
// key appearing in a dead shard's retired journal and its adopter's is
// fine, as long as both name the same run.)
//
// Exit status: 0 clean; 2 for orphaned or duplicated runs, split admission
// keys, or for journals whose integrity findings (torn tail, CRC failure)
// mean records may be missing and the audit cannot vouch for the set it
// read.
func auditJournals(paths []string) {
	type shardFile struct {
		path  string
		live  bool
		ids   map[uint64]bool
		dirty bool
	}
	files := make([]*shardFile, 0, len(paths))
	liveOn := map[uint64][]string{} // run ID -> live journals holding it
	every := map[uint64]bool{}
	keyTo := map[string]map[uint64]bool{} // admission key -> distinct run IDs
	exit := 0
	for _, path := range paths {
		recs, stats, err := journal.ReplayFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepum-inspect: %v\n", err)
			os.Exit(1)
		}
		sf := &shardFile{
			path:  path,
			live:  !strings.HasSuffix(path, ".adopted"),
			ids:   map[uint64]bool{},
			dirty: stats.TornOffset >= 0 || stats.CRCFailures > 0,
		}
		for _, r := range recs {
			sf.ids[r.RunID] = true
			every[r.RunID] = true
			if r.Type == journal.RecAdmissionKey {
				key := string(r.Data)
				if keyTo[key] == nil {
					keyTo[key] = map[uint64]bool{}
				}
				keyTo[key][r.RunID] = true
			}
		}
		if sf.live {
			for id := range sf.ids {
				liveOn[id] = append(liveOn[id], path)
			}
		}
		files = append(files, sf)
		if sf.dirty {
			exit = 2
		}
	}

	fmt.Printf("== federation journal audit: %d journal(s) ==\n", len(files))
	for _, sf := range files {
		role := "live"
		if !sf.live {
			role = "dead (adopted)"
		}
		integ := "clean"
		if sf.dirty {
			integ = "INTEGRITY FAILURE (torn tail or CRC)"
		}
		fmt.Printf("%-14s %4d run(s)  %s  %s\n", role, len(sf.ids), integ, sf.path)
	}

	var orphaned, duplicated []uint64
	for id := range every {
		switch n := len(liveOn[id]); {
		case n == 0:
			orphaned = append(orphaned, id)
		case n > 1:
			duplicated = append(duplicated, id)
		}
	}
	sort.Slice(orphaned, func(i, j int) bool { return orphaned[i] < orphaned[j] })
	sort.Slice(duplicated, func(i, j int) bool { return duplicated[i] < duplicated[j] })

	const listCap = 20
	report := func(kind string, ids []uint64) {
		if len(ids) == 0 {
			return
		}
		exit = 2
		shown := ids
		if len(shown) > listCap {
			shown = shown[:listCap]
		}
		fmt.Printf("\n%s run(s): %d\n", kind, len(ids))
		for _, id := range shown {
			where := liveOn[id]
			if len(where) == 0 {
				fmt.Printf("  run %-8d on no live shard\n", id)
				continue
			}
			fmt.Printf("  run %-8d on %s\n", id, strings.Join(where, ", "))
		}
		if len(ids) > listCap {
			fmt.Printf("  ... and %d more\n", len(ids)-listCap)
		}
	}
	report("ORPHANED", orphaned)
	report("DUPLICATED", duplicated)

	// Admission keys: one key, one run — across every journal in the set.
	var splitKeys []string
	for key, ids := range keyTo {
		if len(ids) > 1 {
			splitKeys = append(splitKeys, key)
		}
	}
	sort.Strings(splitKeys)
	if len(splitKeys) > 0 {
		exit = 2
		shown := splitKeys
		if len(shown) > listCap {
			shown = shown[:listCap]
		}
		fmt.Printf("\nSPLIT admission key(s): %d (a retry created a second run)\n", len(splitKeys))
		for _, key := range shown {
			ids := make([]uint64, 0, len(keyTo[key]))
			for id := range keyTo[key] {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			fmt.Printf("  key %q bound to runs %v\n", key, ids)
		}
		if len(splitKeys) > listCap {
			fmt.Printf("  ... and %d more\n", len(splitKeys)-listCap)
		}
	}

	if exit == 0 {
		fmt.Printf("\n%d distinct run(s), each on exactly one live shard; %d admission key(s), none split\n",
			len(every), len(keyTo))
	} else {
		fmt.Printf("\naudit FAILED: %d orphaned, %d duplicated, %d split key(s)\n",
			len(orphaned), len(duplicated), len(splitKeys))
	}
	os.Exit(exit)
}
