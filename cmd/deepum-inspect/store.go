package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"deepum/internal/store"
	"deepum/internal/supervisor"
	"deepum/internal/supervisor/journal"
)

// runStore implements `deepum-inspect store <store> [journal...]`: a
// read-only audit of a content-addressed checkpoint store — frame and CRC
// verification, the rebuilt index with replica-count bounds, corrupt
// regions and torn-tail offset — plus, when journal paths follow, a
// cross-check that every journal checkpoint reference resolves in the
// store's index.
//
// Only each run's LATEST checkpoint reference must resolve: superseded
// checkpoints are legitimate compaction garbage, and a finished run's
// references may be reclaimed wholesale. A dangling latest reference on an
// unfinished run is the real failure — that run would cold-restart.
//
// Exit status: 0 clean; 2 for store corruption (corrupt regions or a torn
// tail) or a dangling latest reference; 1 for files that cannot be read at
// all.
func runStore(args []string) {
	fs := flag.NewFlagSet("store", flag.ExitOnError)
	verbose := fs.Bool("v", false, "list every key with its replica count")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: deepum-inspect store [-v] <store> [journal...]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() < 1 {
		fs.Usage()
		os.Exit(1)
	}
	path := fs.Arg(0)

	rep, err := store.Audit(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepum-inspect: %v\n", err)
		os.Exit(1)
	}
	exit := 0

	fmt.Printf("== store %s ==\n", path)
	fmt.Printf("bytes        %d\n", rep.Bytes)
	fmt.Printf("frames       %d intact\n", rep.Frames)
	fmt.Printf("keys         %d distinct (replicas %d..%d)\n", rep.Keys, rep.MinReplicas, rep.MaxReplicas)
	if rep.Clean() {
		fmt.Printf("integrity    clean to EOF\n")
	} else {
		exit = 2
		for _, cr := range rep.CorruptRegions {
			fmt.Printf("integrity    CORRUPT region at byte %d (%d bytes skipped)\n", cr.Off, cr.Len)
		}
		if rep.TornOffset >= 0 {
			fmt.Printf("integrity    torn tail at byte offset %d; a writable Open would truncate it\n", rep.TornOffset)
		}
	}

	if *verbose {
		keys := make([]store.Key, 0, len(rep.Index))
		for k := range rep.Index {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		fmt.Printf("\n%-18s %s\n", "key", "replicas")
		for _, k := range keys {
			fmt.Printf("%-18s %d\n", k, rep.Index[k])
		}
	}

	// Journal cross-check: fold each journal the way a restarting
	// supervisor would (latest checkpoint per run wins) and resolve what
	// it would actually dereference.
	var (
		refRecords    int
		inlineRecords int
		dangling      = map[store.Key][]string{} // key -> "journal#run" holders
		live          = map[store.Key]bool{}     // latest refs of unfinished runs
	)
	for _, jpath := range fs.Args()[1:] {
		folder := supervisor.NewAdoptionFolder()
		_, err := journal.ReplayStreamFile(jpath, func(rec journal.Record) error {
			if rec.Type == journal.RecCheckpointed {
				if _, ok := store.DecodeRef(rec.Data); ok {
					refRecords++
				} else if len(rec.Data) > 0 {
					inlineRecords++
				}
			}
			folder.Add(rec)
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepum-inspect: %v\n", err)
			os.Exit(1)
		}
		for _, a := range byID(folder) {
			k, ok := store.DecodeRef(a.Resume)
			if a.Terminal || !ok {
				continue
			}
			live[k] = true
			if rep.Index[k] == 0 {
				dangling[k] = append(dangling[k], fmt.Sprintf("%s#run%d", jpath, a.ID))
			}
		}
	}

	if fs.NArg() > 1 {
		fmt.Printf("\n== journal cross-check: %d journal(s) ==\n", fs.NArg()-1)
		fmt.Printf("checkpoint records   %d by reference, %d inline\n", refRecords, inlineRecords)
		// Garbage ratio: the fraction of store keys no unfinished run's
		// latest reference holds — what a compaction against these journals
		// would reclaim (a supervisor that is its store's only writer
		// compacts past Config.StoreGCThreshold; a federation's shared
		// store is never compacted).
		if rep.Keys > 0 {
			liveKeys := 0
			for k := range live {
				if rep.Index[k] > 0 {
					liveKeys++
				}
			}
			garbage := rep.Keys - liveKeys
			fmt.Printf("garbage              %d of %d key(s) unreferenced (ratio %.2f; reclaimable by compaction)\n",
				garbage, rep.Keys, float64(garbage)/float64(rep.Keys))
		}
		if len(dangling) == 0 {
			fmt.Printf("references           every unfinished run's latest reference resolves\n")
		} else {
			exit = 2
			keys := make([]store.Key, 0, len(dangling))
			for k := range dangling {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				for _, holder := range dangling[k] {
					fmt.Printf("references           DANGLING %s held by %s (would cold-restart)\n", k, holder)
				}
			}
		}
	}

	if exit != 0 {
		fmt.Printf("\naudit FAILED\n")
	}
	os.Exit(exit)
}
