package main

import (
	"fmt"
	"strings"
	"testing"

	"deepum"
)

// TestStorm runs a small storm with and without the shared checkpoint
// store; runStorm applies the full checker to each.
func TestStorm(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			if code := runStorm(stormOptions{runs: 400, dir: t.TempDir(), store: withStore, seed: 1}); code != 0 {
				t.Fatalf("storm exited %d", code)
			}
		})
	}
}

// cleanLedger is a passing three-key storm.
func cleanLedger() stormLedger {
	l := stormLedger{
		keys:              map[string]stormKey{},
		completions:       map[int64]int{},
		redone:            map[int64]int{},
		runs:              map[uint64]stormRun{},
		handoffs:          1,
		live:              stormShards - 1,
		adoptedFiles:      1,
		handoffResumed:    1,
		timeoutsAfterSend: 1,
		dedupHits:         1,
		scrapedDedup:      1,
		scrapedHandoffs:   1,
		revocations:       1,
		suspends:          1,
		resumes:           1,
		store:             &stormStore{refs: 3},
	}
	for seed := int64(1); seed <= 3; seed++ {
		id := uint64(seed * 10)
		l.keys[fmt.Sprintf("storm-%d", seed)] = stormKey{seed: seed, ids: []uint64{id}}
		l.completions[seed] = 1
		l.runs[id] = stormRun{state: deepum.RunCompleted, checksum: stormExpect(seed), shards: 1}
	}
	return l
}

// TestCheckStormReportsEachFault doctors a passing ledger one fault at a
// time and expects the checker to name each one.
func TestCheckStormReportsEachFault(t *testing.T) {
	if got := checkStorm(cleanLedger()); len(got) != 0 {
		t.Fatalf("clean ledger reported %q", got)
	}
	// A completion the kill swallowed before its finish was journaled is
	// run again by the successor; the pair counts as one execution.
	l := cleanLedger()
	l.completions[2], l.redone[2] = 2, 1
	if got := checkStorm(l); len(got) != 0 {
		t.Fatalf("a redone completion reported %q", got)
	}
	run := func(l *stormLedger, id uint64, edit func(*stormRun)) {
		r := l.runs[id]
		edit(&r)
		l.runs[id] = r
	}
	cases := []struct {
		name   string
		doctor func(*stormLedger)
		want   string
	}{
		{"seed completed twice", func(l *stormLedger) { l.completions[2] = 2 }, "not completed exactly once"},
		{"seed never completed", func(l *stormLedger) { delete(l.completions, 2) }, "not completed exactly once"},
		{"kill-swallowed completion not re-run", func(l *stormLedger) { l.redone[2] = 1 }, "not completed exactly once"},
		{"checksum off by one", func(l *stormLedger) {
			run(l, 20, func(r *stormRun) { r.checksum++ })
		}, "checksum differs"},
		{"run not completed", func(l *stormLedger) {
			run(l, 20, func(r *stormRun) { r.state = deepum.RunFailed })
		}, "did not end completed"},
		{"run on two shards", func(l *stormLedger) {
			run(l, 20, func(r *stormRun) { r.shards = 2 })
		}, "on two live shards"},
		{"run on no shard", func(l *stormLedger) {
			run(l, 20, func(r *stormRun) { r.shards = 0 })
		}, "on no live shard"},
		{"stray run", func(l *stormLedger) {
			l.runs[99] = stormRun{state: deepum.RunCompleted, shards: 1}
		}, "no key resolved to"},
		{"key answered with two IDs", func(l *stormLedger) {
			l.keys["storm-2"] = stormKey{seed: 2, ids: []uint64{20, 21}}
		}, "answered with two run IDs"},
		{"key never resolved", func(l *stormLedger) {
			l.keys["storm-2"] = stormKey{seed: 2}
			delete(l.runs, 20)
		}, "no resolved run ID"},
		{"run ID claimed by two keys", func(l *stormLedger) {
			l.keys["storm-2"] = stormKey{seed: 2, ids: []uint64{10}}
			delete(l.runs, 20)
		}, "claimed by two keys"},
		{"non-retryable status", func(l *stormLedger) {
			l.badStatus = []string{"key storm-9: status 400"}
		}, "non-retryable submit"},
		{"two handoffs", func(l *stormLedger) { l.handoffs, l.scrapedHandoffs = 2, 2 }, "failover"},
		{"no shard died", func(l *stormLedger) { l.live = stormShards }, "failover"},
		{"journal not retired", func(l *stormLedger) { l.adoptedFiles = 0 }, "failover"},
		{"handoff resumed nothing", func(l *stormLedger) { l.handoffResumed = 0 }, "resumed no run"},
		{"zero timeouts-after-send", func(l *stormLedger) { l.timeoutsAfterSend = 0 }, "retries"},
		{"zero dedup hits", func(l *stormLedger) { l.dedupHits, l.scrapedDedup = 0, 0 }, "retries"},
		{"scraped dedup hits differ", func(l *stormLedger) { l.scrapedDedup = 2 }, "metrics:"},
		{"scraped handoffs differ", func(l *stormLedger) { l.scrapedHandoffs = 0 }, "metrics:"},
		{"zero revocations", func(l *stormLedger) { l.revocations = 0 }, "escalation"},
		{"zero suspends", func(l *stormLedger) { l.suspends = 0 }, "escalation"},
		{"zero resumes", func(l *stormLedger) { l.resumes = 0 }, "escalation"},
		{"scrub finding", func(l *stormLedger) { l.store.damage = "scrub found damage" }, "store:"},
		{"inline checkpoint", func(l *stormLedger) { l.store.inline = 1 }, "store:"},
		{"dangling reference", func(l *stormLedger) { l.store.dangling = 1 }, "store:"},
		{"no references", func(l *stormLedger) { l.store.refs = 0 }, "store:"},
		{"slow drain", func(l *stormLedger) { l.drain = "context deadline exceeded" }, "drain"},
		{"leaked goroutine", func(l *stormLedger) { l.leaked = 1 }, "goroutines"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := cleanLedger()
			tc.doctor(&l)
			got := checkStorm(l)
			n := 0
			for _, f := range got {
				if strings.Contains(f, tc.want) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("want one finding containing %q, got %q", tc.want, got)
			}
		})
	}
}
