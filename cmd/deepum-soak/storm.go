package main

// Combined-fault storm (-storm): one drill for the serving layer's
// invariants under every fault class at once. A federation of
// stormShards supervisors, each oversubscribed under its memory arbiter,
// takes -runs keyed submits over HTTP from clients whose transport injects
// timeouts-after-send (the server admitted the submit, the client saw a
// timeout), slow responses and torn bodies, so every submit is retried
// under its idempotency key. Eight hang runs, each demanding 60% of a
// shard's budget, go in first and block mid-run, so any shard holding two
// of them must revoke bursts and suspend runs to checkpoint. Once half the
// keys resolve and a suspension has been seen, one shard is killed and its
// journal handed off while the storm goes on. With -store the fleet
// shares one content-addressed checkpoint store.
//
// One stub runner, one oracle and one ledger serve every fault class, and
// checkStorm judges the ledger. -seed fixes the transport's fault draws,
// not the goroutine interleaving: two storms with one seed inject the same
// fault sequence, but the scheduler may deliver it to different requests.
//
// Journals and the store run without fsync: the storm kills shards
// in-process (the page cache survives), and 10^4 synced appends would make
// it about disk latency instead of failover.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deepum"
	"deepum/internal/store"
	"deepum/internal/supervisor/journal"
)

const (
	stormShards     = 4
	stormWorkers    = 4
	stormBudget     = int64(1) << 30 // per shard
	stormHangDemand = stormBudget * 3 / 5
	stormHangRuns   = 8 // submitted first, so they wedge workers before the kill
	stormHangAt     = 4 // hang runs block here, after the iteration-4 checkpoint
	stormIters      = 6
	stormCkptEach   = 2
	stormSubmitters = 8
	stormWaitLimit  = 5 * time.Minute // for every run to finish once the submits are in
	stormDrainLimit = 30 * time.Second
)

type stormOptions struct {
	runs  int
	dir   string // journals (and the store) survive here for offline audit
	store bool
	seed  int64 // seeds the transport's fault draws
}

// stormCkpt is the stub runner's checkpoint: its entire state, so a
// resumed run is bit-identical to an uninterrupted one by construction.
type stormCkpt struct {
	Iter int    `json:"iter"`
	Hash uint64 `json:"hash"`
}

func (c stormCkpt) bytes() []byte {
	b, _ := json.Marshal(c) // two numbers cannot fail to marshal
	return b
}

func stormSeedBase(seed int64) uint64 {
	return 0xcbf29ce484222325 ^ uint64(seed)*0x100000001b3
}

func stormStep(h uint64, seed int64, iter int) uint64 {
	h ^= uint64(iter)*0x9E3779B97F4A7C15 + uint64(seed)
	return h * 0x100000001b3
}

// stormExpect is the oracle: the checksum an uninterrupted execution of
// seed produces, and therefore what every suspended, adopted or resumed
// execution must reproduce.
func stormExpect(seed int64) uint64 {
	h := stormSeedBase(seed)
	for i := 0; i < stormIters; i++ {
		h = stormStep(h, seed, i)
	}
	return h
}

// stormRunner folds (seed, iter) into a rolling hash, checkpointing every
// stormCkptEach iterations, and reports each completed execution to
// completed. It checks ctx on every iteration: a suspended or killed run
// returns its full state as the checkpoint. Runs with Chaos="hang" block
// at stormHangAt until gate closes, so the killed shard dies holding
// interrupted runs with journaled mid-run state.
func stormRunner(gate <-chan struct{}, completed func(seed int64)) deepum.Runner {
	return deepum.RunnerFunc(func(ctx context.Context, spec deepum.RunSpec, resume []byte, progress func([]byte)) (deepum.RunOutcome, error) {
		st := stormCkpt{Hash: stormSeedBase(spec.Seed)}
		if len(resume) > 0 {
			if err := json.Unmarshal(resume, &st); err != nil {
				return deepum.RunOutcome{}, err
			}
		}
		for st.Iter < spec.Iterations {
			if spec.Chaos == "hang" && st.Iter == stormHangAt {
				select {
				case <-gate:
				case <-ctx.Done():
				}
			}
			if ctx.Err() != nil {
				return deepum.RunOutcome{
					Status:         string(deepum.RunCancelled),
					Iterations:     st.Iter,
					AccessChecksum: st.Hash,
					Checkpoint:     st.bytes(),
				}, nil
			}
			st.Hash = stormStep(st.Hash, spec.Seed, st.Iter)
			st.Iter++
			if st.Iter%stormCkptEach == 0 && st.Iter < spec.Iterations {
				progress(st.bytes())
			}
		}
		completed(spec.Seed)
		return deepum.RunOutcome{
			Status:         string(deepum.RunCompleted),
			Iterations:     st.Iter,
			AccessChecksum: st.Hash,
		}, nil
	})
}

// stormLedger is everything one storm observed; checkStorm judges it.
type stormLedger struct {
	// keys maps each submitted idempotency key to its seed and every
	// distinct run ID a response named for it.
	keys map[string]stormKey
	// completions counts the runner's completed executions per seed: the
	// exactly-once ledger.
	completions map[int64]int
	// redone counts, per seed, completions the kill swallowed: the killed
	// shard finished these runs after Kill, so no finish record reached
	// its journal and the successor ran them again from their checkpoint.
	redone map[int64]int
	// runs holds every resolved run ID and every run a live shard owns.
	runs map[uint64]stormRun
	// badStatus lists non-retryable submit responses, which is how a hard
	// QuotaError reaches an HTTP client.
	badStatus []string

	handoffs, live, adoptedFiles int
	handoffResumed               int // adopted runs resumed from a checkpoint
	timeoutsAfterSend, dedupHits int64
	// scrapedDedup and scrapedHandoffs sum deepum_admission_dedup_hits_total
	// and deepum_federation_handoffs_total over the federation's rendered
	// metrics, as a scraper that sums a family by name reads them.
	scrapedDedup    int64
	scrapedHandoffs int
	// revocations, suspends and resumes sum over every shard, the killed
	// one included.
	revocations, suspends, resumes int64

	store  *stormStore // nil without -store
	drain  string      // drain error, "" when the fleet drained in time
	leaked int         // goroutines alive after drain beyond the start
	victim int         // the killed shard
}

type stormKey struct {
	seed int64
	ids  []uint64
}

type stormRun struct {
	state    deepum.RunState
	reason   string
	checksum uint64
	shards   int // live shards listing this run as their own
}

// stormStore is the post-storm audit of the shared checkpoint store.
type stormStore struct {
	damage   string // scrub finding or journal replay error, "" when clean
	refs     int    // checkpoint records holding a store reference
	inline   int    // checkpoint records holding an inline blob
	dangling int    // references the store cannot resolve
}

// tally counts one class of violation and keeps its first example.
type tally struct {
	what  string
	n     int
	first string
}

func (t *tally) add(format string, args ...any) {
	if t.n == 0 {
		t.first = fmt.Sprintf(format, args...)
	}
	t.n++
}

// checkStorm returns one line per violated invariant; an empty result
// means the storm passed.
func checkStorm(l stormLedger) []string {
	var (
		unresolved = &tally{what: "key(s) with no resolved run ID"}
		split      = &tally{what: "key(s) answered with two run IDs"}
		shared     = &tally{what: "run ID(s) claimed by two keys"}
		execs      = &tally{what: "seed(s) not completed exactly once"}
		unfinished = &tally{what: "run(s) that did not end completed"}
		diverged   = &tally{what: "run(s) whose checksum differs from the oracle"}
		lost       = &tally{what: "run(s) on no live shard"}
		dup        = &tally{what: "run(s) on two live shards"}
		stray      = &tally{what: "run(s) on a live shard that no key resolved to"}
	)
	owner := map[uint64]string{}
	for key, k := range l.keys {
		if n := l.completions[k.seed] - l.redone[k.seed]; n != 1 {
			execs.add("key %s (seed %d) completed %d times", key, k.seed, n)
		}
		if len(k.ids) == 0 {
			unresolved.add("key %s", key)
			continue
		}
		if len(k.ids) > 1 {
			split.add("key %s answered %v", key, k.ids)
		}
		id := k.ids[0]
		if prev, ok := owner[id]; ok {
			shared.add("run %d claimed by keys %s and %s", id, prev, key)
		}
		owner[id] = key
		r := l.runs[id]
		switch {
		case r.state != deepum.RunCompleted:
			unfinished.add("run %d (key %s) ended %q (%s)", id, key, r.state, r.reason)
		case r.checksum != stormExpect(k.seed):
			diverged.add("run %d (key %s) checksum %016x, want %016x", id, key, r.checksum, stormExpect(k.seed))
		}
		switch {
		case r.shards == 0:
			lost.add("run %d (key %s)", id, key)
		case r.shards > 1:
			dup.add("run %d (key %s) on %d shards", id, key, r.shards)
		}
	}
	for id, r := range l.runs {
		if _, ok := owner[id]; !ok && r.shards > 0 {
			stray.add("run %d", id)
		}
	}

	var out []string
	failf := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, t := range []*tally{unresolved, split, shared, execs, unfinished, diverged, lost, dup, stray} {
		if t.n > 0 {
			failf("%d %s (first: %s)", t.n, t.what, t.first)
		}
	}
	if len(l.badStatus) > 0 {
		failf("%d non-retryable submit response(s) (first: %s)", len(l.badStatus), l.badStatus[0])
	}
	if l.handoffs != 1 || l.live != stormShards-1 || l.adoptedFiles != 1 {
		failf("failover: %d handoff(s), %d live shard(s), %d *.adopted file(s); want 1, %d, 1",
			l.handoffs, l.live, l.adoptedFiles, stormShards-1)
	}
	if l.handoffResumed == 0 {
		failf("the handoff resumed no run from a checkpoint; the kill interrupted nothing")
	}
	if l.timeoutsAfterSend == 0 || l.dedupHits == 0 {
		failf("retries: %d timeout(s)-after-send, %d dedup hit(s); want both > 0", l.timeoutsAfterSend, l.dedupHits)
	}
	if l.scrapedDedup != l.dedupHits || l.scrapedHandoffs != l.handoffs {
		failf("metrics: deepum_admission_dedup_hits_total sums to %d against %d in Stats, deepum_federation_handoffs_total to %d against %d in the ledger",
			l.scrapedDedup, l.dedupHits, l.scrapedHandoffs, l.handoffs)
	}
	if l.revocations == 0 || l.suspends == 0 || l.resumes == 0 {
		failf("escalation: %d revocation(s), %d suspend(s), %d resume(s); want each > 0",
			l.revocations, l.suspends, l.resumes)
	}
	if s := l.store; s != nil && (s.damage != "" || s.inline > 0 || s.dangling > 0 || s.refs == 0) {
		failf("store: %d reference(s), %d dangling, %d inline blob(s), damage %q; want references only, all resolving, no damage",
			s.refs, s.dangling, s.inline, s.damage)
	}
	if l.drain != "" {
		failf("drain: %s", l.drain)
	}
	if l.leaked > 0 {
		failf("goroutines: %d leaked", l.leaked)
	}
	return out
}

// runStorm executes the drill and returns the process exit code.
func runStorm(opts stormOptions) int {
	start := time.Now()
	l, err := storm(opts)
	if err != nil {
		fmt.Printf("FAIL storm: %v\n", err)
		return 1
	}
	fails := checkStorm(l)
	for _, f := range fails {
		fmt.Printf("FAIL %s\n", f)
	}
	if len(fails) > 0 {
		fmt.Printf("storm FAILED: %d failure(s) in %v\n", len(fails), time.Since(start).Round(time.Millisecond))
		return 1
	}
	fmt.Printf("storm OK: %d keys exactly-once through %d timeouts-after-send, %d suspensions and a shard %d failover, %v\n",
		len(l.keys), l.timeoutsAfterSend, l.suspends, l.victim, time.Since(start).Round(time.Millisecond))
	return 0
}

// stormRig is one storm in flight.
type stormRig struct {
	fed      *deepum.Federation
	url      string
	client   *http.Client
	resolved atomic.Int64 // keys with at least one answered ID

	mu sync.Mutex
	l  stormLedger
}

// storm runs the drill and returns its ledger.
func storm(opts stormOptions) (stormLedger, error) {
	opts.runs = max(opts.runs, 100)
	if opts.dir == "" {
		d, err := os.MkdirTemp("", "deepum-storm-")
		if err != nil {
			return stormLedger{}, err
		}
		opts.dir = d
	}
	startGoroutines := runtime.NumGoroutine()
	rig := &stormRig{l: stormLedger{
		keys:        map[string]stormKey{},
		completions: map[int64]int{},
		redone:      map[int64]int{},
		runs:        map[uint64]stormRun{},
	}}
	gate := make(chan struct{})
	fcfg := deepum.FederationOptions{
		Shards: stormShards,
		Supervisor: deepum.SupervisorConfig{
			Runner: stormRunner(gate, func(seed int64) {
				rig.mu.Lock()
				rig.l.completions[seed]++
				rig.mu.Unlock()
			}),
			Estimate:        func(deepum.RunSpec) (int64, error) { return 1 << 20, nil },
			Workers:         stormWorkers,
			QueueDepth:      256,
			JournalNoSync:   true,
			GPUMemoryBudget: stormBudget,
			Oversubscribe:   true,
			Arbiter: deepum.ArbiterOptions{
				HalfLife: (10 * time.Millisecond).Nanoseconds(),
				Sustain:  (30 * time.Millisecond).Nanoseconds(),
			},
			ArbiterTick: 5 * time.Millisecond,
		},
		JournalDir: opts.dir,
	}
	if opts.store {
		fcfg.StorePath = filepath.Join(opts.dir, "ck.store")
		fcfg.StoreNoSync = true
	}
	fed, err := deepum.NewFederation(fcfg)
	if err != nil {
		return stormLedger{}, err
	}
	rig.fed = fed
	ts := httptest.NewServer(stormHandler(fed))
	ft := deepum.NewFaultTransport(ts.Client().Transport, deepum.NetFaultOptions{
		TimeoutAfterSendProb: 0.35,
		SlowProb:             0.05,
		SlowDelay:            2 * time.Millisecond,
		TornBodyProb:         0.05,
		Seed:                 opts.seed,
	})
	rig.url = ts.URL
	rig.client = &http.Client{Transport: ft, Timeout: 5 * time.Second}
	fmt.Printf("storm      %d shards x %d workers, %d MiB budget each, %d keys, seed %d, store %v, journals in %s\n",
		stormShards, stormWorkers, stormBudget>>20, opts.runs, opts.seed, opts.store, opts.dir)

	var seeds atomic.Int64
	for i := 0; i < stormHangRuns; i++ {
		rig.submit(seeds.Add(1), true)
	}
	var report deepum.ShardHandoffReport
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		defer close(gate)
		rig.l.victim, report = rig.killAndHandOff(opts.runs / 2)
	}()
	var wg sync.WaitGroup
	for w := 0; w < stormSubmitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := seeds.Add(1); seed <= int64(opts.runs); seed = seeds.Add(1) {
				rig.submit(seed, false)
			}
		}()
	}
	wg.Wait()
	<-killDone

	// The submitters and the killer are done: from here on only runners
	// write the ledger, and only its completions, under rig.mu.
	l := &rig.l
	nf := ft.Stats()
	fmt.Printf("faults     %d round trips: %d timeouts-after-send, %d slowed, %d torn; kill+handoff on shard %d\n",
		nf.Requests, nf.TimeoutsAfterSend, nf.Slowed, nf.Torn, l.victim)
	runs := map[uint64]stormRun{}
	deadline := time.Now().Add(stormWaitLimit)
	for _, k := range l.keys {
		for _, id := range k.ids {
			// A run still unfinished at the deadline is recorded as it stands.
			var info deepum.RunInfo
			var err error
			waitFor(time.Until(deadline), func() bool {
				info, err = fed.Get(id)
				return err != nil || info.State.Terminal()
			})
			r := stormRun{state: info.State, reason: info.Reason}
			if err != nil {
				r.reason = err.Error()
			} else if info.Outcome != nil {
				r.checksum = info.Outcome.AccessChecksum
			}
			runs[id] = r
		}
	}
	for ord := 0; ord < stormShards; ord++ {
		st := fed.Supervisor(ord).Stats() // a killed shard's counters stay readable
		l.revocations += st.Arbiter.Revocations
		l.suspends += st.Suspends
		l.resumes += st.Resumes
		for _, info := range fed.Supervisor(ord).List() {
			if ord == l.victim {
				// Running at Kill (which sets reason "killed") yet
				// completed: the runner finished after the kill, and no
				// finish record reached the journal.
				if info.State == deepum.RunCompleted && info.Reason == "killed" {
					l.redone[info.Spec.Seed]++
				}
				continue
			}
			if o, _ := fed.Owner(info.ID); o == ord {
				r := runs[info.ID]
				r.shards++
				runs[info.ID] = r
			}
		}
	}
	fmt.Printf("handoff    %d runs: %d finished history, %d re-queued (%d resumed from checkpoints), %d skipped; %d run(s) finished unjournaled at the kill and ran again\n",
		report.Runs, report.Finished, report.Queued, report.Resumed, report.Skipped, len(l.redone))
	fst := fed.Stats()
	adopted, _ := filepath.Glob(filepath.Join(opts.dir, "*.adopted")) // Glob fails only on a bad pattern
	l.runs = runs
	l.handoffs, l.live, l.adoptedFiles = fst.Handoffs, fst.Live, len(adopted)
	l.handoffResumed = report.Resumed
	l.timeoutsAfterSend, l.dedupHits = nf.TimeoutsAfterSend, fst.DedupHits
	var exposition bytes.Buffer
	_ = fed.WriteMetrics(&exposition) // a bytes.Buffer takes every write
	sums := sumFamilies(exposition.String())
	l.scrapedDedup = int64(sums["deepum_admission_dedup_hits_total"])
	l.scrapedHandoffs = int(sums["deepum_federation_handoffs_total"])
	fmt.Printf("arbiter    %d revocation(s), %d suspension(s), %d resume(s) across %d shards; %d dedup hits\n",
		l.revocations, l.suspends, l.resumes, stormShards, l.dedupHits)
	if opts.store {
		l.store = auditStore(fed, opts.dir)
	}

	ctx, cancel := context.WithTimeout(context.Background(), stormDrainLimit)
	defer cancel()
	if err := fed.Drain(ctx); err != nil {
		l.drain = err.Error()
	}
	ts.Close()
	rig.client.CloseIdleConnections()
	l.leaked = goroutineLeak(startGoroutines)
	return *l, nil
}

// submit retries one keyed submit until a response names its run ID,
// recording every ID the server ever names for the key.
func (rig *stormRig) submit(seed int64, hang bool) {
	key := "storm-" + strconv.FormatInt(seed, 10)
	spec := deepum.RunSpec{
		Model:           "bert-base",
		Batch:           8,
		Seed:            seed,
		Iterations:      stormIters,
		CheckpointEvery: stormCkptEach,
	}
	if hang {
		spec.Chaos = "hang"
		spec.MemoryDemand = stormHangDemand
	}
	rig.mu.Lock()
	rig.l.keys[key] = stormKey{seed: seed}
	rig.mu.Unlock()
	body, _ := json.Marshal(spec) // a RunSpec holds only plain fields
	for attempt := 0; attempt < 10000; attempt++ {
		req, _ := http.NewRequest("POST", rig.url, bytes.NewReader(body)) // fixed method, test-server URL
		req.Header.Set("Idempotency-Key", key)
		resp, err := rig.client.Do(req)
		if err != nil {
			continue // a timeout-after-send: retry blind under the same key
		}
		var out struct {
			ID uint64 `json:"id"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			if derr != nil {
				continue // a torn body: the ID was lost in transit
			}
			rig.mu.Lock()
			k := rig.l.keys[key]
			if len(k.ids) == 0 {
				rig.resolved.Add(1)
			}
			if !slices.Contains(k.ids, out.ID) {
				k.ids = append(k.ids, out.ID)
			}
			rig.l.keys[key] = k
			rig.mu.Unlock()
			return
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			time.Sleep(500 * time.Microsecond)
		default:
			rig.mu.Lock()
			rig.l.badStatus = append(rig.l.badStatus, fmt.Sprintf("key %s: status %d", key, resp.StatusCode))
			rig.mu.Unlock()
			return
		}
	}
}

// killAndHandOff waits for half the keys to resolve and for the first
// suspension (bounded), kills the shard chooseFedVictim picks, holds the
// handoff window open for 2ms so the storm runs through it, then hands
// the dead journal off. Waiting for a suspension makes the escalation
// check deterministic: the hang runs hold their pressure until then. A
// failed kill or handoff is printed here and fails the handoff count.
func (rig *stormRig) killAndHandOff(half int) (int, deepum.ShardHandoffReport) {
	waitFor(2*time.Minute, func() bool { return rig.resolved.Load() >= int64(half) })
	waitFor(10*time.Second, func() bool {
		for ord := 0; ord < stormShards; ord++ {
			if rig.fed.Supervisor(ord).Stats().Suspends > 0 {
				return true
			}
		}
		return false
	})
	victim := chooseFedVictim(rig.fed)
	if err := rig.fed.Kill(victim); err != nil {
		fmt.Printf("kill shard %d: %v\n", victim, err)
		return victim, deepum.ShardHandoffReport{}
	}
	time.Sleep(2 * time.Millisecond)
	rep, err := rig.fed.Handoff(victim)
	if err != nil {
		fmt.Printf("handoff shard %d: %v\n", victim, err)
	}
	return victim, rep
}

// chooseFedVictim prefers a shard running a checkpointed hang run, so the
// kill interrupts mid-run state, and falls back to shard 0 after 2s (the
// checker then fails the storm: the handoff resumes nothing).
func chooseFedVictim(fed *deepum.Federation) int {
	victim := 0
	waitFor(2*time.Second, func() bool {
		for ord := 0; ord < stormShards; ord++ {
			for _, info := range fed.Supervisor(ord).List() {
				if info.State == deepum.RunRunning && info.Spec.Chaos == "hang" && info.Checkpoints >= 2 {
					victim = ord
					return true
				}
			}
		}
		return false
	})
	return victim
}

// sumFamilies sums every sample of each family in a text exposition, by
// family name.
func sumFamilies(text string) map[string]float64 {
	sums := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			name, _, _ := strings.Cut(line[:i], "{")
			sums[name] += v
		}
	}
	return sums
}

// waitFor polls cond every millisecond until it holds or limit passes.
func waitFor(limit time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(limit); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// auditStore scrubs the shared store and folds every checkpoint record in
// every journal, the dead shard's *.adopted included, into reference
// counts: the blobs must never touch a WAL, and the kill and handoff may
// not dangle a single reference.
func auditStore(fed *deepum.Federation, dir string) *stormStore {
	a := &stormStore{}
	st := fed.Store()
	srep, err := st.Scrub()
	switch {
	case err != nil:
		a.damage = "scrub: " + err.Error()
	case srep.CorruptFrames > 0 || srep.Repaired > 0 || len(srep.Lost) > 0 || srep.TornBytes > 0:
		a.damage = fmt.Sprintf("scrub found damage after a clean-disk storm: %+v", srep)
	}
	journals, _ := filepath.Glob(filepath.Join(dir, "*.journal")) // Glob fails only on a bad pattern
	adopted, _ := filepath.Glob(filepath.Join(dir, "*.adopted"))
	for _, path := range append(journals, adopted...) {
		_, err := journal.ReplayStreamFile(path, func(rec journal.Record) error {
			if rec.Type != journal.RecCheckpointed || len(rec.Data) == 0 {
				return nil
			}
			key, ok := store.DecodeRef(rec.Data)
			switch {
			case !ok:
				a.inline++
			case !st.Has(key):
				a.refs++
				a.dangling++
			default:
				a.refs++
			}
			return nil
		})
		if err != nil && a.damage == "" {
			a.damage = fmt.Sprintf("replaying %s: %v", path, err)
		}
	}
	sst := st.Stats()
	fmt.Printf("store      %d journal refs across %d journal(s), %d dangling; %d keys, %d dedup hits, %d frames scrubbed\n",
		a.refs, len(journals)+len(adopted), a.dangling, sst.Keys, sst.DedupHits, srep.Frames)
	return a
}

// stormHandler is the minimal submit endpoint: the SubmitWithOptions
// contract over HTTP, with the status mapping deepum-serve uses for the
// admission errors the storm exercises.
func stormHandler(fed *deepum.Federation) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var spec deepum.RunSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var opts deepum.SubmitOptions
		if key := r.Header.Get("Idempotency-Key"); key != "" {
			if err := deepum.ValidateIdempotencyKey(key); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			opts.Key = key
		}
		id, dedup, err := fed.SubmitWithOptions(spec, opts)
		if err != nil {
			var he *deepum.ShardHandoffError
			var shed *deepum.ShedError
			var qf *deepum.QueueFullError
			var q *deepum.QuotaError
			switch {
			case errors.As(err, &he):
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
			case errors.As(err, &shed):
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
			case errors.As(err, &qf), errors.As(err, &q) && q.Retryable():
				http.Error(w, err.Error(), http.StatusTooManyRequests)
			default:
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		status := http.StatusAccepted
		if dedup {
			status = http.StatusOK
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]uint64{"id": id})
	})
}
