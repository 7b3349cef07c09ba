// Package federation shards the run supervisor horizontally: a
// consistent-hash ring of supervisor.Supervisor shards behind one
// admission front-end. Every shard owns a slice of the run-ID space and
// journals its runs in its own crash-safe WAL, so when a shard is
// kill-9'd mid-storm the federation replays the dead shard's journal
// read-only and hands its runs to the surviving peers: finished runs stay
// finished, queued runs restart cold, interrupted runs resume from their
// latest journaled checkpoint — no run ID lost, none duplicated.
//
// The failure protocol is two explicit steps (Failover composes them):
//
//	Kill(n)    — shard n dies; its ID range rejects with *HandoffError
//	             (the serve layer turns that into 503 + Retry-After).
//	Handoff(n) — replay shard n's journal, re-hash each run onto the
//	             surviving ring, Adopt into the successors (each adoption
//	             is write-ahead journaled by the successor before it is
//	             accepted, so the handoff itself survives a further kill),
//	             then rename the dead journal to *.adopted so a replayed
//	             handoff is a no-op.
//
// Ownership is tracked per run ID, not recomputed from the ring: the ring
// decides placement at admission and succession at handoff; the owner map
// is the routing truth afterwards. That keeps already-placed runs pinned
// while the ring shrinks.
package federation

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepum/internal/admission"
	"deepum/internal/store"
	"deepum/internal/supervisor"
)

// Config parameterizes a Federation.
type Config struct {
	// Shards is the shard count; defaults to 4.
	Shards int
	// Supervisor is the per-shard template config. JournalPath is ignored —
	// each shard journals to JournalDir/shard-<n>.journal.
	Supervisor supervisor.Config
	// JournalDir holds the per-shard journals; required (journal handoff is
	// the whole point — a journal-less shard would lose its runs on kill).
	JournalDir string
	// StorePath, when set, opens one shared content-addressed checkpoint
	// store for the whole fleet and wires it into every shard's supervisor
	// (overriding Supervisor.Checkpoints). Shard journals then carry
	// 16-byte checkpoint references and a handoff moves references between
	// shards while the blobs stay put — adopting a dead shard's runs no
	// longer copies its checkpoint history. The federation owns the store
	// and closes it in Drain.
	StorePath string
	// StoreReplicas is the per-checkpoint frame replication inside the
	// shared store (scrub repairs from a surviving replica); default 2.
	StoreReplicas int
	// StoreScrubEvery starts the shared store's background scrubber at
	// this interval; 0 leaves scrubbing to explicit calls.
	StoreScrubEvery time.Duration
	// StoreNoSync skips the store's per-Put fsync. Only harnesses that
	// kill shards in-process (where the page cache survives) should set
	// it, for the same reason as JournalNoSync.
	StoreNoSync bool
}

// Federation is the sharded front-end. All methods are safe for
// concurrent use.
type Federation struct {
	cfg Config

	store *store.Store // shared checkpoint store (nil without StorePath)

	mu     sync.Mutex
	shards []*shard
	ring   *ring
	nextID uint64
	owner  map[uint64]int
	// topo is closed (and replaced) when a handoff completes; blocked
	// waiters re-resolve ownership instead of polling.
	topo       chan struct{}
	handoffs   int
	rebalances int
	// handoffRejections counts requests rejected because their shard is
	// dead awaiting handoff.
	handoffRejections int
	// keyPending singleflights concurrent submits carrying the same unbound
	// key: the first caller resolves, the rest wait on its entry instead of
	// racing two runs into different shards. A bound key is found in the
	// shards' own key tables (lookupKeyLocked).
	keyPending map[string]*keyEntry
	// fedDedup counts retries resolved at the federation front door (a
	// shard's key table or keyPending); these never reach a shard's
	// admission, so shard counters cannot see them. Stats adds it to the
	// shard totals.
	fedDedup atomic.Int64
}

// keyEntry is one in-flight keyed submission; done is closed once the
// resolver bound the key (err nil, id valid) or failed (err non-nil, the
// key is free again and a waiter may retry as the new resolver).
type keyEntry struct {
	done chan struct{}
	id   uint64
	err  error
}

type shard struct {
	ordinal int
	sup     *supervisor.Supervisor
	journal string
	alive   bool
	// handoff is non-nil from Kill until Handoff completes.
	handoff *handoffState
}

type handoffState struct {
	since      time.Time
	inProgress bool
}

// HandoffError rejects a request whose run (or fresh run ID) maps to a
// dead shard whose journal has not been handed off yet. It is retryable:
// once Handoff completes, the ID range belongs to a live successor.
type HandoffError struct {
	// Shard is the dead shard's ordinal.
	Shard int
	// Since is when the shard was declared dead.
	Since time.Time
}

func (e *HandoffError) Error() string {
	return fmt.Sprintf("federation: shard %d is dead awaiting journal handoff (since %s); retry after handoff",
		e.Shard, e.Since.Format(time.RFC3339))
}

// Retryable reports that waiting out the handoff clears the rejection.
func (e *HandoffError) Retryable() bool { return true }

// ShardError wraps a shard-local error with the owning shard's ordinal so
// callers (and HTTP error bodies) can say which shard rejected. Unwrap
// exposes the shard's typed error for errors.Is/As.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("federation: shard %d: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// New builds the shard fleet, replaying each shard's journal (a restarted
// federation self-recovers shard by shard), and seeds the global run-ID
// counter past everything the journals know.
func New(cfg Config) (*Federation, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Supervisor.Runner == nil {
		return nil, fmt.Errorf("federation: Config.Supervisor.Runner is required")
	}
	if cfg.JournalDir == "" {
		return nil, fmt.Errorf("federation: Config.JournalDir is required (journal handoff needs per-shard journals)")
	}
	if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
		return nil, fmt.Errorf("federation: creating journal dir: %w", err)
	}
	f := &Federation{
		cfg:        cfg,
		owner:      map[uint64]int{},
		topo:       make(chan struct{}),
		nextID:     1,
		keyPending: map[string]*keyEntry{},
	}
	if cfg.StorePath != "" {
		replicas := cfg.StoreReplicas
		if replicas <= 0 {
			replicas = 2
		}
		st, _, err := store.Open(cfg.StorePath, store.Options{
			Replicas:   replicas,
			ScrubEvery: cfg.StoreScrubEvery,
			NoSync:     cfg.StoreNoSync,
		})
		if err != nil {
			return nil, fmt.Errorf("federation: opening checkpoint store: %w", err)
		}
		f.store = st
		cfg.Supervisor.Checkpoints = st
	}
	ordinals := make([]int, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		ordinals[i] = i
		scfg := cfg.Supervisor
		scfg.JournalPath = filepath.Join(cfg.JournalDir, fmt.Sprintf("shard-%d.journal", i))
		if f.store != nil {
			// Per-shard auto-GC is only safe for a store with one writer; a
			// shard compacting the shared store against its own live set
			// would drop its peers' checkpoints, so a shared store is never
			// compacted.
			scfg.StoreGCThreshold = 0
		}
		sup, err := supervisor.New(scfg)
		if err != nil {
			for _, sh := range f.shards {
				sh.sup.Kill()
			}
			if f.store != nil {
				f.store.Close()
			}
			return nil, fmt.Errorf("federation: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, &shard{ordinal: i, sup: sup, journal: scfg.JournalPath, alive: true})
	}
	f.ring = buildRing(ordinals)
	// Rebuild the routing truth from the shards' replayed journals. A crash
	// inside a previous handoff (after some Adopts, before the *.adopted
	// rename) can leave a run on two journals; keep the first copy and
	// cancel the later one so exactly one shard ever executes it.
	for _, sh := range f.shards {
		for _, info := range sh.sup.List() {
			if _, dup := f.owner[info.ID]; dup {
				_ = sh.sup.Cancel(info.ID)
				continue
			}
			f.owner[info.ID] = sh.ordinal
			if info.ID >= f.nextID {
				f.nextID = info.ID + 1
			}
		}
	}
	return f, nil
}

// Submit admits one run: a globally-unique ID is assigned, hashed onto the
// ring, and submitted to the owning shard. Rejections keep their shard-
// local types behind *ShardError; an ID landing on a dead shard mid-
// handoff rejects with *HandoffError. Rejected IDs are burned, never
// reused — IDs are identities, not a dense sequence.
func (f *Federation) Submit(spec supervisor.RunSpec) (uint64, error) {
	id, _, err := f.SubmitWithOptions(spec, supervisor.SubmitOptions{})
	return id, err
}

// SubmitWithOptions is Submit plus idempotency and deadline handling (see
// supervisor.SubmitOptions). A submission whose key is already bound —
// here, on a shard, or via an adopted handoff — returns the bound run's ID
// with dedup=true; concurrent submissions racing the same unbound key are
// singleflighted so exactly one run is ever created per key.
func (f *Federation) SubmitWithOptions(spec supervisor.RunSpec, opts supervisor.SubmitOptions) (uint64, bool, error) {
	if opts.Key == "" {
		id, dedup, err := f.submitFresh(spec, opts)
		return id, dedup, err
	}
	if err := admission.ValidateKey(opts.Key); err != nil {
		return 0, false, err
	}
	for {
		f.mu.Lock()
		if id, ok := f.lookupKeyLocked(opts.Key); ok {
			f.mu.Unlock()
			f.fedDedup.Add(1)
			return id, true, nil
		}
		if e, ok := f.keyPending[opts.Key]; ok {
			f.mu.Unlock()
			<-e.done
			if e.err == nil {
				f.fedDedup.Add(1)
				return e.id, true, nil
			}
			// The resolver failed without binding the key; this waiter loops
			// and becomes the new resolver — a transient rejection of the
			// first attempt must not poison the key.
			continue
		}
		e := &keyEntry{done: make(chan struct{})}
		f.keyPending[opts.Key] = e
		f.mu.Unlock()

		// The shard bound the key before it returned, so a submit that takes
		// f.mu after this delete finds the binding in the shard's table.
		id, dedup, err := f.submitFresh(spec, opts)
		f.mu.Lock()
		delete(f.keyPending, opts.Key)
		f.mu.Unlock()
		e.id, e.err = id, err
		close(e.done)
		return id, dedup, err
	}
}

// lookupKeyLocked resolves a bound idempotency key from the shards' key
// tables, which journal replay and handoff adoption rebuild. Dead shards
// are searched too: a killed shard keeps its table, and a key bound there
// resolves to its run until the handoff moves the run (and the key) to a
// successor. Caller holds mu.
func (f *Federation) lookupKeyLocked(key string) (uint64, bool) {
	for _, sh := range f.shards {
		if id, ok := sh.sup.LookupKey(key); ok {
			return id, true
		}
	}
	return 0, false
}

// submitFresh runs one admission attempt: assign a global ID, route it,
// submit to the owning shard. A shard-level dedup (the shard's replayed key
// table knew the key before the federation did) burns the fresh ID and
// resolves to the shard's binding.
func (f *Federation) submitFresh(spec supervisor.RunSpec, opts supervisor.SubmitOptions) (uint64, bool, error) {
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	ord := f.ring.owner(id)
	sh := f.shards[ord]
	if !sh.alive {
		err := f.handoffErrLocked(sh)
		f.handoffRejections++
		f.mu.Unlock()
		return 0, false, err
	}
	f.owner[id] = ord
	f.mu.Unlock()
	got, dedup, err := sh.sup.SubmitWithOptions(id, spec, opts)
	if err != nil {
		f.mu.Lock()
		delete(f.owner, id)
		// Kill can land between the alive check above and the submit, making
		// the shard reject with its shutdown error. The caller must see the
		// same retryable handoff rejection it would have seen a microsecond
		// later, not a "federation draining" signal that is not true.
		if !sh.alive && errors.Is(err, supervisor.ErrShuttingDown) {
			herr := f.handoffErrLocked(sh)
			f.handoffRejections++
			f.mu.Unlock()
			return 0, false, herr
		}
		f.mu.Unlock()
		return 0, false, &ShardError{Shard: ord, Err: err}
	}
	if dedup {
		f.mu.Lock()
		delete(f.owner, id) // burned: the key resolved to an existing run
		f.mu.Unlock()
		return got, true, nil
	}
	return got, false, nil
}

// RetryAfterHint prices a jittered backoff hint from a live shard's drain
// model, for rejection paths with no typed Retry-After (drain, handoff
// windows). Falls back to one second when no shard is alive.
func (f *Federation) RetryAfterHint() time.Duration {
	f.mu.Lock()
	var sup *supervisor.Supervisor
	for _, sh := range f.shards {
		if sh.alive {
			sup = sh.sup
			break
		}
	}
	f.mu.Unlock()
	if sup == nil {
		return time.Second
	}
	return sup.RetryAfterHint()
}

// handoffErrLocked builds the rejection for a dead shard; caller holds mu.
func (f *Federation) handoffErrLocked(sh *shard) *HandoffError {
	e := &HandoffError{Shard: sh.ordinal}
	if sh.handoff != nil {
		e.Since = sh.handoff.since
	}
	return e
}

// route resolves a run ID to its live owning shard.
func (f *Federation) route(id uint64) (*shard, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ord, ok := f.owner[id]
	if !ok {
		return nil, &supervisor.NotFoundError{ID: id}
	}
	sh := f.shards[ord]
	if !sh.alive {
		return nil, f.handoffErrLocked(sh)
	}
	return sh, nil
}

// Get snapshots one run from its owning shard.
func (f *Federation) Get(id uint64) (supervisor.RunInfo, error) {
	sh, err := f.route(id)
	if err != nil {
		return supervisor.RunInfo{}, err
	}
	info, err := sh.sup.Get(id)
	if err != nil {
		return info, &ShardError{Shard: sh.ordinal, Err: err}
	}
	return info, nil
}

// Cancel stops a run on its owning shard.
func (f *Federation) Cancel(id uint64) error {
	sh, err := f.route(id)
	if err != nil {
		return err
	}
	if err := sh.sup.Cancel(id); err != nil {
		return &ShardError{Shard: sh.ordinal, Err: err}
	}
	return nil
}

// Resume force-resumes a suspended run on its owning shard, bypassing the
// arbiter's headroom gate (operator override).
func (f *Federation) Resume(id uint64) error {
	sh, err := f.route(id)
	if err != nil {
		return err
	}
	if err := sh.sup.Resume(id); err != nil {
		return &ShardError{Shard: sh.ordinal, Err: err}
	}
	return nil
}

// Wait blocks until the run is terminal on a live owner. If the owning
// shard is killed while waiting, Wait re-resolves after the handoff moves
// the run — the returned snapshot always comes from a shard that was the
// run's live owner at read time, never from a dead shard's untrustworthy
// in-memory state. A run on a killed shard that is never handed off keeps
// Wait blocked (there is no truthful answer until the journal is adopted).
func (f *Federation) Wait(id uint64) (supervisor.RunInfo, error) {
	for {
		f.mu.Lock()
		ord, ok := f.owner[id]
		if !ok {
			f.mu.Unlock()
			return supervisor.RunInfo{}, &supervisor.NotFoundError{ID: id}
		}
		sh := f.shards[ord]
		topo := f.topo
		alive := sh.alive
		f.mu.Unlock()
		if !alive {
			<-topo // handoff completion re-routes the run
			continue
		}
		done, err := sh.sup.Done(id)
		if err != nil {
			// Ownership says this shard, the shard disagrees: the owner map
			// moved between our read and the lookup. Re-resolve.
			select {
			case <-topo:
			case <-sh.sup.Killed():
			}
			continue
		}
		select {
		case <-done:
			info, gerr := sh.sup.Get(id)
			if gerr != nil {
				continue
			}
			f.mu.Lock()
			settled := f.shards[ord].alive && f.owner[id] == ord
			f.mu.Unlock()
			if settled {
				return info, nil
			}
			// The shard died (or the run moved) while we read; its snapshot
			// may disagree with the journal. Resolve again.
		case <-sh.sup.Killed():
			// The run will finish on whichever peer adopts it.
		}
	}
}

// List snapshots every run owned by a live shard, ascending by run ID.
// Runs stranded on a dead shard mid-handoff are omitted until adopted.
func (f *Federation) List() []supervisor.RunInfo {
	f.mu.Lock()
	type ref struct {
		id  uint64
		sup *supervisor.Supervisor
	}
	refs := make([]ref, 0, len(f.owner))
	for id, ord := range f.owner {
		if sh := f.shards[ord]; sh.alive {
			refs = append(refs, ref{id: id, sup: sh.sup})
		}
	}
	f.mu.Unlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].id < refs[j].id })
	out := make([]supervisor.RunInfo, 0, len(refs))
	for _, r := range refs {
		if info, err := r.sup.Get(r.id); err == nil {
			out = append(out, info)
		}
	}
	return out
}

// Kill hard-stops one shard, simulating a process kill: nothing more is
// journaled there, in-flight runs are interrupted, and the shard's ID
// range rejects with *HandoffError until Handoff moves its journal to the
// survivors.
func (f *Federation) Kill(ordinal int) error {
	f.mu.Lock()
	if ordinal < 0 || ordinal >= len(f.shards) {
		f.mu.Unlock()
		return fmt.Errorf("federation: no shard %d", ordinal)
	}
	sh := f.shards[ordinal]
	if !sh.alive {
		f.mu.Unlock()
		return fmt.Errorf("federation: shard %d is already dead", ordinal)
	}
	sh.alive = false
	sh.handoff = &handoffState{since: time.Now()}
	f.mu.Unlock()
	sh.sup.Kill()
	return nil
}

// HandoffReport summarizes one journal handoff.
type HandoffReport struct {
	// Shard is the dead shard whose journal was adopted.
	Shard int `json:"shard"`
	// Runs is how many runs the dead journal held.
	Runs int `json:"runs"`
	// Queued counts non-terminal runs re-admitted on successors (Resumed of
	// them from a journaled checkpoint), Finished terminal history carried
	// over, Skipped runs a successor already knew (idempotent replay).
	Queued   int `json:"queued"`
	Resumed  int `json:"resumed"`
	Finished int `json:"finished"`
	Skipped  int `json:"skipped"`
	// Successors maps successor ordinal to how many of the dead shard's
	// runs it now owns.
	Successors map[int]int `json:"successors,omitempty"`
}

// Handoff adopts a dead shard's journal into the surviving peers: replay
// read-only, re-hash every run onto the shrunken ring, Adopt per
// successor (write-ahead journaled there), rename the dead journal to
// *.adopted, then flip ownership and the ring. A failed handoff leaves
// ownership untouched and may be retried — successors skip runs they
// already adopted.
func (f *Federation) Handoff(ordinal int) (HandoffReport, error) {
	rep := HandoffReport{Shard: ordinal, Successors: map[int]int{}}
	f.mu.Lock()
	if ordinal < 0 || ordinal >= len(f.shards) {
		f.mu.Unlock()
		return rep, fmt.Errorf("federation: no shard %d", ordinal)
	}
	sh := f.shards[ordinal]
	switch {
	case sh.alive:
		f.mu.Unlock()
		return rep, fmt.Errorf("federation: shard %d is alive; kill it before handing off its journal", ordinal)
	case sh.handoff == nil:
		f.mu.Unlock()
		return rep, fmt.Errorf("federation: shard %d was already handed off", ordinal)
	case sh.handoff.inProgress:
		f.mu.Unlock()
		return rep, fmt.Errorf("federation: shard %d handoff already in progress", ordinal)
	}
	sh.handoff.inProgress = true
	var live []int
	for _, s := range f.shards {
		if s.alive {
			live = append(live, s.ordinal)
		}
	}
	f.mu.Unlock()
	fail := func(err error) (HandoffReport, error) {
		f.mu.Lock()
		sh.handoff.inProgress = false
		f.mu.Unlock()
		return rep, err
	}
	if len(live) == 0 {
		return fail(fmt.Errorf("federation: no live shard left to adopt shard %d's runs", ordinal))
	}
	newRing := buildRing(live)

	adoptions, _, err := supervisor.ReplayJournal(sh.journal)
	if err != nil {
		return fail(fmt.Errorf("federation: replaying shard %d journal: %w", ordinal, err))
	}
	rep.Runs = len(adoptions)
	successor := make(map[uint64]int, len(adoptions))
	groups := map[int][]supervisor.Adoption{}
	for _, a := range adoptions {
		succ := newRing.owner(a.ID)
		successor[a.ID] = succ
		groups[succ] = append(groups[succ], a)
	}
	// Deterministic adoption order so a crashed-and-retried handoff replays
	// the same way.
	succs := make([]int, 0, len(groups))
	for s := range groups {
		succs = append(succs, s)
	}
	sort.Ints(succs)
	for _, succ := range succs {
		r, err := f.shards[succ].sup.Adopt(groups[succ])
		if err != nil {
			return fail(fmt.Errorf("federation: shard %d adopting from shard %d: %w", succ, ordinal, err))
		}
		rep.Queued += r.Queued
		rep.Resumed += r.Resumed
		rep.Finished += r.Finished
		rep.Skipped += r.Skipped
		rep.Successors[succ] = len(groups[succ])
	}
	// The rename is the handoff's commit point on disk: once the journal is
	// *.adopted, a federation restart will not resurrect the dead shard's
	// runs alongside the adopted copies.
	if err := os.Rename(sh.journal, sh.journal+".adopted"); err != nil {
		return fail(fmt.Errorf("federation: retiring shard %d journal: %w", ordinal, err))
	}
	f.mu.Lock()
	for id, succ := range successor {
		f.owner[id] = succ
	}
	f.ring = newRing
	sh.handoff = nil
	f.handoffs++
	f.rebalances++
	close(f.topo)
	f.topo = make(chan struct{})
	f.mu.Unlock()
	return rep, nil
}

// Failover is Kill then Handoff — the whole shard-death drill in one call.
func (f *Federation) Failover(ordinal int) (HandoffReport, error) {
	if err := f.Kill(ordinal); err != nil {
		return HandoffReport{}, err
	}
	return f.Handoff(ordinal)
}

// Supervisor exposes one shard's supervisor (tests, inspection).
func (f *Federation) Supervisor(ordinal int) *supervisor.Supervisor {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ordinal < 0 || ordinal >= len(f.shards) {
		return nil
	}
	return f.shards[ordinal].sup
}

// Owner reports which shard currently owns the run ID.
func (f *Federation) Owner(id uint64) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ord, ok := f.owner[id]
	return ord, ok
}

// ShardStats is one shard's row in the /shards status endpoint.
type ShardStats struct {
	Ordinal int  `json:"ordinal"`
	Alive   bool `json:"alive"`
	// HandoffPending marks a dead shard whose journal has not been adopted
	// yet — its ID range is rejecting with 503s.
	HandoffPending bool   `json:"handoff_pending,omitempty"`
	Journal        string `json:"journal"`
	Queued         int    `json:"queued"`
	Running        int    `json:"running"`
	Suspended      int    `json:"suspended,omitempty"`
	Terminal       int    `json:"terminal"`
	// Recovered counts runs replayed from the shard's own journal at start;
	// Adopted counts runs taken over from dead peers.
	Recovered int `json:"recovered,omitempty"`
	Adopted   int `json:"adopted,omitempty"`
}

// Shards snapshots every shard.
func (f *Federation) Shards() []ShardStats {
	f.mu.Lock()
	shards := append([]*shard(nil), f.shards...)
	alive := make([]bool, len(shards))
	pending := make([]bool, len(shards))
	for i, sh := range shards {
		alive[i] = sh.alive
		pending[i] = sh.handoff != nil
	}
	f.mu.Unlock()
	out := make([]ShardStats, len(shards))
	for i, sh := range shards {
		st := sh.sup.Stats()
		out[i] = ShardStats{
			Ordinal:        sh.ordinal,
			Alive:          alive[i],
			HandoffPending: pending[i],
			Journal:        sh.journal,
			Queued:         st.Queued,
			Running:        st.Running,
			Suspended:      st.Suspended,
			Terminal:       st.Terminal,
			Recovered:      st.Recovered,
			Adopted:        st.Adopted,
		}
	}
	return out
}

// Stats is the federation-wide aggregate.
type Stats struct {
	Shards     int `json:"shards"`
	Live       int `json:"live"`
	Handoffs   int `json:"handoffs"`
	Rebalances int `json:"rebalances"`
	// HandoffRejections counts requests rejected because their shard was
	// dead awaiting handoff.
	HandoffRejections int    `json:"handoff_rejections"`
	NextID            uint64 `json:"next_id"`
	Queued            int    `json:"queued"`
	Running           int    `json:"running"`
	Suspended         int    `json:"suspended"`
	Terminal          int    `json:"terminal"`
	// Suspends and Resumes total the arbiter suspend-to-checkpoint cycles
	// across live shards.
	Suspends int64 `json:"suspends"`
	Resumes  int64 `json:"resumes"`
	// Adopted totals runs adopted across all shards (non-terminal).
	Adopted int `json:"adopted"`
	// DedupHits and Sheds total the admission retry-safety counters across
	// live shards: retried submissions resolved by idempotency key, and
	// deadline-based rejections.
	DedupHits int64 `json:"dedup_hits"`
	Sheds     int64 `json:"sheds"`
}

// Stats aggregates across live shards.
func (f *Federation) Stats() Stats {
	f.mu.Lock()
	st := Stats{
		Shards:            len(f.shards),
		Handoffs:          f.handoffs,
		Rebalances:        f.rebalances,
		HandoffRejections: f.handoffRejections,
		NextID:            f.nextID,
	}
	var liveShards []*shard
	for _, sh := range f.shards {
		if sh.alive {
			liveShards = append(liveShards, sh)
		}
	}
	f.mu.Unlock()
	st.Live = len(liveShards)
	for _, sh := range liveShards {
		s := sh.sup.Stats()
		st.Queued += s.Queued
		st.Running += s.Running
		st.Suspended += s.Suspended
		st.Terminal += s.Terminal
		st.Adopted += s.Adopted
		st.DedupHits += s.DedupHits
		st.Sheds += s.Sheds
		st.Suspends += s.Suspends
		st.Resumes += s.Resumes
	}
	st.DedupHits += f.fedDedup.Load()
	return st
}

// Accepting reports whether any live shard still admits runs (the /readyz
// signal; a mid-handoff federation stays ready on its surviving shards).
func (f *Federation) Accepting() bool {
	f.mu.Lock()
	shards := append([]*shard(nil), f.shards...)
	f.mu.Unlock()
	for _, sh := range shards {
		if sh.alive && sh.sup.Accepting() {
			return true
		}
	}
	return false
}

// Drain shuts every shard down gracefully (killed shards no-op), honoring
// ctx the way supervisor.Drain does.
func (f *Federation) Drain(ctx context.Context) error {
	f.mu.Lock()
	shards := append([]*shard(nil), f.shards...)
	f.mu.Unlock()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			if err := sh.sup.Drain(ctx); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", sh.ordinal, err)
			}
		}(i, sh)
	}
	wg.Wait()
	// Close the shared checkpoint store only after every shard stopped
	// journaling references into it.
	if f.store != nil {
		if err := f.store.Close(); err != nil {
			errs = append(errs, fmt.Errorf("checkpoint store: %w", err))
		}
	}
	return errors.Join(errs...)
}

// Store exposes the shared checkpoint store (nil unless Config.StorePath
// was set) for scrubbing and audits.
func (f *Federation) Store() *store.Store { return f.store }
