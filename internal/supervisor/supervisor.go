// Package supervisor keeps many concurrent simulated training runs healthy
// under load. It layers on top of the single-run lifecycle plumbing
// (context cancellation, typed RunStatus, warm-state checkpoints): a
// bounded worker pool executes runs, admission control rejects work the
// system cannot hold with typed errors (queue full, over GPU-memory
// quota), per-run quotas partition the simulated GPU memory budget,
// hang-detection watchdogs escalate stalled runs to cancellation, and
// shutdown drains gracefully. Every run-state transition that must survive
// a process kill is written ahead to a crash-safe journal
// (internal/supervisor/journal), so a restarted supervisor reconstructs
// all run state by replay and resumes interrupted runs from their latest
// journaled checkpoints.
package supervisor

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"deepum/internal/admission"
	"deepum/internal/arbiter"
	"deepum/internal/metrics"
	"deepum/internal/obs"
	"deepum/internal/store"
	"deepum/internal/supervisor/journal"
)

// Config parameterizes a Supervisor.
type Config struct {
	// Runner executes runs; required.
	Runner Runner
	// Workers is the pool size — how many runs execute concurrently.
	// Defaults to 4.
	Workers int
	// QueueDepth bounds the submission queue (admitted-but-not-started
	// runs). A full queue rejects submissions with *QueueFullError —
	// backpressure instead of unbounded buffering. Defaults to 16.
	QueueDepth int
	// GPUMemoryBudget is the total simulated GPU memory (bytes) the
	// supervisor may pledge to admitted runs at once; 0 disables quota
	// admission. One run may demand at most an equal partition of it,
	// GPUMemoryBudget / Workers — or, with Oversubscribe on, the whole
	// budget: under the arbiter a per-run rejection means "this run can
	// NEVER fit the device", not "the pool is busy right now".
	GPUMemoryBudget int64
	// Oversubscribe replaces hard total-budget QuotaError rejections with
	// arbiter admission: runs whose aggregate demand exceeds
	// GPUMemoryBudget are all admitted and kept alive under pressure via
	// soft grants, burst revocation, and suspend-to-checkpoint. Requires a
	// positive GPUMemoryBudget.
	Oversubscribe bool
	// Arbiter tunes the oversubscription arbiter (zero values select the
	// arbiter package defaults; Budget defaults to GPUMemoryBudget).
	// Ignored unless Oversubscribe is set.
	Arbiter arbiter.Options
	// ArbiterTick is the wall-clock cadence of arbiter escalation ticks
	// (pressure smoothing, revocation, suspension). Defaults to 10ms.
	ArbiterTick time.Duration
	// Obs, when non-nil, receives a KindPressure event on TrackArbiter for
	// every arbiter grant-state change (wall-clock timestamps).
	Obs *obs.Recorder
	// StoreGCThreshold enables reference-counted checkpoint-store garbage
	// collection: after a run finishes, if the fraction of store keys not
	// referenced by any live (non-terminal) run's resume state exceeds the
	// threshold, the supervisor compacts the store in the background.
	// 0 disables. Only safe when this supervisor is the store's sole
	// writer: a federation zeroes it on every shard, because one shard's
	// live set would reclaim its peers' checkpoints, so a federation's
	// shared store is never compacted.
	StoreGCThreshold float64
	// WatchdogTimeout is how long a running run may go without a progress
	// heartbeat before the watchdog cancels it; 0 disables hang detection.
	// RunSpec.Timeout overrides it per run.
	WatchdogTimeout time.Duration
	// JournalPath enables the crash-safe run journal. An existing journal
	// is replayed at construction: finished runs become history,
	// interrupted ones are re-admitted and resumed from their latest
	// checkpoint. Empty keeps all state in memory.
	JournalPath string
	// JournalNoSync skips the per-append fsync. Only harnesses that kill
	// supervisors in-process (Supervisor.Kill, where the page cache
	// survives) should set it; a real kill -9 needs the fsync.
	JournalNoSync bool
	// Checkpoints, when non-nil, is the content-addressed store checkpoint
	// blobs are saved to. The journal then carries a 16-byte reference per
	// RecCheckpointed record instead of the blob: the journal stops growing
	// with checkpoint history, identical checkpoints dedup across runs and
	// restarts, and a federation handoff moves references while the blobs
	// stay put in the shared store. Store failures (full disk, a detected
	// hash collision) fall back to inlining the blob in the journal —
	// checkpoint durability never regresses below the journal-only
	// contract. A reference that no longer resolves at resume time (the
	// blob was scrub-degraded or compacted away) degrades that run to a
	// cold restart. The caller owns the store and closes it after Drain.
	Checkpoints *store.Store
	// Estimate fills RunSpec.MemoryDemand at admission when the spec left
	// it zero (e.g. from the workload's scaled footprint); nil treats
	// missing demand as zero.
	Estimate func(RunSpec) (int64, error)
}

// Supervisor is the multi-run supervision layer. All methods are safe for
// concurrent use.
type Supervisor struct {
	cfg    Config
	epoch  time.Time
	wg     sync.WaitGroup
	waitWG sync.Once

	// keys maps idempotency keys to run IDs (rebuilt from RecAdmissionKey
	// records on replay); shedder models queue drain for deadline-aware
	// admission. Both carry their own locks and never take s.mu.
	keys      *admission.KeyTable
	shedder   *admission.Shedder
	dedupHits atomic.Int64

	// ckMu orders checkpoint writes against store compaction. A checkpoint
	// holds it shared from its store Put until its record is journaled,
	// and a store GC pass holds it exclusively, so the pass never sees a
	// blob that is stored but not yet journaled. The Put runs outside mu:
	// hashing and dedup-verifying a checkpoint takes milliseconds, and
	// submits and polls wait on mu.
	ckMu sync.RWMutex

	mu        sync.Mutex
	runs      map[uint64]*run
	order     []uint64
	nextID    uint64
	committed int64
	draining  bool
	killed    bool
	// The submission queue is a cond-guarded slice, not a channel: Submit
	// bounds it at Config.QueueDepth (backpressure), but journal replay
	// and cross-shard adoption (Adopt) may push past the bound — those
	// runs were already admitted once and must never be re-rejected.
	queued    []uint64
	qcond     *sync.Cond
	qclosed   bool
	jl        *journal.Journal
	jlClosed  bool
	recovered int
	adopted   int
	// Checkpoint accounting: payloads stored as references vs inlined
	// (store rejected), resumes degraded to cold restart because their
	// reference no longer resolved, and mid-run checkpoints the journal
	// failed to append.
	ckptStored         int
	ckptInlined        int
	coldRestarts       int
	ckptAppendFailures int
	// Oversubscription accounting: suspend-to-checkpoint cycles and
	// resumptions of suspended runs.
	suspends int64
	resumes  int64
	// Serving counts, read by Stats and rendered by MetricFamilies:
	// admission results, terminal transitions by state, ladder moves by
	// target level, watchdog cancels, recovered runner panics, and the
	// queue-wait (by admission class) and run-duration histograms.
	subs            Submissions
	finished        map[RunState]int64
	healthMoves     [4]int64
	watchdogCancels int64
	workerPanics    int64
	queueWait       map[string]*metrics.Histogram
	runSeconds      *metrics.Histogram

	// arb is the oversubscription arbiter (nil when Oversubscribe is off;
	// every arbiter method is nil-safe). arbStop ends its tick loop once.
	arb     *arbiter.Arbiter
	arbStop chan struct{}
	arbOnce sync.Once
	// Store-GC accounting: gcBusy serializes background compactions and
	// gcPending records a trigger that arrived during one; counters are
	// read by Stats.
	gcBusy      atomic.Bool
	gcPending   atomic.Bool
	gcRuns      atomic.Int64
	gcReclaimed atomic.Int64
	gcFailures  atomic.Int64

	workersDone chan struct{}
	killedCh    chan struct{}
}

// Admission classes for the queue-wait histogram: runs that propagated a
// client deadline vs best-effort submissions (including adoptions, whose
// deadline does not survive a handoff).
const (
	classDeadline   = "deadline"
	classBestEffort = "best_effort"
)

// run is the supervisor's internal per-run record; info is the published
// snapshot, the rest is scheduling state.
type run struct {
	class        string // admission class (classDeadline / classBestEffort)
	info         RunInfo
	resume       []byte // latest checkpoint bytes, what a restart resumes from
	cancel       context.CancelFunc
	cancelReason string
	// suspendReason, when non-empty on a running run, asks finalize to
	// suspend-to-checkpoint instead of going terminal (arbiter pressure or
	// the Suspend API). A real cancellation reason always wins over it.
	suspendReason string
	// force lets Resume bypass the arbiter's headroom gate once.
	force       bool
	heartbeat   atomic.Int64 // unix nanos of last progress signal
	healthLevel atomic.Int64 // current degradation-ladder level
	done        chan struct{}
}

// journalSpec is the submitted-record payload: the spec plus the admitted
// demand, so replay does not re-estimate.
type journalSpec struct {
	Spec   RunSpec `json:"spec"`
	Demand int64   `json:"demand"`
}

// journalFinish is the finished-record payload.
type journalFinish struct {
	State   RunState `json:"state"`
	Reason  string   `json:"reason,omitempty"`
	Outcome *Outcome `json:"outcome,omitempty"`
}

// New builds a supervisor, replays its journal if one is configured, and
// starts the worker pool. Interrupted runs found in the journal are
// already queued (and counted against the quota) when New returns.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("supervisor: Config.Runner is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Oversubscribe && cfg.GPUMemoryBudget <= 0 {
		return nil, fmt.Errorf("supervisor: Oversubscribe requires a positive GPUMemoryBudget")
	}
	s := &Supervisor{
		cfg:         cfg,
		epoch:       time.Now(),
		runs:        map[uint64]*run{},
		nextID:      1,
		workersDone: make(chan struct{}),
		killedCh:    make(chan struct{}),
		keys:        admission.NewKeyTable(),
		shedder:     admission.NewShedder(admission.ShedOptions{}),
		finished:    map[RunState]int64{},
		queueWait: map[string]*metrics.Histogram{
			classDeadline:   metrics.NewHistogram(queueWaitBuckets),
			classBestEffort: metrics.NewHistogram(queueWaitBuckets),
		},
		runSeconds: metrics.NewHistogram(runSecondsBuckets),
	}
	s.qcond = sync.NewCond(&s.mu)
	if cfg.Oversubscribe {
		aopt := cfg.Arbiter
		if aopt.Budget == 0 {
			aopt.Budget = cfg.GPUMemoryBudget
		}
		userEvent := aopt.OnEvent
		aopt.OnEvent = func(ev arbiter.Event) {
			s.noteArbiter(ev)
			if userEvent != nil {
				userEvent(ev)
			}
		}
		arb, err := arbiter.New(aopt)
		if err != nil {
			return nil, fmt.Errorf("supervisor: %w", err)
		}
		s.arb = arb
		s.arbStop = make(chan struct{})
	}
	if cfg.JournalPath != "" {
		// Stream the journal through the adoption folder: the fold keeps
		// only the latest checkpoint payload per run, so recovery memory is
		// one frame plus one live checkpoint per run — not the journal's
		// full checkpoint history (with a store configured, the payloads
		// are 16-byte references and even that shrinks to nothing).
		folder := NewAdoptionFolder()
		jl, _, err := journal.OpenStream(store.OSFS{}, cfg.JournalPath, !cfg.JournalNoSync, func(rec journal.Record) error {
			folder.Add(rec)
			return nil
		})
		if err != nil {
			return nil, err
		}
		s.jl = jl
		// Replay our own journal: the records are already durable here, so
		// nothing is re-journaled, and recovered runs bypass the
		// queue-depth bound — they were admitted before the crash.
		for _, a := range folder.Adoptions() {
			if _, err := s.admitAdoptionLocked(a, false); err != nil {
				jl.Close()
				return nil, fmt.Errorf("supervisor: journal replay: %w", err)
			}
		}
		s.recovered, s.adopted = s.adopted, 0
	}
	for range cfg.Workers {
		s.wg.Add(1)
		go s.worker()
	}
	if s.arb != nil {
		tick := cfg.ArbiterTick
		if tick <= 0 {
			tick = 10 * time.Millisecond
		}
		s.wg.Add(1)
		go s.arbiterLoop(tick)
	}
	return s, nil
}

// arbiterLoop drives the arbiter's escalation ladder on a wall-clock tick:
// pressure smoothing, burst revocation/restoration, and suspend-victim
// selection. Each tick also wakes the workers so queue entries gated on
// resume headroom are re-checked.
func (s *Supervisor) arbiterLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.arbStop:
			return
		case now := <-t.C:
			d := s.arb.Tick(now.UnixNano())
			for _, id := range d.Suspend {
				// Best effort: the victim may have finished or been
				// cancelled between selection and here.
				_ = s.suspend(id, "arbiter: sustained memory pressure")
			}
			s.mu.Lock()
			s.qcond.Broadcast()
			s.mu.Unlock()
		}
	}
}

// stopArbiter ends the tick loop; no further suspensions are initiated.
func (s *Supervisor) stopArbiter() {
	if s.arb == nil {
		return
	}
	s.arbOnce.Do(func() { close(s.arbStop) })
}

// Adoption is one run lifted from a replayed journal — the unit of both
// self-recovery (New replaying its own journal) and cross-shard handoff
// (a federation successor adopting a dead peer's journal via Adopt).
type Adoption struct {
	ID   uint64
	Spec RunSpec
	// Key is the run's idempotency key, if one was journaled — it travels
	// through handoff so a retry landing on the adopting shard still dedups.
	Key         string
	Demand      int64
	Attempts    int    // started records seen before the kill
	Checkpoints int    // checkpoint records seen
	Suspends    int    // arbiter suspension records seen
	Resume      []byte // latest checkpoint payload; nil = cold start
	// Terminal marks a run that already finished (or whose spec record is
	// undecodable): it is adopted as history and never re-executed.
	Terminal bool
	State    RunState
	Reason   string
	Outcome  *Outcome
}

// AdoptionFolder folds journal records into per-run adoptions one record
// at a time. It keeps only the latest checkpoint payload per run — not the
// full checkpoint history a journal accumulates — so replaying through a
// folder (journal.OpenStream or journal.ReplayStreamFile feeding Add) runs
// in space proportional to the number of runs, not the journal's size.
type AdoptionFolder struct {
	ghosts map[uint64]*ghost
	order  []uint64
}

type ghost struct {
	spec     journalSpec
	specOK   bool
	key      string
	started  int
	ckpt     []byte
	ckpts    int
	suspends int
	finish   *journalFinish
}

// NewAdoptionFolder returns an empty folder.
func NewAdoptionFolder() *AdoptionFolder {
	return &AdoptionFolder{ghosts: map[uint64]*ghost{}}
}

// Add folds one replayed record into the per-run state.
func (f *AdoptionFolder) Add(rec journal.Record) {
	g := f.ghosts[rec.RunID]
	if g == nil {
		g = &ghost{}
		f.ghosts[rec.RunID] = g
	}
	switch rec.Type {
	case journal.RecSubmitted:
		if json.Unmarshal(rec.Data, &g.spec) == nil {
			g.specOK = true
		}
		f.order = append(f.order, rec.RunID)
	case journal.RecStarted:
		g.started++
	case journal.RecCheckpointed:
		// Latest wins; the superseded payload is garbage immediately, which
		// is the whole point of folding instead of materializing.
		g.ckpt = rec.Data
		g.ckpts++
	case journal.RecFinished:
		var fin journalFinish
		if json.Unmarshal(rec.Data, &fin) == nil {
			g.finish = &fin
		}
	case journal.RecAdmissionKey:
		// The key record precedes the run's spec record; a key-only ghost
		// (crash between the two appends) never enters f.order and is
		// dropped — a client retry then creates exactly one run.
		g.key = string(rec.Data)
	case journal.RecSuspended:
		// Non-terminal by design: a run whose last lifecycle record is a
		// suspension folds exactly like an interrupted one — requeued and
		// resumed from its latest checkpoint — so both self-recovery and a
		// federation handoff adopt suspended runs with no special casing.
		g.suspends++
	}
}

// Adoptions assembles the folded state, in first-submission order: latest
// checkpoint per run, the terminal state for finished runs, a queued
// adoption for everything that was in flight or waiting when the journal's
// writer died.
func (f *AdoptionFolder) Adoptions() []Adoption {
	out := make([]Adoption, 0, len(f.order))
	for _, id := range f.order {
		g := f.ghosts[id]
		a := Adoption{
			ID:          id,
			Spec:        g.spec.Spec,
			Key:         g.key,
			Demand:      g.spec.Demand,
			Attempts:    g.started,
			Checkpoints: g.ckpts,
			Suspends:    g.suspends,
		}
		switch {
		case !g.specOK:
			// CRC said the record was intact, so this is a version-skew
			// style failure; surface it rather than dropping the run.
			reason := "journal replay: undecodable spec"
			a.Terminal, a.State, a.Reason = true, StateFailed, reason
			a.Outcome = &Outcome{Status: string(StateFailed), Error: reason}
		case g.finish != nil:
			a.Terminal, a.State, a.Reason = true, g.finish.State, g.finish.Reason
			a.Outcome = g.finish.Outcome
		default:
			a.Resume = g.ckpt
		}
		out = append(out, a)
	}
	return out
}

// ReplayJournal reads the journal at path read-only — torn tail tolerated,
// file untouched — and returns its runs as adoptions plus the replay
// stats. It is the first half of a cross-shard handoff: a federation
// replays a dead shard's journal and feeds the adoptions to a live peer's
// Adopt. The replay streams: checkpoint history beyond the latest per run
// is never resident.
func ReplayJournal(path string) ([]Adoption, journal.ReplayStats, error) {
	f := NewAdoptionFolder()
	stats, err := journal.ReplayStreamFile(path, func(rec journal.Record) error {
		f.Add(rec)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return f.Adoptions(), stats, nil
}

// AdoptReport summarizes one Adopt call.
type AdoptReport struct {
	// Queued counts non-terminal runs re-admitted to the worker pool.
	Queued int
	// Resumed counts the Queued runs that carry a checkpoint to resume
	// from (the rest start cold).
	Resumed int
	// Finished counts terminal runs adopted as history.
	Finished int
	// Skipped counts run IDs this supervisor already knew — a re-played
	// handoff is idempotent, never a duplicate execution.
	Skipped int
}

// Adopt takes ownership of runs replayed from a dead peer's journal:
// terminal runs become local history, interrupted and queued runs are
// re-admitted (bypassing the queue-depth bound — they were admitted once
// already) with their latest checkpoint as resume state. Every adopted
// run is written ahead to this supervisor's own journal first, so the
// handoff itself survives a subsequent kill. Runs whose ID is already
// known are skipped, which makes a replayed or crashed-and-retried
// handoff idempotent.
func (s *Supervisor) Adopt(adoptions []Adoption) (AdoptReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep AdoptReport
	if s.draining || s.killed {
		return rep, ErrShuttingDown
	}
	for _, a := range adoptions {
		if _, exists := s.runs[a.ID]; exists {
			rep.Skipped++
			continue
		}
		queued, err := s.admitAdoptionLocked(a, true)
		if err != nil {
			return rep, err
		}
		switch {
		case !queued:
			rep.Finished++
		default:
			rep.Queued++
			if len(a.Resume) > 0 {
				rep.Resumed++
			}
		}
	}
	return rep, nil
}

// admitAdoptionLocked inserts one adopted run. journalIt re-journals the
// run into this supervisor's own journal (cross-shard handoff); replay of
// our own journal passes false because the records are already there.
// Caller holds mu (or is inside New, before any concurrency). Reports
// whether the run was queued for execution (vs adopted as history).
func (s *Supervisor) admitAdoptionLocked(a Adoption, journalIt bool) (bool, error) {
	if a.ID >= s.nextID {
		s.nextID = a.ID + 1
	}
	if journalIt {
		if a.Key != "" {
			// Key before spec, same write-ahead order as a fresh submit, so
			// a crash mid-handoff leaves a droppable dangling key, never a
			// keyless (re-executable) run.
			if err := s.appendLocked(journal.Record{Type: journal.RecAdmissionKey, RunID: a.ID, Data: []byte(a.Key)}); err != nil {
				return false, err
			}
		}
		data, err := json.Marshal(journalSpec{Spec: a.Spec, Demand: a.Demand})
		if err != nil {
			return false, fmt.Errorf("supervisor: encoding adopted spec: %w", err)
		}
		if err := s.appendLocked(journal.Record{Type: journal.RecSubmitted, RunID: a.ID, Data: data}); err != nil {
			return false, err
		}
		if len(a.Resume) > 0 {
			// A handed-off resume may already be a store reference (the dead
			// peer shared our store) — pass it through untouched, 16 bytes.
			// An inline blob goes through the store like any fresh
			// checkpoint, shrinking the re-journaled record too.
			data := a.Resume
			if _, isRef := store.DecodeRef(data); !isRef {
				var stored bool
				data, stored = s.checkpointPayload(data)
				s.countCheckpointLocked(stored)
			}
			if err := s.appendLocked(journal.Record{Type: journal.RecCheckpointed, RunID: a.ID, Data: data}); err != nil {
				return false, err
			}
		}
	}
	r := &run{
		class: classBestEffort,
		info: RunInfo{
			ID:          a.ID,
			Spec:        a.Spec,
			Demand:      a.Demand,
			Attempts:    a.Attempts,
			Checkpoints: a.Checkpoints,
			Suspends:    a.Suspends,
			Submitted:   s.epoch,
		},
		done: make(chan struct{}),
	}
	if a.Key != "" {
		// Terminal runs bind too: a retry after completion must resolve to
		// the original run (and its outcome), not execute a duplicate.
		s.keys.Bind(a.Key, a.ID)
	}
	if a.Terminal {
		r.info.State = a.State
		r.info.Reason = a.Reason
		r.info.Outcome = a.Outcome
		if journalIt {
			if data, err := json.Marshal(journalFinish{State: a.State, Reason: a.Reason, Outcome: a.Outcome}); err == nil {
				_ = s.appendLocked(journal.Record{Type: journal.RecFinished, RunID: a.ID, Data: data})
			}
		}
		close(r.done)
	} else {
		r.info.State = StateQueued
		r.resume = a.Resume
		s.committed += a.Demand
		s.adopted++
		s.queued = append(s.queued, a.ID)
		s.qcond.Signal()
	}
	s.runs[a.ID] = r
	s.order = append(s.order, a.ID)
	return !a.Terminal, nil
}

// Submit admits one run, returning its ID. Rejections are typed:
// *QueueFullError (backpressure), *QuotaError (over the per-run quota or
// the committed budget), ErrShuttingDown. Submit never blocks.
func (s *Supervisor) Submit(spec RunSpec) (uint64, error) {
	id, _, err := s.SubmitWithOptions(0, spec, SubmitOptions{})
	return id, err
}

// SubmitOptions carries the retry-safety extras a submission may attach.
type SubmitOptions struct {
	// Key is a client-supplied idempotency key (see admission.ValidateKey).
	// A submission whose key is already bound — by an earlier attempt, a
	// journal replay, or an adopted handoff — returns the bound run's ID
	// with dedup=true instead of admitting a duplicate. Empty disables
	// deduplication.
	Key string
	// Deadline is the client's propagated wait budget. A submission the
	// shedder predicts cannot start within it is rejected with *ShedError.
	// 0 means no deadline: never shed.
	Deadline time.Duration
}

// SubmitWithOptions is Submit plus idempotency and deadline handling, with
// a caller-assigned run ID: the federation front-end assigns
// globally-unique IDs and routes them by consistent hash, and a standalone
// supervisor passes 0 to get the next local ID. A non-zero id that is
// already known is rejected — run IDs are never reused. dedup reports that
// the returned ID is an existing run the key resolved to (no new admission
// happened — the caller should fetch that run's state, which may already
// be terminal). Dedup hits are read-only and succeed even while draining;
// only fresh admissions are rejected then.
func (s *Supervisor) SubmitWithOptions(id uint64, spec RunSpec, opts SubmitOptions) (uint64, bool, error) {
	if opts.Key != "" {
		if err := admission.ValidateKey(opts.Key); err != nil {
			s.countSubmitError()
			return 0, false, err
		}
		// Fast path: a bound key resolves before estimation, quota, and
		// drain checks ever run — a retry must succeed whatever the door's
		// current state is.
		if prev, ok := s.keys.Lookup(opts.Key); ok {
			s.dedupHits.Add(1)
			return prev, true, nil
		}
	}
	demand := spec.MemoryDemand
	if demand == 0 && s.cfg.Estimate != nil {
		d, err := s.cfg.Estimate(spec)
		if err != nil {
			s.countSubmitError()
			return 0, false, fmt.Errorf("supervisor: estimating memory demand: %w", err)
		}
		demand = d
	}
	spec.MemoryDemand = demand

	s.mu.Lock()
	defer s.mu.Unlock()
	if opts.Key != "" {
		// Re-check under the admission lock: a concurrent submit with the
		// same key may have bound it between the fast path and here.
		if prev, ok := s.keys.Lookup(opts.Key); ok {
			s.dedupHits.Add(1)
			return prev, true, nil
		}
	}
	if s.draining || s.killed {
		s.subs.ShuttingDown++
		return 0, false, ErrShuttingDown
	}
	if quota := s.perRunQuota(); quota > 0 && demand > quota {
		// With oversubscription on, the per-run quota is the whole budget,
		// so this fires only for runs that could never fit the device even
		// alone — the one rejection the arbiter cannot argue with.
		s.subs.Quota++
		return 0, false, &QuotaError{Demand: demand, Limit: quota, PerRun: true}
	}
	if s.arb == nil && s.cfg.GPUMemoryBudget > 0 && s.committed+demand > s.cfg.GPUMemoryBudget {
		// The hard aggregate rejection. Under oversubscription the arbiter
		// admits past the budget and keeps everyone alive by soft grants,
		// revocation, and suspend-to-checkpoint instead.
		s.subs.Quota++
		return 0, false, &QuotaError{Demand: demand, Limit: s.cfg.GPUMemoryBudget, Committed: s.committed}
	}
	// Deadline-aware shedding: admitting a run whose client will have
	// abandoned it by the time it starts only burns a worker slot.
	if err := s.shedder.Decide(len(s.queued), opts.Deadline); err != nil {
		return 0, false, err
	}
	// Submissions respect the queue-depth bound (backpressure); only
	// replay and adoption may push past it.
	if len(s.queued) >= s.cfg.QueueDepth {
		s.subs.QueueFull++
		return 0, false, &QueueFullError{Depth: s.cfg.QueueDepth, RetryAfter: s.shedder.RetryAfter(len(s.queued))}
	}
	if id == 0 {
		id = s.nextID
	} else if _, exists := s.runs[id]; exists {
		s.subs.Errors++
		return 0, false, fmt.Errorf("supervisor: run id %d already exists", id)
	}
	data, err := json.Marshal(journalSpec{Spec: spec, Demand: demand})
	if err != nil {
		s.subs.Errors++
		return 0, false, fmt.Errorf("supervisor: encoding spec: %w", err)
	}
	submitted := journal.Record{Type: journal.RecSubmitted, RunID: id, Data: data}
	if opts.Key != "" {
		// Key record BEFORE the spec record, in one write and one fsync: a
		// crash that keeps only the first leaves a dangling key that replay
		// drops, so the client's retry creates exactly one run. The reverse
		// order would leave a keyless run the retry duplicates.
		err = s.appendLocked(journal.Record{Type: journal.RecAdmissionKey, RunID: id, Data: []byte(opts.Key)}, submitted)
	} else {
		err = s.appendLocked(submitted)
	}
	if err != nil {
		s.subs.Errors++
		return 0, false, err
	}
	if opts.Key != "" {
		s.keys.Bind(opts.Key, id)
	}
	if id >= s.nextID {
		s.nextID = id + 1
	}
	class := classBestEffort
	if opts.Deadline > 0 {
		class = classDeadline
	}
	r := &run{
		class: class,
		info:  RunInfo{ID: id, Spec: spec, Demand: demand, State: StateQueued, Submitted: time.Now()},
		done:  make(chan struct{}),
	}
	s.runs[id] = r
	s.order = append(s.order, id)
	s.committed += demand
	s.subs.Accepted++
	s.queued = append(s.queued, id)
	s.qcond.Signal()
	return id, false, nil
}

// countSubmitError counts a submission rejected before the admission lock
// is taken (a malformed key, a failed estimate).
func (s *Supervisor) countSubmitError() {
	s.mu.Lock()
	s.subs.Errors++
	s.mu.Unlock()
}

// LookupKey resolves an idempotency key to the run it is bound to.
func (s *Supervisor) LookupKey(key string) (uint64, bool) { return s.keys.Lookup(key) }

// RetryAfterHint prices a jittered backoff hint from the shedder's drain
// model for rejection paths that carry no typed Retry-After of their own
// (drain, handoff windows).
func (s *Supervisor) RetryAfterHint() time.Duration {
	s.mu.Lock()
	n := len(s.queued)
	s.mu.Unlock()
	return s.shedder.RetryAfter(n)
}

// worker drains the submission queue until Drain or Kill closes it; a
// closing queue is still drained to empty so Drain finishes queued work.
func (s *Supervisor) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var id uint64
		for {
			id = s.popRunnableLocked()
			if id != 0 {
				break
			}
			if s.qclosed && len(s.queued) == 0 {
				s.mu.Unlock()
				return
			}
			s.qcond.Wait()
		}
		s.mu.Unlock()
		s.execute(id)
	}
}

// popRunnableLocked pops the first queue entry that may execute now. Fresh
// runs always may; suspended runs are gated on the arbiter's raw resume
// headroom (bypassed once the queue is closed — drain must finish them —
// and for runs an operator forced via Resume). Returns 0 when nothing is
// runnable; the arbiter tick loop broadcasts qcond so gated entries are
// re-checked as pressure relaxes. Caller holds mu. Run IDs start at 1, so
// 0 is a safe sentinel.
func (s *Supervisor) popRunnableLocked() uint64 {
	for i, id := range s.queued {
		if r := s.runs[id]; r != nil && r.info.State == StateSuspended &&
			!r.force && !s.qclosed && !s.arb.CanResume(r.info.Demand) {
			continue
		}
		s.queued = append(s.queued[:i], s.queued[i+1:]...)
		if len(s.queued) == 0 {
			s.queued = nil // release the drained backing array
		}
		return id
	}
	return 0
}

// execute runs one queued run to a terminal state, surviving runner panics.
func (s *Supervisor) execute(id uint64) {
	s.mu.Lock()
	r := s.runs[id]
	if r == nil || (r.info.State != StateQueued && r.info.State != StateSuspended) || s.killed {
		// Cancelled while queued (already finalized) or hard-stopped.
		s.mu.Unlock()
		return
	}
	resumedFromSuspend := r.info.State == StateSuspended
	r.force = false
	ctx, cancel := context.WithCancel(context.Background())
	if s.arb != nil {
		gaugeID := id
		ctx = context.WithValue(ctx, pressureCtxKey{},
			func() float64 { return s.arb.PressureFor(gaugeID) })
	}
	if r.info.Spec.Health {
		ctx = context.WithValue(ctx, healthCtxKey{}, func(level int) { s.noteHealth(r, level) })
	}
	r.cancel = cancel
	r.info.State = StateRunning
	now := time.Now()
	// One queue departure: feed the shedder's drain model and the per-class
	// queue-wait histogram (adoptions carry the epoch as Submitted, so the
	// clamp guards skewed or replayed timestamps). A resumption of a
	// suspended run is not an admission — it would poison both models.
	if wait := now.Sub(r.info.Submitted); wait >= 0 && !resumedFromSuspend {
		s.shedder.ObserveStart(wait)
		s.queueWait[r.class].Observe(wait.Seconds())
	}
	if resumedFromSuspend {
		s.resumes++
	}
	s.arb.Acquire(now.UnixNano(), id, r.info.Demand, r.info.Spec.Priority)
	r.info.Started = &now
	r.info.Attempts++
	resume := s.resolveResumeLocked(r.resume)
	r.resume = resume // a resolved (or degraded) reference stays resolved
	r.info.Resumed = resume != nil
	r.heartbeat.Store(now.UnixNano())
	jerr := s.appendLocked(journal.Record{Type: journal.RecStarted, RunID: id})
	timeout := r.info.Spec.Timeout
	if timeout <= 0 {
		timeout = s.cfg.WatchdogTimeout
	}
	s.mu.Unlock()
	defer cancel()

	if jerr != nil {
		s.finalize(r, Outcome{}, fmt.Errorf("journal write-ahead failed: %w", jerr), false)
		return
	}
	if timeout > 0 {
		go s.watchdog(r, timeout)
	}

	var out Outcome
	var runErr error
	panicked := false
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				runErr = fmt.Errorf("worker panic: %v", p)
			}
		}()
		out, runErr = s.cfg.Runner.Run(ctx, r.info.Spec, resume, func(ck []byte) { s.progress(r, ck) })
	}()
	s.finalize(r, out, runErr, panicked)
}

// progress is the runner's liveness and checkpoint callback: every call
// feeds the watchdog heartbeat; non-nil checkpoint bytes are journaled
// (write-ahead) and become the state a restarted supervisor resumes from.
func (s *Supervisor) progress(r *run, ck []byte) {
	r.heartbeat.Store(time.Now().UnixNano())
	if ck == nil {
		return
	}
	s.ckMu.RLock()
	defer s.ckMu.RUnlock()
	data, stored := s.checkpointPayload(ck)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed || r.info.State.Terminal() {
		return
	}
	s.countCheckpointLocked(stored)
	if err := s.appendLocked(journal.Record{Type: journal.RecCheckpointed, RunID: r.info.ID, Data: data}); err != nil {
		// A checkpoint that failed to persist is not a run failure; the
		// run merely loses resume granularity. Keep the bytes in memory.
		s.ckptAppendFailures++
	}
	r.resume = ck
	r.info.Checkpoints++
}

// checkpointPayload is what goes into a RecCheckpointed record: a 16-byte
// store reference when the configured store accepted the blob (stored),
// the inline blob otherwise (no store, a full disk, a detected hash
// collision). It touches only the store, which has its own lock; callers
// journal the result and count it with countCheckpointLocked.
func (s *Supervisor) checkpointPayload(ck []byte) (data []byte, stored bool) {
	if s.cfg.Checkpoints == nil {
		return ck, false
	}
	key, err := s.cfg.Checkpoints.Put(ck)
	if err != nil {
		return ck, false
	}
	return store.EncodeRef(key), true
}

// countCheckpointLocked counts one checkpointPayload result when a store
// is configured. Caller holds mu.
func (s *Supervisor) countCheckpointLocked(stored bool) {
	if s.cfg.Checkpoints == nil {
		return
	}
	if stored {
		s.ckptStored++
	} else {
		s.ckptInlined++
	}
}

// resolveResumeLocked turns journaled resume state into the bytes a runner
// can consume: inline payloads pass through, store references are
// dereferenced. A reference that cannot be resolved — no store configured
// here, blob scrub-degraded or compacted away, content verification
// failed — degrades to nil, a cold restart: slower, never resumed from
// corrupt state. Caller holds mu.
func (s *Supervisor) resolveResumeLocked(data []byte) []byte {
	key, ok := store.DecodeRef(data)
	if !ok {
		return data
	}
	if s.cfg.Checkpoints == nil {
		s.coldRestarts++
		return nil
	}
	blob, err := s.cfg.Checkpoints.Get(key)
	if err != nil {
		s.coldRestarts++
		return nil
	}
	return blob
}

// watchdog cancels the run when no heartbeat arrives for timeout. It polls
// at a quarter of the timeout so detection latency stays proportional.
func (s *Supervisor) watchdog(r *run, timeout time.Duration) {
	tick := time.NewTicker(max(timeout/4, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
			last := time.Unix(0, r.heartbeat.Load())
			if silent := time.Since(last); silent > timeout {
				s.watchdogCancel(r, fmt.Sprintf("watchdog: no progress for %v (timeout %v)", silent.Round(time.Millisecond), timeout))
				return
			}
		}
	}
}

// watchdogCancel cancels a running run's context with the watchdog's
// reason and counts the cancel; no-op for runs that are not running.
func (s *Supervisor) watchdogCancel(r *run, reason string) {
	s.mu.Lock()
	if r.info.State != StateRunning {
		s.mu.Unlock()
		return
	}
	if r.cancelReason == "" {
		r.cancelReason = reason
	}
	s.watchdogCancels++
	cancel := r.cancel
	s.mu.Unlock()
	cancel()
}

// finalize moves a run to its terminal state, journals the finish, and
// releases its quota.
func (s *Supervisor) finalize(r *run, out Outcome, runErr error, panicked bool) {
	s.ckMu.RLock()
	defer s.ckMu.RUnlock()
	var ckData []byte
	var ckStored bool
	if len(out.Checkpoint) > 0 {
		ckData, ckStored = s.checkpointPayload(out.Checkpoint)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.info.State.Terminal() {
		return
	}
	s.arb.Release(time.Now().UnixNano(), r.info.ID)
	// Suspend-to-checkpoint: a clean interruption requested by the arbiter
	// (or the Suspend API) is not terminal. The runner's partial outcome
	// carries the warm state; journal it plus a suspension record, return
	// the run to the queue tail, and leave everything an exactly-once
	// restart needs — committed demand, the done channel, the idempotency
	// binding — untouched. A real cancellation (API, watchdog, drain
	// escalation, kill) always wins over a pending suspension, and a
	// runner that completed before noticing the cancel stays completed.
	if r.suspendReason != "" && r.cancelReason == "" && !s.killed &&
		runErr == nil && !panicked && RunState(out.Status) == StateCancelled {
		reason := r.suspendReason
		if s.journalEndLocked(r.info.ID, ckData, ckStored, journal.Record{Type: journal.RecSuspended, RunID: r.info.ID, Data: []byte(reason)}) {
			r.resume = out.Checkpoint
			r.info.Checkpoints++
		}
		r.suspendReason = ""
		r.cancel = nil
		r.info.State = StateSuspended
		r.info.Reason = reason
		r.info.Suspends++
		s.suspends++
		s.queued = append(s.queued, r.info.ID)
		s.qcond.Broadcast()
		return
	}
	r.suspendReason = ""
	var state RunState
	switch {
	case runErr != nil || panicked:
		state = StateFailed
		out.Status = string(StateFailed)
		out.Error = runErr.Error()
	default:
		switch RunState(out.Status) {
		case StateCompleted, StateCancelled, StateDeadlineExceeded, StateDegraded:
			state = RunState(out.Status)
		default:
			state = StateFailed
			out.Error = fmt.Sprintf("runner reported unknown status %q", out.Status)
			out.Status = string(StateFailed)
		}
	}
	r.info.State = state
	r.info.Reason = r.cancelReason
	now := time.Now()
	r.info.Finished = &now
	r.info.Outcome = &out
	// A finished run never resumes: its last checkpoint is journaled, then
	// dropped from memory along with the resume state it superseded. So is
	// its cancel func, which holds the run's context and, through it, the
	// closures the context carries; execute's deferred cancel still
	// releases the context.
	out.Checkpoint = nil
	r.resume = nil
	r.cancel = nil
	var finished []journal.Record
	if data, err := json.Marshal(journalFinish{State: state, Reason: r.info.Reason, Outcome: &out}); err == nil {
		// Best effort: a failed finish append means the next replay re-runs
		// this run — at-least-once, never lost.
		finished = append(finished, journal.Record{Type: journal.RecFinished, RunID: r.info.ID, Data: data})
	}
	if s.journalEndLocked(r.info.ID, ckData, ckStored, finished...) {
		r.info.Checkpoints++
	}
	s.committed -= r.info.Demand
	if panicked {
		s.workerPanics++
	}
	s.noteFinished(state, r.info.Started, now)
	close(r.done)
	s.maybeStoreGC()
}

// finalizeQueuedLocked cancels a run that never started (or is suspended,
// waiting to resume). Caller holds mu.
func (s *Supervisor) finalizeQueuedLocked(r *run, reason string) {
	out := &Outcome{Status: string(StateCancelled)}
	r.info.State = StateCancelled
	r.info.Reason = reason
	now := time.Now()
	r.info.Finished = &now
	r.info.Outcome = out
	if data, err := json.Marshal(journalFinish{State: StateCancelled, Reason: reason, Outcome: out}); err == nil {
		_ = s.appendLocked(journal.Record{Type: journal.RecFinished, RunID: r.info.ID, Data: data})
	}
	s.committed -= r.info.Demand
	s.noteFinished(StateCancelled, r.info.Started, now)
	close(r.done)
}

// Cancel stops a run: a queued run is finalized immediately, a running run
// has its context cancelled (the runner winds down and reports a partial
// outcome). Terminal runs return ErrAlreadyFinished.
func (s *Supervisor) Cancel(id uint64) error {
	s.mu.Lock()
	r, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return &NotFoundError{ID: id}
	}
	switch r.info.State {
	case StateQueued, StateSuspended:
		// A suspended run sits in the queue like a queued one; its stale
		// queue entry is skipped by execute after finalization here.
		s.finalizeQueuedLocked(r, "cancelled by api")
		s.mu.Unlock()
		return nil
	case StateRunning:
		if r.cancelReason == "" {
			r.cancelReason = "cancelled by api"
		}
		cancel := r.cancel
		s.mu.Unlock()
		cancel()
		return nil
	default:
		s.mu.Unlock()
		return ErrAlreadyFinished
	}
}

// Suspend checkpoints a running run out of execution and returns it to the
// queue (the arbiter's last escalation rung, also exposed for operators and
// deterministic tests). The runner is cancelled; when it reports its warm
// partial outcome, finalize journals the checkpoint plus a suspension
// record and the run becomes StateSuspended — resumable, never lost.
// Returns ErrNotRunning for runs not currently executing.
func (s *Supervisor) Suspend(id uint64) error { return s.suspend(id, "suspended by api") }

// suspend requests a suspend-to-checkpoint with the given reason.
func (s *Supervisor) suspend(id uint64, reason string) error {
	s.mu.Lock()
	r, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return &NotFoundError{ID: id}
	}
	if r.info.State != StateRunning || s.draining || s.killed {
		s.mu.Unlock()
		return ErrNotRunning
	}
	if r.suspendReason == "" {
		r.suspendReason = reason
	}
	cancel := r.cancel
	s.mu.Unlock()
	cancel()
	return nil
}

// Resume forces a suspended run back to the front of the queue, bypassing
// the arbiter's headroom gate once (an operator override; organic
// resumption happens automatically as pressure relaxes). Returns
// ErrNotSuspended when the run is not suspended.
func (s *Supervisor) Resume(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return &NotFoundError{ID: id}
	}
	if r.info.State != StateSuspended {
		return ErrNotSuspended
	}
	r.force = true
	for i, q := range s.queued {
		if q == id {
			s.queued = append(s.queued[:i], s.queued[i+1:]...)
			break
		}
	}
	s.queued = append([]uint64{id}, s.queued...)
	s.qcond.Broadcast()
	return nil
}

// Get snapshots one run.
func (s *Supervisor) Get(id uint64) (RunInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return RunInfo{}, &NotFoundError{ID: id}
	}
	return r.info, nil
}

// List snapshots every run in submission order.
func (s *Supervisor) List() []RunInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunInfo, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.runs[id].info)
	}
	return out
}

// Wait blocks until the run is terminal (convenience for tests and the
// serve command's synchronous mode).
func (s *Supervisor) Wait(id uint64) (RunInfo, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return RunInfo{}, &NotFoundError{ID: id}
	}
	<-r.done
	return s.Get(id)
}

// Done returns a channel closed when the run reaches a terminal state on
// THIS supervisor. Beware: on a killed supervisor, still-queued runs never
// reach one here — select on Killed() too (the federation does; the run
// finishes on whichever peer adopts it).
func (s *Supervisor) Done(id uint64) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, &NotFoundError{ID: id}
	}
	return r.done, nil
}

// Killed returns a channel closed when the supervisor is hard-killed.
// In-memory state after the close is untrustworthy — the journal is the
// truth, and a federation waiter must re-resolve the run's owner after a
// handoff rather than believe this supervisor's snapshot.
func (s *Supervisor) Killed() <-chan struct{} { return s.killedCh }

// Stats is a point-in-time aggregate of the supervisor.
type Stats struct {
	Queued, Running, Terminal int
	// Suspended counts runs the arbiter checkpointed out of execution that
	// are waiting (in the queue) to resume.
	Suspended int
	// CommittedBytes is the simulated GPU memory pledged to admitted runs.
	CommittedBytes int64
	// Budget echoes the quota configuration.
	Budget   int64
	QueueCap int
	Workers  int
	Draining bool
	// Recovered counts runs re-admitted from this supervisor's own
	// journal replay at construction.
	Recovered int
	// Adopted counts runs taken over from dead peers' journals via Adopt
	// (federation handoff), terminal history excluded.
	Adopted int
	// CheckpointsStored counts checkpoints journaled as store references;
	// CheckpointsInlined counts store rejections that fell back to inline
	// payloads (both 0 without a configured store).
	CheckpointsStored  int
	CheckpointsInlined int
	// ColdRestarts counts runs whose checkpoint reference no longer
	// resolved at execute time and restarted cold instead — degraded,
	// never resumed from corrupt state.
	ColdRestarts int
	// CheckpointAppendFailures counts mid-run checkpoints the journal
	// failed to append; the run kept the bytes in memory and lost only
	// resume granularity.
	CheckpointAppendFailures int
	// DedupHits counts retried submissions resolved to an existing run by
	// idempotency key; Sheds counts deadline-based admission rejections;
	// AdmissionKeys is the number of bound idempotency keys.
	DedupHits     int64
	Sheds         int64
	AdmissionKeys int
	// Suspends counts suspend-to-checkpoint cycles; Resumes counts
	// suspended runs re-entering execution.
	Suspends int64
	Resumes  int64
	// Arbiter is the oversubscription arbiter's ledger snapshot (zero when
	// Oversubscribe is off).
	Arbiter arbiter.Stats
	// StoreGCs counts background checkpoint-store compactions;
	// StoreGCReclaimed is the total bytes they reclaimed; StoreGCFailures
	// counts compactions that failed (the old file stays the truth).
	StoreGCs         int64
	StoreGCReclaimed int64
	StoreGCFailures  int64
	// Submissions counts admission decisions by result.
	Submissions Submissions
	// QueueDepth is the submission queue's length, which admission bounds
	// and the shedder prices: queued and suspended runs waiting for a
	// worker, plus runs cancelled while queued that no worker popped yet.
	QueueDepth int
	// Ended splits Terminal by state. Finished counts the terminal
	// transitions made on this supervisor, by state; history replayed or
	// adopted from a journal is in Ended only.
	Ended    map[RunState]int
	Finished map[RunState]int64
	// HealthLevel is the worst degradation-ladder level across running
	// runs; HealthTransitions counts in-run ladder moves by target level.
	HealthLevel       int
	HealthTransitions [4]int64
	// WatchdogCancels counts runs the hang watchdog cancelled;
	// WorkerPanics counts runner panics the worker pool recovered.
	WatchdogCancels int64
	WorkerPanics    int64
}

// Submissions counts admission decisions by result. Deadline sheds are
// Stats.Sheds (the shedder keeps them) and key dedups Stats.DedupHits.
type Submissions struct {
	Accepted, QueueFull, Quota, ShuttingDown, Errors int64
}

// Stats snapshots the aggregate state.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked is Stats; caller holds mu.
func (s *Supervisor) statsLocked() Stats {
	st := Stats{
		CommittedBytes:           s.committed,
		Budget:                   s.cfg.GPUMemoryBudget,
		QueueCap:                 s.cfg.QueueDepth,
		Workers:                  s.cfg.Workers,
		Draining:                 s.draining || s.killed,
		Recovered:                s.recovered,
		Adopted:                  s.adopted,
		CheckpointsStored:        s.ckptStored,
		CheckpointsInlined:       s.ckptInlined,
		ColdRestarts:             s.coldRestarts,
		CheckpointAppendFailures: s.ckptAppendFailures,
		DedupHits:                s.dedupHits.Load(),
		Sheds:                    s.shedder.Stats().Sheds,
		AdmissionKeys:            s.keys.Len(),
		Suspends:                 s.suspends,
		Resumes:                  s.resumes,
		Arbiter:                  s.arb.Stats(),
		StoreGCs:                 s.gcRuns.Load(),
		StoreGCReclaimed:         s.gcReclaimed.Load(),
		StoreGCFailures:          s.gcFailures.Load(),
		Submissions:              s.subs,
		QueueDepth:               len(s.queued),
		Ended:                    map[RunState]int{},
		Finished:                 maps.Clone(s.finished),
		HealthTransitions:        s.healthMoves,
		WatchdogCancels:          s.watchdogCancels,
		WorkerPanics:             s.workerPanics,
	}
	for _, r := range s.runs {
		switch r.info.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
			st.HealthLevel = max(st.HealthLevel, int(r.healthLevel.Load()))
		case StateSuspended:
			st.Suspended++
		default:
			st.Terminal++
			st.Ended[r.info.State]++
		}
	}
	return st
}

// perRunQuota is the most one run may demand: see Config.GPUMemoryBudget.
// 0 without a budget.
func (s *Supervisor) perRunQuota() int64 {
	if s.cfg.Oversubscribe {
		return s.cfg.GPUMemoryBudget
	}
	return s.cfg.GPUMemoryBudget / int64(s.cfg.Workers)
}

// Accepting reports whether Submit would be considered at all (the
// /readyz signal): false once draining or killed.
func (s *Supervisor) Accepting() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && !s.killed
}

// Drain shuts down gracefully: admission stops (ErrShuttingDown), queued
// and running runs finish normally. If ctx expires first, the drain
// escalates — queued runs are cancelled outright and running runs have
// their contexts cancelled — and Drain still waits for the workers to wind
// down before closing the journal. Safe to call more than once.
func (s *Supervisor) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.qclosed = true
	s.qcond.Broadcast()
	s.mu.Unlock()
	s.stopArbiter()
	s.waitWG.Do(func() {
		go func() {
			s.wg.Wait()
			close(s.workersDone)
		}()
	})
	var err error
	select {
	case <-s.workersDone:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelAll("drain deadline exceeded")
		<-s.workersDone
	}
	s.mu.Lock()
	if s.jl != nil && !s.jlClosed {
		s.jlClosed = true
		s.jl.Close()
	}
	s.mu.Unlock()
	return err
}

// Kill hard-stops the supervisor, simulating a process kill for the
// crash-recovery tests: in-flight runs are interrupted and NOTHING more is
// journaled — no finish records, exactly as if the process died — so a
// supervisor reopened on the same journal must recover them by replay.
func (s *Supervisor) Kill() {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	s.qclosed = true
	close(s.killedCh)
	s.qcond.Broadcast()
	var cancels []context.CancelFunc
	for _, r := range s.runs {
		if r.info.State == StateRunning && r.cancel != nil {
			if r.cancelReason == "" {
				r.cancelReason = "killed"
			}
			cancels = append(cancels, r.cancel)
		}
	}
	s.mu.Unlock()
	s.stopArbiter()
	for _, c := range cancels {
		c()
	}
	s.wg.Wait()
	s.mu.Lock()
	if s.jl != nil && !s.jlClosed {
		s.jlClosed = true
		s.jl.Close()
	}
	s.mu.Unlock()
}

// cancelAll escalates a timed-out drain.
func (s *Supervisor) cancelAll(reason string) {
	s.mu.Lock()
	var cancels []context.CancelFunc
	for _, r := range s.runs {
		switch r.info.State {
		case StateQueued:
			s.finalizeQueuedLocked(r, reason)
		case StateRunning:
			if r.cancelReason == "" {
				r.cancelReason = reason
			}
			if r.cancel != nil {
				cancels = append(cancels, r.cancel)
			}
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// appendLocked journals recs in one write and one fsync; caller holds mu.
// A killed supervisor journals nothing (the kill-9 contract); a
// journal-less supervisor appends nowhere successfully.
func (s *Supervisor) appendLocked(recs ...journal.Record) error {
	if s.jl == nil || s.killed || s.jlClosed {
		return nil
	}
	return s.jl.AppendBatch(recs...)
}

// journalEndLocked journals run id's last checkpoint, whose payload data
// ck is nil when the run has none, and then end, the record that ends the
// run's execution, in one write and one fsync. It reports whether the
// checkpoint is journaled. When the batch fails, end is still tried alone,
// so a checkpoint that cannot be journaled never keeps the run's end out
// of the journal. Caller holds mu.
func (s *Supervisor) journalEndLocked(id uint64, ck []byte, stored bool, end ...journal.Record) bool {
	if ck == nil {
		_ = s.appendLocked(end...)
		return false
	}
	s.countCheckpointLocked(stored)
	if s.appendLocked(append([]journal.Record{{Type: journal.RecCheckpointed, RunID: id, Data: ck}}, end...)...) == nil {
		return true
	}
	_ = s.appendLocked(end...)
	return false
}
