package supervisor

import (
	"fmt"
	"io"
	"time"

	"deepum/internal/arbiter"
	"deepum/internal/metrics"
	"deepum/internal/obs"
)

// Prometheus exposition. Every family is rendered at scrape time from one
// Stats snapshot, or from the two histograms copied under the same lock,
// so each count is kept once.

// runSecondsBuckets cover simulated runs from sub-millisecond unit-test
// stubs to multi-minute soak runs.
var runSecondsBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300}

// queueWaitBuckets cover admission-to-pickup waits from instant dequeue to
// a backlog deep enough that any propagated deadline has long expired.
var queueWaitBuckets = []float64{0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60}

// terminalStates lists the terminal states in the order their series
// render.
var terminalStates = []RunState{StateCompleted, StateCancelled, StateDeadlineExceeded, StateDegraded, StateFailed}

// WriteMetrics renders the supervisor's metric families in the Prometheus
// text format (deepum-serve serves them on GET /metrics).
func (s *Supervisor) WriteMetrics(w io.Writer) error {
	_, fams := s.MetricFamilies()
	return metrics.Write(w, fams)
}

// MetricFamilies takes one snapshot and returns it with the metric
// families rendered from it. Every series of every family is present from
// the first scrape, at zero until its event happens.
func (s *Supervisor) MetricFamilies() (Stats, []metrics.Family) {
	s.mu.Lock()
	st := s.statsLocked()
	runSeconds := s.runSeconds.Clone()
	waits := []metrics.Series{
		{Labels: []string{"class", classBestEffort}, Hist: s.queueWait[classBestEffort].Clone()},
		{Labels: []string{"class", classDeadline}, Hist: s.queueWait[classDeadline].Clone()},
	}
	s.mu.Unlock()

	sub := st.Submissions
	runs := []metrics.Series{
		labeled("state", string(StateQueued), st.Queued),
		labeled("state", string(StateRunning), st.Running),
		labeled("state", string(StateSuspended), st.Suspended),
	}
	var finished []metrics.Series
	for _, state := range terminalStates {
		runs = append(runs, labeled("state", string(state), st.Ended[state]))
		finished = append(finished, labeled("state", string(state), st.Finished[state]))
	}
	var moves []metrics.Series
	for level, n := range st.HealthTransitions {
		moves = append(moves, labeled("level", fmt.Sprintf("L%d", level), n))
	}
	fams := []metrics.Family{
		{Name: "deepum_supervisor_submissions_total", Help: "Run submissions by admission result.", Type: "counter",
			Series: []metrics.Series{
				labeled("result", "accepted", sub.Accepted),
				labeled("result", "queue_full", sub.QueueFull),
				labeled("result", "quota", sub.Quota),
				labeled("result", "shutting_down", sub.ShuttingDown),
				labeled("result", "shed", st.Sheds),
				labeled("result", "error", sub.Errors),
			}},
		{Name: "deepum_admission_shed_total", Type: "counter", Series: value(st.Sheds),
			Help: "Submissions rejected because the propagated deadline cannot be met at current drain rate."},
		{Name: "deepum_admission_dedup_hits_total", Type: "counter", Series: value(st.DedupHits),
			Help: "Retried submissions resolved to an existing run by idempotency key."},
		{Name: "deepum_admission_queue_wait_seconds", Type: "histogram", Series: waits,
			Help: "Queue wait from admission to worker pickup, by deadline class."},
		{Name: "deepum_supervisor_runs", Help: "Runs by current state.", Type: "gauge", Series: runs},
		{Name: "deepum_supervisor_runs_finished_total", Type: "counter", Series: finished,
			Help: "Runs reaching a terminal state on this supervisor, by state."},
		{Name: "deepum_supervisor_committed_bytes", Type: "gauge", Series: value(st.CommittedBytes),
			Help: "Simulated GPU memory pledged to admitted runs."},
		{Name: "deepum_supervisor_queue_depth", Type: "gauge", Series: value(st.QueueDepth),
			Help: "Entries in the submission queue: runs waiting for a worker."},
		{Name: "deepum_health_level", Type: "gauge", Series: value(st.HealthLevel),
			Help: "Worst degradation-ladder level across running runs (0=L0 full prefetch, 3=L3 pure demand)."},
		{Name: "deepum_health_transitions_total", Type: "counter", Series: moves,
			Help: "Degradation-ladder transitions by target level."},
		{Name: "deepum_supervisor_watchdog_cancels_total", Type: "counter", Series: value(st.WatchdogCancels),
			Help: "Runs cancelled by the hang-detection watchdog."},
		{Name: "deepum_supervisor_worker_panics_total", Type: "counter", Series: value(st.WorkerPanics),
			Help: "Runner panics recovered by the worker pool."},
		{Name: "deepum_supervisor_run_seconds", Type: "histogram", Series: []metrics.Series{{Hist: runSeconds}},
			Help: "Wall-clock duration of finished runs."},
	}
	if s.arb != nil {
		a := st.Arbiter
		fams = append(fams,
			metrics.Family{Name: "deepum_arbiter_pressure", Type: "gauge", Series: value(a.Pressure),
				Help: "Smoothed memory-pressure signal (0..1; granted/budget EWMA)."},
			metrics.Family{Name: "deepum_arbiter_granted_bytes", Type: "gauge", Series: value(a.Granted),
				Help: "Simulated GPU memory currently granted (floors plus live bursts)."},
			metrics.Family{Name: "deepum_arbiter_events_total", Help: "Arbiter grant-lifecycle events by action.", Type: "counter",
				Series: []metrics.Series{
					labeled("action", arbiter.EventGrant.String(), a.Grants),
					labeled("action", arbiter.EventRelease.String(), a.Releases),
					labeled("action", arbiter.EventRevoke.String(), a.Revocations),
					labeled("action", arbiter.EventRestore.String(), a.Restores),
					labeled("action", arbiter.EventSuspend.String(), a.Suspensions),
				}})
	}
	return st, fams
}

// value is an unlabelled family's one series.
func value[N int | int64 | float64](v N) []metrics.Series {
	return []metrics.Series{{Value: float64(v)}}
}

// labeled is one series with one label.
func labeled[N int | int64](name, val string, v N) metrics.Series {
	return metrics.Series{Labels: []string{name, val}, Value: float64(v)}
}

// noteFinished counts a terminal transition and the run's duration.
// Caller holds mu.
func (s *Supervisor) noteFinished(state RunState, started *time.Time, finished time.Time) {
	s.finished[state]++
	if started != nil {
		s.runSeconds.Observe(finished.Sub(*started).Seconds())
	}
}

// noteHealth mirrors one in-run ladder transition into the run snapshot and
// the per-level transition counts. It doubles as a liveness heartbeat: a
// run whose ladder is moving is making decisions, not hung.
func (s *Supervisor) noteHealth(r *run, level int) {
	level = min(max(level, 0), 3)
	r.heartbeat.Store(time.Now().UnixNano())
	r.healthLevel.Store(int64(level))
	s.mu.Lock()
	s.healthMoves[level]++
	if !r.info.State.Terminal() {
		r.info.HealthLevel = level
	}
	s.mu.Unlock()
}

// noteArbiter mirrors one arbiter grant-lifecycle event into the obs trace
// (the arbiter counts it in its own Stats). It is called from the
// arbiter's event hook, which may fire while a supervisor method holds
// s.mu — it must therefore never take s.mu itself.
func (s *Supervisor) noteArbiter(ev arbiter.Event) {
	if s.cfg.Obs == nil {
		return
	}
	s.cfg.Obs.Instant(obs.KindPressure, obs.TrackArbiter, time.Now().UnixNano(),
		ev.Kind.String(), int64(ev.RunID), ev.Bytes, int64(ev.Pressure*1e6))
}
