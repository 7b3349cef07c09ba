package federation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"deepum/internal/arbiter"
	"deepum/internal/supervisor"
)

// matchRunner is the stub behind TestMetricsMatchStats. A health-enabled
// spec reports two ladder moves; "panic" panics; "hang" never heartbeats,
// so its watchdog cancels it; "hold" keeps its grant until gate closes and,
// once suspended, resumes and completes. Every other model completes.
func matchRunner(gate <-chan struct{}) supervisor.Runner {
	return supervisor.RunnerFunc(func(ctx context.Context, spec supervisor.RunSpec, resume []byte, progress func([]byte)) (supervisor.Outcome, error) {
		if report := supervisor.HealthReporterFromContext(ctx); report != nil {
			report(1)
			report(2)
		}
		switch spec.Model {
		case "panic":
			panic("runner panic")
		case "hang":
			<-ctx.Done()
			return supervisor.Outcome{Status: string(supervisor.StateCancelled)}, nil
		case "hold":
			if len(resume) == 0 {
				select {
				case <-gate:
				case <-ctx.Done():
					return supervisor.Outcome{Status: string(supervisor.StateCancelled), Checkpoint: []byte("held")}, nil
				}
			}
		}
		return supervisor.Outcome{Status: string(supervisor.StateCompleted)}, nil
	})
}

// exposition is a parsed text exposition: family name, from its TYPE
// line, to sample (metric name and labels, as printed) to value.
type exposition map[string]map[string]float64

func parseExposition(t *testing.T, text string) exposition {
	t.Helper()
	out := exposition{}
	family, typ := "", ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			family, typ = f[2], f[3]
			if _, dup := out[family]; dup {
				t.Errorf("family %s has two TYPE lines", family)
			}
			out[family] = map[string]float64{}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("bad sample line %q", line)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		if base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count"); name != family && (typ != "histogram" || base != family) {
			t.Fatalf("sample %q outside its family %s", line, family)
		}
		out[family][line[:i]] = v
	}
	return out
}

// series formats a sample key the way the exposition prints it.
func series(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		fmt.Fprintf(&b, `,%s="%s"`, labels[i], labels[i+1])
	}
	return name + "{" + b.String()[1:] + "}"
}

// histCounts are the observation counts a supervisor's two histograms
// must hold.
type histCounts struct{ runSeconds, bestEffort, deadline int }

// wantSupervisor adds the families a supervisor renders from st, every
// series labelled with prefix, to want.
func wantSupervisor(want exposition, st supervisor.Stats, oversubscribed bool, h histCounts, prefix ...string) {
	add := func(family, key string, v float64) {
		if want[family] == nil {
			want[family] = map[string]float64{}
		}
		want[family][key] = v
	}
	one := func(family string, v float64) { add(family, series(family, prefix...), v) }
	by := func(family, label, value string, v float64) {
		add(family, series(family, append(append([]string{}, prefix...), label, value)...), v)
	}
	hist := func(family string, n int, labels ...string) {
		l := append(append([]string{}, prefix...), labels...)
		add(family, series(family+"_count", l...), float64(n))
		add(family, series(family+"_bucket", append(l, "le", "+Inf")...), float64(n))
	}
	sub := st.Submissions
	for result, n := range map[string]int64{"accepted": sub.Accepted, "queue_full": sub.QueueFull,
		"quota": sub.Quota, "shutting_down": sub.ShuttingDown, "shed": st.Sheds, "error": sub.Errors} {
		by("deepum_supervisor_submissions_total", "result", result, float64(n))
	}
	one("deepum_admission_shed_total", float64(st.Sheds))
	one("deepum_admission_dedup_hits_total", float64(st.DedupHits))
	hist("deepum_admission_queue_wait_seconds", h.bestEffort, "class", "best_effort")
	hist("deepum_admission_queue_wait_seconds", h.deadline, "class", "deadline")
	by("deepum_supervisor_runs", "state", "queued", float64(st.Queued))
	by("deepum_supervisor_runs", "state", "running", float64(st.Running))
	by("deepum_supervisor_runs", "state", "suspended", float64(st.Suspended))
	for _, state := range []supervisor.RunState{supervisor.StateCompleted, supervisor.StateCancelled,
		supervisor.StateDeadlineExceeded, supervisor.StateDegraded, supervisor.StateFailed} {
		by("deepum_supervisor_runs", "state", string(state), float64(st.Ended[state]))
		by("deepum_supervisor_runs_finished_total", "state", string(state), float64(st.Finished[state]))
	}
	one("deepum_supervisor_committed_bytes", float64(st.CommittedBytes))
	one("deepum_supervisor_queue_depth", float64(st.QueueDepth))
	one("deepum_health_level", float64(st.HealthLevel))
	for level, n := range st.HealthTransitions {
		by("deepum_health_transitions_total", "level", fmt.Sprintf("L%d", level), float64(n))
	}
	one("deepum_supervisor_watchdog_cancels_total", float64(st.WatchdogCancels))
	one("deepum_supervisor_worker_panics_total", float64(st.WorkerPanics))
	hist("deepum_supervisor_run_seconds", h.runSeconds)
	if !oversubscribed {
		return
	}
	a := st.Arbiter
	one("deepum_arbiter_pressure", a.Pressure)
	one("deepum_arbiter_granted_bytes", float64(a.Granted))
	for action, n := range map[string]int64{"grant": a.Grants, "release": a.Releases,
		"revoke": a.Revocations, "restore": a.Restores, "suspend": a.Suspensions} {
		by("deepum_arbiter_events_total", "action", action, float64(n))
	}
}

// checkExposition compares got with want family by family. A family or
// series that want has no source for fails, as does one want expects and
// got lacks. Histogram buckets other than +Inf, and sums, are free.
func checkExposition(t *testing.T, got, want exposition) {
	t.Helper()
	for family, samples := range got {
		w, ok := want[family]
		if !ok {
			t.Errorf("family %s has no source", family)
			continue
		}
		for key, v := range samples {
			wv, ok := w[key]
			switch {
			case !ok && (strings.Contains(key, "_bucket{") || strings.Contains(key, "_sum")):
			case !ok:
				t.Errorf("series %s has no source", key)
			case v != wv:
				t.Errorf("%s = %v, its source holds %v", key, v, wv)
			}
		}
	}
	for family, samples := range want {
		for key := range samples {
			if _, ok := got[family][key]; !ok {
				t.Errorf("series %s is missing", key)
			}
		}
	}
}

// scrape renders write twice and checks the two scrapes are identical.
func scrape(t *testing.T, write func(*bytes.Buffer) error) string {
	t.Helper()
	var a, b bytes.Buffer
	if err := write(&a); err != nil {
		t.Fatal(err)
	}
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two scrapes with nothing changed differ:\n%s\n---\n%s", a.String(), b.String())
	}
	return a.String()
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMetricsMatchStats drives every serving event a supervisor counts,
// then checks that each family /metrics renders holds the Stats field it
// is read from, for a lone oversubscribed supervisor and for a federation
// with one shard killed and handed off.
func TestMetricsMatchStats(t *testing.T) {
	t.Run("supervisor", testSupervisorMetricsMatchStats)
	t.Run("federation", testFederationMetricsMatchStats)
}

func testSupervisorMetricsMatchStats(t *testing.T) {
	gate := make(chan struct{})
	s, err := supervisor.New(supervisor.Config{
		Runner:          matchRunner(gate),
		Workers:         2,
		QueueDepth:      1,
		GPUMemoryBudget: 1000,
		Oversubscribe:   true,
		Arbiter: arbiter.Options{
			HalfLife: time.Millisecond.Nanoseconds(),
			Sustain:  (2 * time.Millisecond).Nanoseconds(),
		},
		ArbiterTick: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(spec supervisor.RunSpec, opts supervisor.SubmitOptions) (uint64, bool, error) {
		return s.SubmitWithOptions(0, spec, opts)
	}
	run := func(model string, demand int64) supervisor.RunSpec {
		return supervisor.RunSpec{Model: model, Batch: 1, MemoryDemand: demand}
	}
	finish := func(id uint64, want supervisor.RunState) {
		t.Helper()
		if info, err := s.Wait(id); err != nil || info.State != want {
			t.Fatalf("run %d ended %s (%s), %v; want %s", id, info.State, info.Reason, err, want)
		}
	}
	running := func(id uint64) bool {
		info, err := s.Get(id)
		return err == nil && info.State == supervisor.StateRunning
	}

	// Accepted and completed, then a key dedup and a malformed key.
	id, _, err := submit(run("ok", 0), supervisor.SubmitOptions{Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	finish(id, supervisor.StateCompleted)
	if again, dedup, err := submit(run("ok", 0), supervisor.SubmitOptions{Key: "k"}); err != nil || !dedup || again != id {
		t.Fatalf("retry = %d, %v, %v; want run %d deduplicated", again, dedup, err, id)
	}
	if _, _, err := submit(run("ok", 0), supervisor.SubmitOptions{Key: "bad key"}); err == nil {
		t.Fatal("a malformed key was admitted")
	}
	// Two ladder moves, a deadline-class admission, a runner panic and a
	// watchdog cancel.
	health := run("ok", 0)
	health.Health = true
	for _, c := range []struct {
		spec supervisor.RunSpec
		opts supervisor.SubmitOptions
		want supervisor.RunState
	}{
		{health, supervisor.SubmitOptions{}, supervisor.StateCompleted},
		{run("ok", 0), supervisor.SubmitOptions{Deadline: time.Hour}, supervisor.StateCompleted},
		{run("panic", 0), supervisor.SubmitOptions{}, supervisor.StateFailed},
		{supervisor.RunSpec{Model: "hang", Batch: 1, Timeout: 20 * time.Millisecond}, supervisor.SubmitOptions{}, supervisor.StateCancelled},
	} {
		id, _, err := submit(c.spec, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		finish(id, c.want)
	}
	// Two holds demand 1.2x the budget: the arbiter revokes a burst. One is
	// suspended, resumes and completes.
	hold := func() uint64 {
		t.Helper()
		id, _, err := submit(run("hold", 600), supervisor.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "a hold running", func() bool { return running(id) })
		return id
	}
	a, b := hold(), hold()
	waitUntil(t, "a revocation", func() bool { return s.Stats().Arbiter.Revocations > 0 })
	if err := s.Suspend(b); err != nil {
		t.Fatal(err)
	}
	finish(b, supervisor.StateCompleted)
	// With both workers held, one run queues, the next is turned away, and
	// the queued one is cancelled.
	c := hold()
	d, _, err := submit(run("ok", 0), supervisor.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var qf *supervisor.QueueFullError
	if _, _, err := submit(run("ok", 0), supervisor.SubmitOptions{}); !errors.As(err, &qf) {
		t.Fatalf("submit to a full queue = %v", err)
	}
	if err := s.Cancel(d); err != nil {
		t.Fatal(err)
	}
	var qe *supervisor.QuotaError
	if _, _, err := submit(run("ok", 2000), supervisor.SubmitOptions{}); !errors.As(err, &qe) {
		t.Fatalf("submit over the budget = %v", err)
	}
	var shed *supervisor.ShedError
	if _, _, err := submit(run("ok", 0), supervisor.SubmitOptions{Deadline: time.Nanosecond}); !errors.As(err, &shed) {
		t.Fatalf("submit with a 1ns deadline = %v", err)
	}
	close(gate)
	finish(a, supervisor.StateCompleted)
	finish(c, supervisor.StateCompleted)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := submit(run("ok", 0), supervisor.SubmitOptions{}); !errors.Is(err, supervisor.ErrShuttingDown) {
		t.Fatalf("submit after drain = %v", err)
	}

	st := s.Stats()
	sub := st.Submissions
	if sub.QueueFull != 1 || sub.Quota != 1 || sub.ShuttingDown != 1 || sub.Errors != 1 || st.Sheds != 1 ||
		st.DedupHits != 1 || st.WatchdogCancels != 1 || st.WorkerPanics != 1 || st.Suspends != 1 ||
		st.Resumes != 1 || st.Arbiter.Revocations == 0 || st.HealthTransitions != [4]int64{0, 1, 1, 0} {
		t.Fatalf("the scenario did not drive every event once: %+v", st)
	}
	want := exposition{}
	// Nine runs finished; the cancelled queued one never started, so
	// eight were timed. Seven best-effort starts and one deadline-class
	// start left the queue; a resumption is not a departure.
	wantSupervisor(want, st, true, histCounts{runSeconds: 8, bestEffort: 7, deadline: 1})
	checkExposition(t, parseExposition(t, scrape(t, func(b *bytes.Buffer) error { return s.WriteMetrics(b) })), want)
}

func testFederationMetricsMatchStats(t *testing.T) {
	gate := make(chan struct{})
	close(gate)
	f, err := New(Config{
		Shards: 2,
		Supervisor: supervisor.Config{
			Runner:        matchRunner(gate),
			Workers:       2,
			QueueDepth:    16,
			JournalNoSync: true,
		},
		JournalDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	keyed := func(key, model string) (uint64, bool, error) {
		return f.SubmitWithOptions(supervisor.RunSpec{Model: model, Batch: 1, Timeout: 20 * time.Millisecond},
			supervisor.SubmitOptions{Key: key})
	}
	ids := map[string]uint64{}
	for i, model := range []string{"ok", "ok", "ok", "ok", "panic", "hang"} {
		key := fmt.Sprintf("k%d", i)
		id, _, err := keyed(key, model)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(id); err != nil {
			t.Fatal(err)
		}
		ids[key] = id
		if again, dedup, err := keyed(key, model); err != nil || !dedup || again != id {
			t.Fatalf("retry of %s = %d, %v, %v; want run %d deduplicated", key, again, dedup, err, id)
		}
	}
	if err := f.Kill(0); err != nil {
		t.Fatal(err)
	}
	// A key bound on the dead shard still resolves; a fresh run routed
	// there is rejected until the handoff.
	for key, id := range ids {
		if again, dedup, err := keyed(key, "ok"); err != nil || !dedup || again != id {
			t.Fatalf("retry of %s after the kill = %d, %v, %v", key, again, dedup, err)
		}
	}
	var he *HandoffError
	for i := 0; !errors.As(err, &he); i++ {
		if i == 64 {
			t.Fatal("64 fresh submits never landed on the dead shard")
		}
		_, err = f.Submit(supervisor.RunSpec{Model: "ok", Batch: 1})
	}
	if _, err := f.Handoff(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id, err := f.Submit(supervisor.RunSpec{Model: "ok", Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	fst := f.Stats()
	if fst.Handoffs != 1 || fst.Live != 1 || fst.HandoffRejections == 0 || fst.DedupHits < 12 {
		t.Fatalf("the scenario did not drive every event: %+v", fst)
	}
	text := scrape(t, func(b *bytes.Buffer) error { return f.WriteMetrics(b) })
	got := parseExposition(t, text)
	want := exposition{
		"deepum_federation_handoffs_total":           {"deepum_federation_handoffs_total": float64(fst.Handoffs)},
		"deepum_federation_ring_rebalances_total":    {"deepum_federation_ring_rebalances_total": float64(fst.Rebalances)},
		"deepum_federation_handoff_rejections_total": {"deepum_federation_handoff_rejections_total": float64(fst.HandoffRejections)},
		"deepum_federation_shards_live":              {"deepum_federation_shards_live": float64(fst.Live)},
	}
	live := f.Supervisor(1).Stats()
	// The front door's own dedup hits are the federation total less the
	// live shard's.
	want["deepum_admission_dedup_hits_total"] = map[string]float64{"deepum_admission_dedup_hits_total": float64(fst.DedupHits - live.DedupHits)}
	for ord, up := range []float64{0, 1} {
		st := f.Supervisor(ord).Stats()
		shard := []string{"shard", strconv.Itoa(ord)}
		for family, v := range map[string]float64{
			"deepum_shard_up":                 up,
			"deepum_shard_adopted_runs_total": float64(st.Adopted),
			"deepum_shard_submissions_total":  float64(st.Submissions.Accepted),
			"deepum_shard_queued_runs":        float64(st.Queued),
			"deepum_shard_running_runs":       float64(st.Running),
		} {
			if want[family] == nil {
				want[family] = map[string]float64{}
			}
			want[family][series(family, shard...)] = v
		}
	}
	// Only the live shard renders its supervisor families. Every run it
	// admitted or adopted unfinished started once and was timed once.
	var finished int64
	for _, n := range live.Finished {
		finished += n
	}
	wantSupervisor(want, live, false, histCounts{runSeconds: int(finished),
		bestEffort: int(live.Submissions.Accepted) + live.Adopted}, "shard", "1")
	checkExposition(t, got, want)

	// A scraper that sums a family by name reads the federation's totals.
	sum := func(family string) (n float64) {
		for _, v := range got[family] {
			n += v
		}
		return n
	}
	if d, s := sum("deepum_admission_dedup_hits_total"), sum("deepum_admission_shed_total"); d != float64(fst.DedupHits) || s != float64(fst.Sheds) {
		t.Fatalf("summed dedup hits %v and sheds %v, Stats %d and %d", d, s, fst.DedupHits, fst.Sheds)
	}
}
