package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deepum"
)

// testServer builds the HTTP API over a supervisor with a fake runner so
// handler behavior is tested without simulating training.
func testServer(t *testing.T, cfg deepum.SupervisorConfig, runner deepum.Runner) (*httptest.Server, *deepum.Supervisor) {
	t.Helper()
	cfg.Runner = runner
	cfg.Estimate = func(deepum.RunSpec) (int64, error) { return 1 << 20, nil }
	sup, err := deepum.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(sup, 10*time.Second))
	t.Cleanup(ts.Close)
	return ts, sup
}

func instant() deepum.Runner {
	return deepum.RunnerFunc(func(ctx context.Context, spec deepum.RunSpec, resume []byte, progress func([]byte)) (deepum.RunOutcome, error) {
		return deepum.RunOutcome{Status: string(deepum.RunCompleted), Iterations: spec.Iterations}, nil
	})
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestServeSubmitStatusCancelList(t *testing.T) {
	block := make(chan struct{})
	runner := deepum.RunnerFunc(func(ctx context.Context, spec deepum.RunSpec, resume []byte, progress func([]byte)) (deepum.RunOutcome, error) {
		if spec.Seed == 99 { // the run the test cancels
			select {
			case <-block:
			case <-ctx.Done():
				return deepum.RunOutcome{Status: string(deepum.RunCancelled)}, nil
			}
		}
		return deepum.RunOutcome{Status: string(deepum.RunCompleted), Iterations: spec.Iterations}, nil
	})
	ts, sup := testServer(t, deepum.SupervisorConfig{Workers: 2}, runner)
	defer close(block)

	// Submit -> 202 with an ID.
	resp := postJSON(t, ts.URL+"/runs", `{"model":"bert-base","batch":8,"iterations":3,"seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	id := decode[map[string]uint64](t, resp)["id"]
	if id == 0 {
		t.Fatal("submit returned no run ID")
	}
	if _, err := sup.Wait(id); err != nil {
		t.Fatal(err)
	}

	// GET /runs/{id} -> completed snapshot.
	get, err := http.Get(fmt.Sprintf("%s/runs/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d", get.StatusCode)
	}
	info := decode[deepum.RunInfo](t, get)
	if info.ID != id || info.State != deepum.RunCompleted {
		t.Fatalf("get snapshot = id %d state %s", info.ID, info.State)
	}
	if info.Outcome == nil || info.Outcome.Iterations != 3 {
		t.Fatalf("snapshot outcome = %+v", info.Outcome)
	}

	// Cancel a hung run -> 200, then it goes terminal as cancelled.
	resp = postJSON(t, ts.URL+"/runs", `{"model":"bert-base","batch":8,"seed":99}`)
	blocked := decode[map[string]uint64](t, resp)["id"]
	waitRunning(t, sup, blocked)
	cresp := postJSON(t, fmt.Sprintf("%s/runs/%d/cancel", ts.URL, blocked), "")
	if cresp_code := cresp.StatusCode; cresp_code != http.StatusOK {
		t.Fatalf("cancel: status %d", cresp_code)
	}
	cinfo, err := sup.Wait(blocked)
	if err != nil {
		t.Fatal(err)
	}
	if cinfo.State != deepum.RunCancelled {
		t.Fatalf("cancelled run state = %s", cinfo.State)
	}

	// Cancel again -> 409; unknown ID -> 404; junk ID -> 400.
	if code := postJSON(t, fmt.Sprintf("%s/runs/%d/cancel", ts.URL, blocked), "").StatusCode; code != http.StatusConflict {
		t.Fatalf("re-cancel: status %d, want 409", code)
	}
	if code := postJSON(t, ts.URL+"/runs/12345/cancel", "").StatusCode; code != http.StatusNotFound {
		t.Fatalf("cancel unknown: status %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/runs/banana/cancel", "").StatusCode; code != http.StatusBadRequest {
		t.Fatalf("cancel junk id: status %d, want 400", code)
	}

	// GET /runs lists both.
	lresp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if runs := decode[[]deepum.RunInfo](t, lresp); len(runs) != 2 {
		t.Fatalf("list returned %d runs, want 2", len(runs))
	}
}

func TestServeAdmissionStatusCodes(t *testing.T) {
	gate := make(chan struct{})
	runner := deepum.RunnerFunc(func(ctx context.Context, spec deepum.RunSpec, resume []byte, progress func([]byte)) (deepum.RunOutcome, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return deepum.RunOutcome{Status: string(deepum.RunCompleted)}, nil
	})
	ts, sup := testServer(t, deepum.SupervisorConfig{
		Workers:         1,
		QueueDepth:      1,
		GPUMemoryBudget: 4 << 20,
	}, runner)
	defer close(gate)

	// Spec over the per-run quota -> 422, never admissible.
	resp := postJSON(t, ts.URL+"/runs", `{"model":"bert-base","batch":8,"memory_demand":16777216}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("per-run quota violation: status %d, want 422", resp.StatusCode)
	}

	// Fill the worker + queue, then the next submit -> 429 with Retry-After.
	okCodes := 0
	var throttled *http.Response
	for i := 0; i < 8; i++ {
		r := postJSON(t, ts.URL+"/runs", fmt.Sprintf(`{"model":"bert-base","batch":8,"seed":%d}`, i))
		if r.StatusCode == http.StatusAccepted {
			okCodes++
			continue
		}
		throttled = r
		break
	}
	if throttled == nil {
		t.Fatalf("no backpressure after %d accepted submissions", okCodes)
	}
	if throttled.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressure: status %d, want 429", throttled.StatusCode)
	}
	if throttled.Header.Get("Retry-After") == "" {
		t.Fatal("429 rejection carries no Retry-After header")
	}

	// Malformed body -> 400.
	if code := postJSON(t, ts.URL+"/runs", `{"model": nope`).StatusCode; code != http.StatusBadRequest {
		t.Fatalf("malformed submit: status %d, want 400", code)
	}

	// Drain: readyz flips to 503 and submits are refused with 503.
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sup.Drain(ctx)
	}()
	waitNotAccepting(t, sup)
	if r, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else if r.Body.Close(); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", r.StatusCode)
	} else if r.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz 503 carries no Retry-After header")
	}
	drained := postJSON(t, ts.URL+"/runs", `{"model":"bert-base","batch":8}`)
	if drained.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", drained.StatusCode)
	}
	if drained.Header.Get("Retry-After") == "" {
		t.Fatal("draining submit 503 carries no Retry-After header")
	}
}

// TestWithDeadline: the middleware installs a context deadline on every
// request it wraps, and a zero timeout disables it without wrapping.
func TestWithDeadline(t *testing.T) {
	var deadlineSet bool
	probe := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, deadlineSet = r.Context().Deadline()
	})
	withDeadline(50*time.Millisecond, probe).
		ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	if !deadlineSet {
		t.Fatal("handler context carries no deadline under withDeadline")
	}
	withDeadline(0, probe).
		ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	if deadlineSet {
		t.Fatal("zero timeout must not install a deadline")
	}
}

func TestServeHealthz(t *testing.T) {
	ts, _ := testServer(t, deepum.SupervisorConfig{Workers: 1}, instant())
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", r.StatusCode)
	}
}

func TestServeMetricsScrape(t *testing.T) {
	ts, sup := testServer(t, deepum.SupervisorConfig{Workers: 1}, instant())

	// Submit one run to completion so the counters have moved.
	resp := postJSON(t, ts.URL+"/runs", `{"model":"bert-base","batch":8,"iterations":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if _, err := sup.Wait(decode[map[string]uint64](t, resp)["id"]); err != nil {
		t.Fatal(err)
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, r.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE deepum_supervisor_submissions_total counter",
		`deepum_supervisor_submissions_total{result="accepted"} 1`,
		`deepum_supervisor_runs_finished_total{state="completed"} 1`,
		// Pre-registered at startup: terminal states nothing reached yet
		// still scrape at zero.
		`deepum_supervisor_runs_finished_total{state="failed"} 0`,
		`deepum_supervisor_runs_finished_total{state="cancelled"} 0`,
		"# TYPE deepum_supervisor_runs gauge",
		"deepum_supervisor_run_seconds_count 1",
		`deepum_http_requests_total{route="POST /runs"} 1`,
		// Admission retry-safety family: pre-registered, so a scrape before
		// any shed or dedup event still shows the series at zero.
		"# TYPE deepum_admission_shed_total counter",
		"deepum_admission_shed_total 0",
		"# TYPE deepum_admission_dedup_hits_total counter",
		"deepum_admission_dedup_hits_total 0",
		// The completed run was a best-effort (no deadline) submission, so
		// its queue wait landed in that class; the deadline class scrapes
		// at zero.
		`deepum_admission_queue_wait_seconds_count{class="best_effort"} 1`,
		`deepum_admission_queue_wait_seconds_count{class="deadline"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full body:\n%s", body)
	}
}

// TestServeIdempotencyKey: a retried POST /runs carrying the same
// Idempotency-Key resolves to the original run — 200 (not 202), the same
// ID, and the run's current state (outcome included once terminal) in the
// body. Malformed keys and deadlines are clean 400s.
func TestServeIdempotencyKey(t *testing.T) {
	ts, sup := testServer(t, deepum.SupervisorConfig{Workers: 1}, instant())

	req := func(key, deadline, body string) *http.Response {
		t.Helper()
		r, err := http.NewRequest("POST", ts.URL+"/runs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set("Content-Type", "application/json")
		if key != "" {
			r.Header.Set("Idempotency-Key", key)
		}
		if deadline != "" {
			r.Header.Set("X-Deadline", deadline)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	spec := `{"model":"bert-base","batch":8,"iterations":2,"seed":7}`
	first := req("retry-test-1", "", spec)
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first keyed submit: status %d, want 202", first.StatusCode)
	}
	id := decode[map[string]uint64](t, first)["id"]
	if _, err := sup.Wait(id); err != nil {
		t.Fatal(err)
	}

	// Retry after completion: same key, same ID, original outcome attached.
	retry := req("retry-test-1", "", spec)
	if retry.StatusCode != http.StatusOK {
		t.Fatalf("replayed submit: status %d, want 200", retry.StatusCode)
	}
	body := decode[map[string]json.RawMessage](t, retry)
	var gotID uint64
	if err := json.Unmarshal(body["id"], &gotID); err != nil || gotID != id {
		t.Fatalf("replayed submit id = %s (err %v), want %d", body["id"], err, id)
	}
	if string(body["deduplicated"]) != "true" {
		t.Fatalf("replayed submit body = %v, want deduplicated true", body)
	}
	var info deepum.RunInfo
	if err := json.Unmarshal(body["run"], &info); err != nil {
		t.Fatal(err)
	}
	if info.State != deepum.RunCompleted || info.Outcome == nil {
		t.Fatalf("replayed run = state %s outcome %v, want completed with outcome", info.State, info.Outcome)
	}

	// A different key admits a fresh run.
	second := req("retry-test-2", "", spec)
	if second.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh keyed submit: status %d, want 202", second.StatusCode)
	}
	if id2 := decode[map[string]uint64](t, second)["id"]; id2 == id {
		t.Fatal("distinct keys resolved to the same run")
	}

	// Oversized key -> 400; malformed deadline -> 400; negative -> 400.
	if code := req(strings.Repeat("k", deepum.MaxIdempotencyKeyLen+1), "", spec).StatusCode; code != http.StatusBadRequest {
		t.Fatalf("oversized key: status %d, want 400", code)
	}
	if code := req("", "soon", spec).StatusCode; code != http.StatusBadRequest {
		t.Fatalf("malformed deadline: status %d, want 400", code)
	}
	if code := req("", "-3s", spec).StatusCode; code != http.StatusBadRequest {
		t.Fatalf("negative deadline: status %d, want 400", code)
	}
	// A generous deadline against an idle supervisor admits normally.
	if code := req("", "30s", spec).StatusCode; code != http.StatusAccepted {
		t.Fatalf("deadline submit: status %d, want 202", code)
	}
}

// fakeBackend scripts backend responses so handler mappings can be tested
// without arranging real supervisor state.
type fakeBackend struct {
	submitErr error
	hint      time.Duration
	reg       *deepum.MetricsRegistry
}

func (f *fakeBackend) Submit(deepum.RunSpec) (uint64, error) { return 1, f.submitErr }
func (f *fakeBackend) SubmitWithOptions(deepum.RunSpec, deepum.SubmitOptions) (uint64, bool, error) {
	return 1, false, f.submitErr
}
func (f *fakeBackend) Get(uint64) (deepum.RunInfo, error) { return deepum.RunInfo{ID: 1}, nil }
func (f *fakeBackend) Cancel(uint64) error                { return nil }
func (f *fakeBackend) Resume(uint64) error                { return nil }
func (f *fakeBackend) List() []deepum.RunInfo             { return nil }
func (f *fakeBackend) Accepting() bool                    { return true }
func (f *fakeBackend) RetryAfterHint() time.Duration      { return f.hint }
func (f *fakeBackend) Metrics() *deepum.MetricsRegistry   { return f.reg }

func newFakeServer(t *testing.T, fb *fakeBackend) *httptest.Server {
	t.Helper()
	fb.reg = deepum.NewMetricsRegistry()
	srv := &server{b: fb, stats: func() any { return nil }}
	ts := httptest.NewServer(buildServer(srv, 10*time.Second))
	t.Cleanup(ts.Close)
	return ts
}

// TestServeShedResponse: a *ShedError maps to 503 with the shedder's own
// jittered Retry-After on the wire, distinct from queue-full's 429.
func TestServeShedResponse(t *testing.T) {
	ts := newFakeServer(t, &fakeBackend{submitErr: &deepum.ShedError{
		Deadline:      200 * time.Millisecond,
		PredictedWait: 2 * time.Second,
		RetryAfter:    7 * time.Second,
	}})
	resp := postJSON(t, ts.URL+"/runs", `{"model":"bert-base","batch":8}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("shed Retry-After = %q, want \"7\" (the error's own hint)", ra)
	}
	body := decode[map[string]any](t, resp)
	if body["retryable"] != true {
		t.Fatalf("shed body = %v, want retryable true", body)
	}
}

// TestServeComputedRetryAfter: rejection paths with no typed hint of their
// own (queue-full without an observation, drain) price Retry-After from the
// backend's drain model instead of a hardcoded constant.
func TestServeComputedRetryAfter(t *testing.T) {
	ts := newFakeServer(t, &fakeBackend{
		submitErr: &deepum.QueueFullError{Depth: 4, RetryAfter: 3 * time.Second},
		hint:      9 * time.Second,
	})
	resp := postJSON(t, ts.URL+"/runs", `{"model":"bert-base","batch":8}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue full: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("queue-full Retry-After = %q, want \"3\"", ra)
	}

	drain := newFakeServer(t, &fakeBackend{submitErr: deepum.ErrShuttingDown, hint: 9 * time.Second})
	resp = postJSON(t, drain.URL+"/runs", `{"model":"bert-base","batch":8}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "9" {
		t.Fatalf("drain Retry-After = %q, want the backend hint \"9\"", ra)
	}

	// A zero hint still floors at 1 second — never "retry immediately".
	floor := newFakeServer(t, &fakeBackend{submitErr: deepum.ErrShuttingDown})
	resp = postJSON(t, floor.URL+"/runs", `{"model":"bert-base","batch":8}`)
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("floored Retry-After = %q, want \"1\"", ra)
	}
}

func waitRunning(t *testing.T, sup *deepum.Supervisor, id uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		info, err := sup.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == deepum.RunRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("run %d never started", id)
}

func waitNotAccepting(t *testing.T, sup *deepum.Supervisor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !sup.Accepting() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("supervisor still accepting after drain started")
}
