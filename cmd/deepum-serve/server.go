package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"deepum"
	"deepum/internal/metrics"
)

// backend is what the HTTP layer needs from the run-admission plane; both
// the single *deepum.Supervisor (via supervisorBackend) and the sharded
// *deepum.Federation satisfy it, so every route behaves identically in
// both modes.
type backend interface {
	Submit(deepum.RunSpec) (uint64, error)
	// SubmitWithOptions attaches an idempotency key and a propagated client
	// deadline; dedup reports the returned ID is an existing run the key
	// resolved to.
	SubmitWithOptions(deepum.RunSpec, deepum.SubmitOptions) (uint64, bool, error)
	Get(uint64) (deepum.RunInfo, error)
	Cancel(uint64) error
	// Resume force-resumes a suspended run (operator override of the
	// oversubscription arbiter's headroom gate).
	Resume(uint64) error
	List() []deepum.RunInfo
	Accepting() bool
	// RetryAfterHint prices a jittered Retry-After from the admission
	// queue's observed drain rate, for rejections that carry none of their
	// own (drain, handoff windows).
	RetryAfterHint() time.Duration
	// WriteMetrics renders the backend's metric families in the Prometheus
	// text format.
	WriteMetrics(io.Writer) error
}

// supervisorBackend adapts the single supervisor's ID-taking submit
// signature to the backend interface (the federation assigns its own
// globally-unique IDs; a lone supervisor takes 0 = next local ID).
type supervisorBackend struct {
	*deepum.Supervisor
}

func (b supervisorBackend) SubmitWithOptions(spec deepum.RunSpec, opts deepum.SubmitOptions) (uint64, bool, error) {
	return b.Supervisor.SubmitWithOptions(0, spec, opts)
}

// newServer wires a single supervisor behind the JSON HTTP API. Typed
// admission rejections map onto distinct status codes so clients can tell
// "back off and retry" (429/503, both with Retry-After) from "this spec
// can never be admitted" (422). Every handler runs under a per-request
// context deadline (requestTimeout; 0 disables) so one slow request cannot
// hold a connection open indefinitely. GET /metrics renders the backend's
// metric families plus per-route HTTP request counts.
func newServer(sup *deepum.Supervisor, requestTimeout time.Duration) http.Handler {
	s := &server{b: supervisorBackend{sup}, stats: func() any { return sup.Stats() }}
	return buildServer(s, requestTimeout)
}

// newFederationServer wires a shard federation behind the same API, plus
// GET /shards for per-shard status. Requests landing on a dead shard
// mid-handoff answer 503 + Retry-After with the shard ordinal in the JSON
// error body; once the handoff window outlives handoffGrace the 503s
// convert into hard 500s — a stuck failover must page someone, not hide
// behind "retry later" forever. handoffGrace <= 0 never converts.
func newFederationServer(fed *deepum.Federation, requestTimeout, handoffGrace time.Duration) http.Handler {
	s := &server{b: fed, stats: func() any { return fed.Stats() }, fed: fed, grace: handoffGrace}
	return buildServer(s, requestTimeout)
}

func buildServer(s *server, requestTimeout time.Duration) http.Handler {
	routes := map[string]http.HandlerFunc{
		"POST /runs":             s.submit,
		"GET /runs":              s.list,
		"GET /runs/{id}":         s.get,
		"POST /runs/{id}/cancel": s.cancel,
		"POST /runs/{id}/resume": s.resume,
		"GET /readyz":            s.ready,
		"GET /metrics":           s.metrics,
		"GET /healthz": func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		},
	}
	if s.fed != nil {
		routes["GET /shards"] = s.shards
	}
	mux := http.NewServeMux()
	s.requests = map[string]*atomic.Int64{unmatched: new(atomic.Int64)}
	for pattern, h := range routes {
		mux.HandleFunc(pattern, h)
		s.requests[pattern] = new(atomic.Int64)
	}
	// withDeadline wraps outside countRequests: the counter must hand the
	// mux the same *Request it later reads r.Pattern from (WithContext
	// copies the request, so a deadline layer between them would hide the
	// matched route).
	return withDeadline(requestTimeout, s.countRequests(mux))
}

// withDeadline bounds each request with a context deadline. Handlers that
// consult r.Context() (and the bodies they read) observe the cancellation;
// the connection-level Read/Write timeouts on the http.Server backstop
// handlers that do not.
func withDeadline(timeout time.Duration, next http.Handler) http.Handler {
	if timeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// unmatched is the route a request that matched no pattern counts under.
const unmatched = "unmatched"

// countRequests counts every request by its matched route pattern, in the
// table buildServer fixed from the mux's patterns (bounded label
// cardinality: every path that matches none counts as unmatched).
func (s *server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(w, r)
		n, ok := s.requests[r.Pattern]
		if !ok {
			n = s.requests[unmatched]
		}
		n.Add(1)
	})
}

type server struct {
	b     backend
	stats func() any
	fed   *deepum.Federation // nil in single-supervisor mode
	grace time.Duration      // handoff-window 503s older than this become 500s
	// requests counts requests by route pattern; its keys are fixed when
	// the server is built, so handlers only read the map.
	requests map[string]*atomic.Int64
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var opts deepum.SubmitOptions
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		if err := deepum.ValidateIdempotencyKey(key); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		opts.Key = key
	}
	// The client's wait budget rides an explicit header (Go duration
	// syntax), NOT the request context deadline: submit answers 202
	// immediately, so the wait the deadline must survive happens after this
	// response is long gone.
	if dl := r.Header.Get("X-Deadline"); dl != "" {
		d, err := time.ParseDuration(dl)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest,
				errors.New("X-Deadline must be a positive Go duration (e.g. 30s)"))
			return
		}
		opts.Deadline = d
	}
	var spec deepum.RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !deepum.PolicyKnown(spec.Policy) {
		// Never admittable: no amount of retrying makes an unregistered
		// prefetch policy exist. Same contract as the per-run quota reject.
		writeReject(w, http.StatusUnprocessableEntity,
			&deepum.UnknownPolicyError{Name: spec.Policy}, false)
		return
	}
	if spec.Policy != "" && spec.System != "" && spec.System != string(deepum.SystemDeepUM) {
		writeReject(w, http.StatusUnprocessableEntity,
			&deepum.PolicyUnsupportedError{System: deepum.System(spec.System), Policy: spec.Policy}, false)
		return
	}
	id, dedup, err := s.b.SubmitWithOptions(spec, opts)
	if err != nil {
		var he *deepum.ShardHandoffError
		var shed *deepum.ShedError
		var qf *deepum.QueueFullError
		var q *deepum.QuotaError
		// errors.As/Is see through the federation's ShardError wrapper, so
		// the shard-local rejection types keep their status codes; the
		// wrapper's shard ordinal surfaces in the JSON body (writeReject).
		switch {
		case errors.As(err, &he):
			s.rejectHandoff(w, he, err)
		case errors.As(err, &shed):
			// Deadline-aware shed: the queue may have room, but the client's
			// deadline will not survive the predicted wait. The hint is
			// priced from the drain rate and jittered by the shedder itself.
			setRetryAfter(w, shed.RetryAfter)
			writeReject(w, http.StatusServiceUnavailable, err, true)
		case errors.Is(err, deepum.ErrShuttingDown):
			// A draining server may be restarting; tell well-behaved
			// clients when to probe again rather than hammering it.
			setRetryAfter(w, s.b.RetryAfterHint())
			writeReject(w, http.StatusServiceUnavailable, err, true)
		case errors.As(err, &qf):
			setRetryAfter(w, qf.RetryAfter)
			writeReject(w, http.StatusTooManyRequests, err, true)
		case errors.As(err, &q) && q.Retryable():
			setRetryAfter(w, s.b.RetryAfterHint())
			writeReject(w, http.StatusTooManyRequests, err, true)
		case errors.As(err, &q):
			// Per-run quota: the spec can never fit; retrying is useless.
			writeReject(w, http.StatusUnprocessableEntity, err, false)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	if dedup {
		// A replayed submission: the key resolved to the run an earlier
		// attempt created. 200, not 202 — nothing new was admitted — and
		// the run's current state (terminal outcome included) rides along
		// so a post-completion retry gets the original result.
		body := map[string]any{"id": id, "deduplicated": true}
		if info, gerr := s.b.Get(id); gerr == nil {
			body["run"] = info
		}
		writeJSON(w, http.StatusOK, body)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]uint64{"id": id})
}

// setRetryAfter writes a Retry-After header from a computed hint,
// whole-second wire format, floored at 1s (0 falls back to 1s: a rejection
// must never tell the client "retry immediately").
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// rejectHandoff answers a request trapped in a shard's kill-to-handoff
// window: 503 + Retry-After while the window is younger than the grace
// budget, hard 500 once it overstays (a handoff that never lands is an
// outage, not backpressure).
func (s *server) rejectHandoff(w http.ResponseWriter, he *deepum.ShardHandoffError, err error) {
	if s.grace > 0 && !he.Since.IsZero() && time.Since(he.Since) > s.grace {
		writeReject(w, http.StatusInternalServerError, err, false)
		return
	}
	setRetryAfter(w, s.b.RetryAfterHint())
	writeReject(w, http.StatusServiceUnavailable, err, true)
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.List())
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	info, err := s.b.Get(id)
	if err != nil {
		var he *deepum.ShardHandoffError
		if errors.As(err, &he) {
			s.rejectHandoff(w, he, err)
			return
		}
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	err := s.b.Cancel(id)
	var nf *deepum.RunNotFoundError
	var he *deepum.ShardHandoffError
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
	case errors.As(err, &he):
		s.rejectHandoff(w, he, err)
	case errors.As(err, &nf):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, deepum.ErrRunAlreadyFinished):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// resume force-resumes an arbiter-suspended run. 409 tells the client the
// run is not suspended right now (already resumed, still running, or
// terminal) — a state conflict, not a missing resource.
func (s *server) resume(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	err := s.b.Resume(id)
	var nf *deepum.RunNotFoundError
	var he *deepum.ShardHandoffError
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"status": "resuming"})
	case errors.As(err, &he):
		s.rejectHandoff(w, he, err)
	case errors.As(err, &nf):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, deepum.ErrRunNotSuspended):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *server) ready(w http.ResponseWriter, r *http.Request) {
	if !s.b.Accepting() {
		setRetryAfter(w, s.b.RetryAfterHint())
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "stats": s.stats()})
}

// shards reports per-shard status (federation mode only): liveness,
// pending handoffs, per-shard queue/run counts, and the fleet aggregate.
func (s *server) shards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"shards": s.fed.Shards(),
		"stats":  s.fed.Stats(),
	})
}

// metrics serves the Prometheus text exposition format (version 0.0.4):
// the backend's families, then the per-route request counts.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.b.WriteMetrics(w); err != nil {
		return
	}
	fam := metrics.Family{Name: "deepum_http_requests_total", Help: "HTTP requests served, by matched route.", Type: "counter"}
	for _, route := range slices.Sorted(maps.Keys(s.requests)) {
		fam.Series = append(fam.Series, metrics.Series{Labels: []string{"route", route}, Value: float64(s.requests[route].Load())})
	}
	metrics.Write(w, []metrics.Family{fam})
}

func runID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, errors.New("run id must be a positive integer"))
		return 0, false
	}
	return id, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeReject writes an admission rejection. In federation mode the
// rejecting shard's ordinal rides along in the body so a client (or an
// operator tailing logs) can see which shard is pushing back; retryable
// tells clients whether waiting can help.
func writeReject(w http.ResponseWriter, code int, err error, retryable bool) {
	body := map[string]any{"error": err.Error()}
	var he *deepum.ShardHandoffError
	var se *deepum.ShardError
	switch {
	case errors.As(err, &he):
		body["shard"] = he.Shard
	case errors.As(err, &se):
		body["shard"] = se.Shard
	}
	if retryable {
		body["retryable"] = true
	}
	writeJSON(w, code, body)
}
