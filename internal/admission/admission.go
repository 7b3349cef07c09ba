// Package admission makes the run-admission front door safe under overload
// and retry storms. It contributes two mechanisms the supervisor (and,
// through it, the federation and the HTTP serving layer) compose:
//
//   - Idempotency keys (KeyTable): a client-supplied key per submission,
//     journaled write-ahead alongside the run's spec, so a retried submit —
//     after a client timeout, a torn response, or a mid-handoff shard kill —
//     resolves to the run the first attempt created instead of executing a
//     duplicate. The key table is the in-memory index; the journal is the
//     durable truth it is rebuilt from on replay.
//
//   - Deadline-aware load shedding (Shedder): the shedder watches the
//     admission queue drain — an EWMA over inter-departure intervals and
//     observed queue waits — and predicts how long a new arrival would sit
//     queued. A submission that propagates a client deadline the backlog
//     cannot meet is rejected at the door with a typed *ShedError (distinct
//     from queue-full: the queue may have room, the deadline just will not
//     survive the wait). The same drain model prices Retry-After hints:
//     instead of a hardcoded constant that synchronizes every rejected
//     client into the next retry wave, the hint is the predicted time for
//     the backlog to clear one slot, spread by deterministic-per-shedder
//     jitter.
//
// Both mechanisms are allocation-light and take one mutex each; they are
// meant to sit inside the supervisor's admission path, which already
// serializes on the supervisor lock.
package admission

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// MaxKeyLen bounds one idempotency key. Keys are journaled verbatim; an
// unbounded key would let one hostile client grow WAL frames without limit.
const MaxKeyLen = 256

// ValidateKey reports whether key is usable as an idempotency key: 1 to
// MaxKeyLen bytes of printable ASCII (no control characters — keys appear
// in journals, logs, and HTTP headers).
func ValidateKey(key string) error {
	if key == "" {
		return fmt.Errorf("admission: empty idempotency key")
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("admission: idempotency key %d bytes long, max %d", len(key), MaxKeyLen)
	}
	for i := 0; i < len(key); i++ {
		if key[i] < 0x21 || key[i] > 0x7e {
			return fmt.Errorf("admission: idempotency key contains byte 0x%02x at %d (printable ASCII only)", key[i], i)
		}
	}
	return nil
}

// KeyTable maps idempotency keys to the run ID their first submission
// created. It is an in-memory index rebuilt from the journal on replay;
// binding order is first-writer-wins, which mirrors the federation's
// first-seen duplicate resolution after a mid-handoff crash.
type KeyTable struct {
	mu sync.Mutex
	m  map[string]uint64
}

// NewKeyTable returns an empty table.
func NewKeyTable() *KeyTable {
	return &KeyTable{m: map[string]uint64{}}
}

// Lookup resolves a key to the run ID it is bound to.
func (t *KeyTable) Lookup(key string) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.m[key]
	return id, ok
}

// Bind records key -> id. If the key is already bound, the existing binding
// wins and Bind reports it (a replayed handoff or a duplicate journal entry
// must never re-point a key at a different run).
func (t *KeyTable) Bind(key string, id uint64) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.m[key]; ok {
		return prev, prev == id
	}
	t.m[key] = id
	return id, true
}

// Len reports how many keys are bound.
func (t *KeyTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// ShedError rejects a submission whose propagated client deadline cannot be
// met by the current drain rate. It is distinct from queue-full: the queue
// may have room; admitting the run would only burn a worker slot on work
// the client will have abandoned by the time it starts.
type ShedError struct {
	// Deadline is the client's propagated budget.
	Deadline time.Duration
	// PredictedWait is the queue wait the shedder forecast for this arrival.
	PredictedWait time.Duration
	// RetryAfter is the jittered backoff hint priced from the drain rate.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: shed: predicted queue wait %v exceeds client deadline %v; retry in %v or submit without a deadline",
		e.PredictedWait.Round(time.Millisecond), e.Deadline.Round(time.Millisecond), e.RetryAfter.Round(time.Second))
}

// Retryable reports that backing off (or relaxing the deadline) can clear
// the rejection.
func (e *ShedError) Retryable() bool { return true }

// ShedOptions tune a Shedder.
type ShedOptions struct {
	// Seed makes the jitter stream deterministic (0 uses 1).
	Seed int64
}

// The shedder's fixed tuning.
const (
	// shedHeadroom multiplies the predicted wait before comparing it to the
	// deadline, so marginal requests are shed rather than admitted into a
	// coin flip.
	shedHeadroom = 1.2
	// shedHalfLife is the EWMA half-life in observations (not wall time):
	// after this many samples an old observation's weight has halved.
	shedHalfLife = 16
	// minRetryAfter and maxRetryAfter clamp the computed hint.
	minRetryAfter = time.Second
	maxRetryAfter = 60 * time.Second
	// jitterFrac spreads Retry-After by ±jitterFrac of its value so
	// rejected clients do not re-arrive as one synchronized wave.
	jitterFrac = 0.25
)

// Shedder models the admission queue's drain from two observation streams —
// inter-departure intervals (a run leaving the queue for a worker) and the
// queue wait each departing run actually suffered — and answers two
// questions: "can this deadline survive the current backlog?" and "when
// should a rejected client come back?". All methods are safe for concurrent
// use.
type Shedder struct {
	mu sync.Mutex
	// interDepart is the EWMA of seconds between queue departures: the
	// reciprocal of drain rate, already aggregated across all workers.
	interDepart ewma
	// queueWait is the EWMA of observed queue waits (seconds), a reality
	// check on the Little's-law prediction when service times are bursty.
	queueWait  ewma
	lastDepart time.Time
	rng        *rand.Rand
	sheds      int64
}

// NewShedder builds a shedder.
func NewShedder(opts ShedOptions) *Shedder {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Shedder{
		interDepart: newEWMA(shedHalfLife),
		queueWait:   newEWMA(shedHalfLife),
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// ObserveStart records one queue departure: a worker picked a run up after
// it waited `wait` in the queue. Call it from the dequeue path.
func (s *Shedder) ObserveStart(wait time.Duration) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.lastDepart.IsZero() {
		s.interDepart.observe(now.Sub(s.lastDepart).Seconds())
	}
	s.lastDepart = now
	s.queueWait.observe(wait.Seconds())
}

// PredictWait forecasts the queue wait a new arrival would suffer with
// queueLen runs already ahead of it: Little's law over the observed drain
// rate, floored by the queue-wait EWMA scaled to the backlog (bursty
// service times make the pure drain model optimistic). A cold shedder (no
// departures observed yet) predicts zero — admit until there is evidence.
func (s *Shedder) PredictWait(queueLen int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.predictLocked(queueLen)
}

func (s *Shedder) predictLocked(queueLen int) time.Duration {
	inter := s.interDepart.value()
	if inter <= 0 {
		return 0
	}
	model := float64(queueLen+1) * inter
	if qw := s.queueWait.value(); qw > model {
		model = qw
	}
	return time.Duration(model * float64(time.Second))
}

// Decide is the admission gate: with queueLen runs queued ahead and a
// propagated client deadline (0 = none, never shed), it either admits (nil)
// or returns a *ShedError carrying the prediction and a priced, jittered
// Retry-After.
func (s *Shedder) Decide(queueLen int, deadline time.Duration) error {
	if deadline <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	predicted := s.predictLocked(queueLen)
	if float64(predicted)*shedHeadroom <= float64(deadline) {
		return nil
	}
	s.sheds++
	return &ShedError{
		Deadline:      deadline,
		PredictedWait: predicted,
		RetryAfter:    s.retryAfterLocked(queueLen),
	}
}

// RetryAfter prices a backoff hint from the drain rate: roughly the time
// for the backlog to clear one slot, clamped to [minRetryAfter,
// maxRetryAfter] and spread by ±jitterFrac so a storm of rejected clients
// de-synchronizes instead of re-arriving as one wave.
func (s *Shedder) RetryAfter(queueLen int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryAfterLocked(queueLen)
}

func (s *Shedder) retryAfterLocked(queueLen int) time.Duration {
	inter := s.interDepart.value()
	base := time.Duration(inter * float64(time.Second))
	if queueLen > 0 && inter > 0 {
		// A deeper backlog earns a longer hint: half the predicted drain of
		// the backlog ahead, so retries interleave with departures instead of
		// all waiting out the whole queue.
		base = time.Duration(inter * float64(queueLen) / 2 * float64(time.Second))
	}
	base = min(max(base, minRetryAfter), maxRetryAfter)
	// Uniform jitter in [1-jitterFrac, 1+jitterFrac].
	scale := 1 - jitterFrac + 2*jitterFrac*s.rng.Float64()
	d := time.Duration(float64(base) * scale)
	if d < time.Second {
		d = time.Second // Retry-After is whole seconds on the wire
	}
	return d
}

// Stats is a point-in-time snapshot of the shedder's model.
type Stats struct {
	// InterDeparture is the EWMA seconds between queue departures (0 until
	// the second departure).
	InterDeparture float64
	// QueueWait is the EWMA observed queue wait in seconds.
	QueueWait float64
	// Sheds counts deadline-based rejections issued.
	Sheds int64
}

// Stats snapshots the model.
func (s *Shedder) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		InterDeparture: s.interDepart.value(),
		QueueWait:      s.queueWait.value(),
		Sheds:          s.sheds,
	}
}

// ewma is a fixed-alpha exponentially weighted moving average where alpha
// is derived from a half-life expressed in observations.
type ewma struct {
	alpha float64
	v     float64
	seen  bool
}

func newEWMA(halfLifeObs int) ewma {
	// After n observations an old sample's weight is (1-alpha)^n = 1/2.
	// alpha = 1 - 2^(-1/n).
	n := float64(halfLifeObs)
	return ewma{alpha: 1 - math.Exp2(-1/n)}
}

func (e *ewma) observe(x float64) {
	if !e.seen {
		e.v, e.seen = x, true
		return
	}
	e.v += e.alpha * (x - e.v)
}

func (e *ewma) value() float64 {
	if !e.seen {
		return 0
	}
	return e.v
}
