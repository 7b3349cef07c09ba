package deepum

// Observability. An Observer is the only way application code attaches
// tracing to a run: pass one in Config.Observe and the engine records
// typed events — fault batches, link transfers, the full prefetch
// lifecycle (issue, transfer, hit, waste), evictions, breaker transitions,
// per-iteration and per-kernel spans — into a bounded ring buffer.
// Afterwards, export the buffer as a Chrome trace (WriteChromeTrace, loads
// in Perfetto / chrome://tracing) or reduce it offline (Analyze).
//
// Cost model: a nil Config.Observe is the zero-cost path — every emit site
// in the engine and fault handler is guarded by a single pointer nil
// check, adds no allocations, and is verified by BenchmarkTrainNoObserver
// to leave the fault-handler hot path at 0 allocs/op. With an observer
// attached, recording one event is a mutex-guarded struct copy into a
// ring that starts empty and grows by append up to TraceOptions.Capacity
// events; after that old events are overwritten (Dropped counts the
// overwrites).

import (
	"io"

	"deepum/internal/obs"
)

// TraceOptions parameterize an Observer. The zero value is ready to use.
type TraceOptions struct {
	// Capacity bounds the event ring buffer (in events, not bytes). Once
	// full, the oldest events are overwritten and counted in Dropped.
	// 0 selects the default (1M events). The ring grows by append as
	// events arrive, at 64 bytes an event, so a full default ring holds
	// about 64 MiB (a little more with append's spare capacity).
	Capacity int
}

// Observer collects a run's trace events. Create one with NewObserver,
// attach it via Config.Observe, and export after the run. An Observer is
// safe for concurrent use but records a single run at a time — reusing one
// across sequential runs concatenates their events.
type Observer struct {
	rec *obs.Recorder
}

// NewObserver builds an Observer with an empty event ring.
func NewObserver(opts TraceOptions) *Observer {
	cap := opts.Capacity
	if cap <= 0 {
		cap = obs.DefaultCapacity
	}
	return &Observer{rec: obs.NewRecorder(cap)}
}

// recorder returns the underlying ring, nil-safely: a nil *Observer (the
// Config.Observe default) yields a nil recorder, which every engine emit
// site treats as tracing-off.
func (o *Observer) recorder() *obs.Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// WriteChromeTrace exports the recorded events as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Timestamps
// are virtual (simulated) time.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, o.rec.Events())
}

// TraceAnalysis is the offline reduction of a trace: link utilisation,
// fault-batch histogram, prefetch lead-time distribution, eviction
// classification. Its String method renders a human-readable report.
type TraceAnalysis = obs.Analysis

// Analyze reduces the recorded events to summary statistics.
func (o *Observer) Analyze() *TraceAnalysis {
	return obs.Analyze(o.rec.Events())
}

// EventCount reports how many events are currently buffered.
func (o *Observer) EventCount() int { return o.rec.Len() }

// Dropped reports how many events were overwritten after the ring filled;
// 0 means the trace is complete.
func (o *Observer) Dropped() int64 { return o.rec.Dropped() }
