package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps; later spans are counted,
// not stored, so per-kernel spans of a long run cannot exhaust memory.
const maxSpans = 1 << 19

// span is one host-time interval recorded around a call into a layer.
type span struct {
	name, cat  string
	start, end time.Duration // since the tracer started
	id, parent int64
	tid        int64
}

// tracer keeps the traced run's spans in memory and writes them out as a
// Chrome trace when the run ends. A nil *tracer records nothing, which is
// how untraced runs measure with tracing off.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	nextID  int64
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
// tid groups spans into one row of the trace viewer: a client, a kernel
// stream, or the benchmark's main thread.
func (t *tracer) add(name, cat string, start, end time.Time, parent, tid int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return t.nextID
	}
	t.spans = append(t.spans, span{name: name, cat: cat, start: start.Sub(t.t0), end: end.Sub(t.t0),
		id: t.nextID, parent: parent, tid: tid})
	return t.nextID
}

// writeChrome writes the spans as Chrome trace-event JSON (loads in
// Perfetto or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"droppedSpans\":%d,\"traceEvents\":[\n", dropped); err != nil {
		return err
	}
	for i, s := range spans {
		if i > 0 {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		ev := event{Name: s.name, Cat: s.cat, Ph: "X", PID: 1, TID: s.tid,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.id, "parent": s.parent}}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// printAttribution prints the traced run's per-layer table: each metric
// with its unit and the end-to-end metric it should move, then what the
// measured layers leave unexplained of the engine's host time.
func printAttribution(workload string, m map[string]metric, tracePath string) {
	fmt.Printf("per-layer attribution for %s (Chrome trace: %s)\n", workload, tracePath)
	fmt.Printf("%-30s %16s %-6s %s\n", "layer metric", "value", "unit", "should move")
	for _, l := range layerMetrics {
		v := m[l.name]
		fmt.Printf("%-30s %16.6g %-6s %s\n", l.name, v.Value, v.Unit, l.moves)
	}
	fmt.Printf("engine host time unexplained by the policy, handler and link rows: %.1f%%\n",
		100*m["engine.unattributed_share"].Value)
}
