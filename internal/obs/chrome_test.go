package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenEvents is a hand-built stream exercising every phase the writer
// emits (M metadata, X spans, i instants, C counters) across multiple
// tracks, with a deliberate out-of-order record to prove the writer sorts.
func goldenEvents() []Event {
	return []Event{
		{TS: 0, Dur: 20_000, Kind: KindIteration, Track: TrackRun, Block: 0, Arg: 24},
		{TS: 1_000, Dur: 6_000, Kind: KindKernel, Track: TrackGPU, Name: "conv1"},
		{TS: 1_500, Dur: 2_500, Kind: KindFaultBatch, Track: TrackFaultHandler, Arg: 96, Arg2: 3},
		{TS: 1_800, Dur: 1_200, Kind: KindLinkTransfer, Track: TrackLinkH2D, Name: "h2d", Arg: 2 << 20},
		// Recorded out of timestamp order on purpose.
		{TS: 1_600, Kind: KindPrefetchIssue, Track: TrackDriver, Block: 4},
		{TS: 3_200, Dur: 800, Kind: KindPrefetch, Track: TrackDriver, Block: 4, Arg: 2 << 20},
		{TS: 4_500, Kind: KindPrefetchHit, Track: TrackGPU, Block: 4, Arg: 500},
		{TS: 5_000, Kind: KindEvict, Track: TrackFaultHandler, Block: 9, Arg: 2 << 20, Arg2: EvictCritical},
		{TS: 5_200, Dur: 700, Kind: KindLinkTransfer, Track: TrackLinkD2H, Name: "d2h", Arg: 2 << 20},
		{TS: 6_000, Kind: KindStall, Track: TrackGPU, Block: 5, Arg: 250},
		{TS: 7_000, Kind: KindBreaker, Track: TrackBreaker, Name: "closed->open"},
		{TS: 8_000, Kind: KindQueueDepth, Track: TrackDriver, Name: "faultq", Arg: 5},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenEvents()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output drifted from golden file; run `go test ./internal/obs -run Golden -update` if the change is intended\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceSchema decodes the written JSON generically and checks the
// trace-event contract field by field: phase/ts/pid/tid on every event,
// dur on complete events, and monotonically non-decreasing timestamps.
func TestChromeTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenEvents()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var top struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(top.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	lastTS := -1.0
	for i, ce := range top.TraceEvents {
		ph, _ := ce["ph"].(string)
		switch ph {
		case "M", "X", "i", "C":
		default:
			t.Fatalf("event %d: bad phase %v", i, ce["ph"])
		}
		if _, ok := ce["name"].(string); !ok {
			t.Fatalf("event %d: missing name", i)
		}
		if pid, ok := ce["pid"].(float64); !ok || pid != tracePID {
			t.Fatalf("event %d: pid = %v, want %d", i, ce["pid"], tracePID)
		}
		tid, ok := ce["tid"].(float64)
		if !ok || tid < 0 || tid >= float64(numTracks) {
			t.Fatalf("event %d: tid = %v out of range", i, ce["tid"])
		}
		if ph == "M" {
			continue
		}
		ts, ok := ce["ts"].(float64)
		if !ok || ts < 0 {
			t.Fatalf("event %d: ts = %v", i, ce["ts"])
		}
		if ts < lastTS {
			t.Fatalf("event %d: ts %v goes backwards (previous %v)", i, ts, lastTS)
		}
		lastTS = ts
		if ph == "X" {
			if dur, ok := ce["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("event %d: complete event with dur = %v", i, ce["dur"])
			}
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	in := goldenEvents()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost events: %d -> %d", len(in), len(out))
	}
	// The writer sorts by TS; compare against the sorted view of the input.
	byTS := append([]Event(nil), in...)
	for i := 1; i < len(byTS); i++ {
		for j := i; j > 0 && byTS[j].TS < byTS[j-1].TS; j-- {
			byTS[j], byTS[j-1] = byTS[j-1], byTS[j]
		}
	}
	for i := range out {
		if out[i] != byTS[i] {
			t.Errorf("event %d: got %+v, want %+v", i, out[i], byTS[i])
		}
	}
}

func TestReadChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents": [`,
		"empty":         `{"traceEvents": []}`,
		"missing name":  `{"traceEvents": [{"ph":"i","ts":1,"pid":1,"tid":8,"s":"t","args":{"k":"health"}}]}`,
		"bad pid":       `{"traceEvents": [{"name":"m","ph":"i","ts":1,"pid":7,"tid":8,"args":{"k":"health"}}]}`,
		"bad tid":       `{"traceEvents": [{"name":"m","ph":"i","ts":1,"pid":1,"tid":99,"args":{"k":"health"}}]}`,
		"bad phase":     `{"traceEvents": [{"name":"m","ph":"Z","ts":1,"pid":1,"tid":8,"args":{"k":"health"}}]}`,
		"negative ts":   `{"traceEvents": [{"name":"m","ph":"i","ts":-1,"pid":1,"tid":8,"args":{"k":"health"}}]}`,
		"ts backwards":  `{"traceEvents": [{"name":"m","ph":"i","ts":5,"pid":1,"tid":8,"args":{"k":"health"}},{"name":"m","ph":"i","ts":4,"pid":1,"tid":8,"args":{"k":"health"}}]}`,
		"X without dur": `{"traceEvents": [{"name":"m","ph":"X","ts":1,"pid":1,"tid":0,"args":{"k":"kernel"}}]}`,
		"negative dur":  `{"traceEvents": [{"name":"m","ph":"X","ts":1,"dur":-2,"pid":1,"tid":0,"args":{"k":"kernel"}}]}`,
		"missing kind":  `{"traceEvents": [{"name":"m","ph":"i","ts":1,"pid":1,"tid":0}]}`,
		"unknown kind":  `{"traceEvents": [{"name":"m","ph":"i","ts":1,"pid":1,"tid":0,"args":{"k":"warp-drive"}}]}`,
		"only metadata": `{"traceEvents": [{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"deepum"}}]}`,
	}
	for name, in := range cases {
		if _, err := ReadChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		} else {
			var se *SchemaError
			if !errors.As(err, &se) {
				t.Errorf("%s: error %v is not a *SchemaError", name, err)
			}
		}
	}
}
