package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadChromeTrace feeds arbitrary bytes to the trace reader. The
// contract under fuzzing:
//
//  1. No input may panic the reader or make it allocate unboundedly —
//     hostile ts/dur/arg values (NaN via 1e999, infinities, 1e308,
//     non-integral or overflowing args) must come back as *SchemaError,
//     not as implementation-defined float→int conversions.
//  2. Accept-or-reject is total: an error means no events, success means
//     at least one event (metadata-only files are rejected).
//  3. Accepted traces are canonical: re-writing the parsed events with
//     WriteChromeTrace and re-reading them reproduces the exact same
//     event stream. This is what pins the 2^51 ns precision bound — a
//     looser bound lets the µs round-trip drift by 1 ns near the top.
func FuzzReadChromeTrace(f *testing.F) {
	// A writer-produced trace covering every phase ("M", "X", "i", "C")
	// and every track, plus a health-ladder stream like the soak emits.
	var golden bytes.Buffer
	if err := WriteChromeTrace(&golden, goldenEvents()); err != nil {
		f.Fatalf("write golden: %v", err)
	}
	f.Add(golden.Bytes())
	var health bytes.Buffer
	err := WriteChromeTrace(&health, []Event{
		{TS: 10, Kind: KindHealth, Track: TrackRun, Name: "prefetcher", Arg: 412_000},
		{TS: 20, Kind: KindHealth, Track: TrackRun, Name: "L0->L1", Arg: 1, Arg2: 3},
		{TS: 30, Kind: KindHealth, Track: TrackRun, Name: "L1->L0", Arg2: 1},
	})
	if err != nil {
		f.Fatalf("write health: %v", err)
	}
	f.Add(health.Bytes())

	// Structurally broken inputs.
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"traceEvents": []}`))
	f.Add(golden.Bytes()[:golden.Len()/2]) // truncated mid-array
	flipped := append([]byte(nil), golden.Bytes()...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)

	// Hostile but well-formed JSON: values the schema checks must catch
	// before they reach a float→int conversion.
	hostile := []string{
		// ts far past the precision bound.
		`{"traceEvents":[{"name":"m","ph":"i","ts":1e308,"pid":1,"tid":8,"args":{"k":"health"}}]}`,
		// ts just over the bound (2^51 ns = 2251799813685.248 µs).
		`{"traceEvents":[{"name":"m","ph":"i","ts":2251799813686,"pid":1,"tid":8,"args":{"k":"health"}}]}`,
		// Negative and non-finite durations.
		`{"traceEvents":[{"name":"k","ph":"X","ts":1,"dur":-5,"pid":1,"tid":1,"args":{"k":"kernel"}}]}`,
		`{"traceEvents":[{"name":"k","ph":"X","ts":1,"dur":1e999,"pid":1,"tid":1,"args":{"k":"kernel"}}]}`,
		// Args outside the exact-integer range, and fractional args.
		`{"traceEvents":[{"name":"k","ph":"i","ts":1,"pid":1,"tid":1,"args":{"k":"kernel","a":1e300}}]}`,
		`{"traceEvents":[{"name":"k","ph":"i","ts":1,"pid":1,"tid":1,"args":{"k":"kernel","block":0.5}}]}`,
		// Counter kind hiding under a complete event (dur would be lost
		// on re-write) and the converse.
		`{"traceEvents":[{"name":"q","ph":"X","ts":1,"dur":2,"pid":1,"tid":5,"args":{"k":"queue-depth","value":3}}]}`,
		`{"traceEvents":[{"name":"k","ph":"C","ts":1,"pid":1,"tid":1,"args":{"k":"kernel"}}]}`,
		// Valid shape, sub-ns fractional timestamp (rounds, must stay
		// canonical on re-read).
		`{"traceEvents":[{"name":"m","ph":"i","ts":0.0004,"pid":1,"tid":8,"args":{"k":"health"}}]}`,
		// Timestamp right at the precision bound.
		`{"traceEvents":[{"name":"m","ph":"i","ts":2251799813685.248,"pid":1,"tid":8,"args":{"k":"health"}}]}`,
	}
	for _, h := range hostile {
		f.Add([]byte(h))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // cap decode cost; a 1 MiB trace already covers the schema
		}
		events, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			if events != nil {
				t.Fatalf("error %v but returned %d events", err, len(events))
			}
			return
		}
		if len(events) == 0 {
			t.Fatal("accepted a trace with zero events")
		}

		// Accepted traces must be canonical under one more write/read.
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, events); err != nil {
			t.Fatalf("re-write of accepted trace failed: %v", err)
		}
		again, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-written trace failed: %v\ntrace: %s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("round trip diverged:\n first: %+v\nsecond: %+v", events, again)
		}
	})
}
