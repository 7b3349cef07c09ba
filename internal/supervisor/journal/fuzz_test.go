package journal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"deepum/internal/store"
)

// frame encodes one journal frame exactly as Append lays it out, so the
// fuzz corpus can craft CRC-valid hostile frames the file-level API would
// refuse to write.
func frame(typ RecordType, runID uint64, data []byte) []byte {
	return store.AppendFrame(nil, byte(typ), runID, data)
}

// rawFrame builds a frame from an already-encoded length field and payload,
// with a correct CRC — for lying length fields the checksum cannot catch.
func rawFrame(length uint32, payload []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, length)
	return store.AppendCRC(append(buf, payload...), 0)
}

// journalImage assembles a syntactically valid journal file: header plus
// the given frames.
func journalImage(frames ...[]byte) []byte {
	buf := store.AppendHeader(nil, fileMagic, Version)
	for _, f := range frames {
		buf = append(buf, f...)
	}
	return buf
}

// replay decodes an in-memory journal image, collecting its records.
func replay(data []byte) ([]Record, ReplayStats, error) {
	var recs []Record
	stats, err := ReplayStream(bytes.NewReader(data), func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, stats, err
}

// FuzzReplayJournal feeds ReplayStream adversarial WAL bytes. Whatever the input
// — torn tails, bit flips, lying length fields, confused record types —
// the decoder must never panic, never size an allocation from an
// unvalidated length, and must satisfy two fixed points: re-encoding the
// replayed prefix yields a journal that replays identically and cleanly,
// and truncating the original file at the reported torn offset removes
// exactly the unreadable tail (the same records then parse clean to EOF).
func FuzzReplayJournal(f *testing.F) {
	spec := []byte(`{"spec":{"model":"bert-base","batch":8},"demand":1048576}`)
	fin := []byte(`{"state":"completed","outcome":{"status":"completed"}}`)
	valid := journalImage(
		frame(RecSubmitted, 1, spec),
		frame(RecStarted, 1, nil),
		frame(RecCheckpointed, 1, bytes.Repeat([]byte{0xAB}, 64)),
		frame(RecFinished, 1, fin),
		frame(RecSubmitted, 2, spec),
	)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("DEEPUMWJ"))                 // header torn mid-version
	f.Add(journalImage())                     // header only, no frames
	f.Add([]byte("NOTAJRNL\x01\x00\x00\x00")) // wrong magic
	f.Add(valid[:len(valid)-3])               // torn tail: truncated CRC
	f.Add(valid[:store.HeaderLen+2])          // torn tail: truncated length field
	flipped := bytes.Clone(valid)             // bit flip mid-payload
	flipped[store.HeaderLen+10] ^= 0x20
	f.Add(flipped)
	// CRC-valid hostile frames: the checksum passes, so every defense must
	// live in the frame decoder itself.
	f.Add(journalImage(rawFrame(0xFFFFFFFF, []byte{byte(RecSubmitted)})))           // length ~4 GiB
	f.Add(journalImage(rawFrame(1+8+MaxRecordBytes+1, []byte{byte(RecSubmitted)}))) // just over the cap
	f.Add(journalImage(rawFrame(3, []byte{byte(RecSubmitted), 0, 0})))              // length below type+runID
	f.Add(journalImage(frame(RecordType(99), 1, nil)))                              // unknown type, valid CRC
	f.Add(journalImage(frame(RecStarted, 1, spec)))                                 // type confusion: started with payload
	f.Add(journalImage(frame(RecFinished, 1, nil), frame(RecordType(0), 2, nil)))   // good frame then zero type
	f.Add(journalImage(frame(RecAdmissionKey, 3, []byte("retry-key-3")), frame(RecSubmitted, 3, spec)))
	f.Add(journalImage(frame(RecAdmissionKey, 3, nil))) // type confusion: key record with no key
	// Suspended-run lifecycle: submit, start, checkpoint, suspend, restart,
	// finish — the arbiter's suspend-to-checkpoint shape.
	f.Add(journalImage(
		frame(RecSubmitted, 4, spec),
		frame(RecStarted, 4, nil),
		frame(RecCheckpointed, 4, bytes.Repeat([]byte{0xCD}, 48)),
		frame(RecSuspended, 4, []byte("memory pressure")),
		frame(RecStarted, 4, nil),
		frame(RecFinished, 4, fin),
	))
	f.Add(journalImage(frame(RecSuspended, 4, nil)))                                // reasonless suspension is legal
	f.Add(journalImage(frame(RecSuspended, 4, spec), frame(RecSubmitted, 5, spec))) // suspend then unrelated submit
	f.Add(journalImage(frame(RecordType(7), 4, []byte("beyond-suspended"))))        // first type past the known range

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			data = data[:1<<20]
		}
		recs, stats, err := replay(data)
		if err != nil {
			// Errors are reserved for "not a journal at all"; they must
			// never come with replayed records.
			if len(recs) != 0 {
				t.Fatalf("replay returned %d records alongside error %v", len(recs), err)
			}
			return
		}
		if stats.Records != len(recs) {
			t.Fatalf("stats.Records = %d, replayed %d", stats.Records, len(recs))
		}
		for i, r := range recs {
			if !r.Type.Known() {
				t.Fatalf("record %d has unknown type %d", i, r.Type)
			}
			if len(r.Data) > MaxRecordBytes {
				t.Fatalf("record %d data %d bytes exceeds MaxRecordBytes", i, len(r.Data))
			}
			if r.Type == RecStarted && len(r.Data) > 0 {
				t.Fatalf("record %d: started record with %d payload bytes survived replay", i, len(r.Data))
			}
			if r.Type == RecAdmissionKey && len(r.Data) == 0 {
				t.Fatalf("record %d: admission-key record with no key survived replay", i)
			}
		}

		// Fixed point 1: the replayed prefix re-encodes to a journal that
		// replays identically and parses clean to EOF.
		frames := make([][]byte, len(recs))
		for i, r := range recs {
			frames[i] = frame(r.Type, r.RunID, r.Data)
		}
		again, astats, err := replay(journalImage(frames...))
		if err != nil {
			t.Fatalf("re-encoded journal does not replay: %v", err)
		}
		if astats.TornOffset != -1 {
			t.Fatalf("re-encoded journal reports torn offset %d", astats.TornOffset)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-encoded journal replays %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			a, b := recs[i], again[i]
			if a.Type != b.Type || a.RunID != b.RunID || !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("record %d drifted across re-encode: %+v vs %+v", i, a, b)
			}
		}

		// Fixed point 2: truncating at the torn offset removes exactly the
		// unreadable tail — what OpenStream does to heal the file.
		if stats.TornOffset >= 0 {
			if stats.TornOffset < store.HeaderLen || stats.TornOffset > int64(len(data)) {
				t.Fatalf("torn offset %d outside [header, len] of %d-byte file", stats.TornOffset, len(data))
			}
			healed, hstats, err := replay(data[:stats.TornOffset])
			if err != nil {
				t.Fatalf("healed journal does not replay: %v", err)
			}
			if hstats.TornOffset != -1 || len(healed) != len(recs) {
				t.Fatalf("healed journal: torn %d, %d records, want clean with %d",
					hstats.TornOffset, len(healed), len(recs))
			}
		}
	})
}
