package journal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"deepum/internal/store"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "runs.journal")
}

func appendAll(t *testing.T, j *Journal, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("append %v: %v", r.Type, err)
		}
	}
}

var sampleRecords = []Record{
	{Type: RecSubmitted, RunID: 1, Data: []byte(`{"model":"bert-base"}`)},
	{Type: RecStarted, RunID: 1},
	{Type: RecCheckpointed, RunID: 1, Data: bytes.Repeat([]byte{0xAB}, 100)},
	{Type: RecSubmitted, RunID: 2, Data: []byte(`{"model":"dlrm"}`)},
	{Type: RecFinished, RunID: 1, Data: []byte(`{"status":"completed"}`)},
}

// TestAppendReplayRoundtrip: records come back intact, in order, with
// clean stats.
func TestAppendReplayRoundtrip(t *testing.T) {
	path := tmpJournal(t)
	j, recs, stats, err := OpenSync(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.TornOffset != -1 {
		t.Fatalf("fresh journal replayed %d records, torn %d", len(recs), stats.TornOffset)
	}
	appendAll(t, j, sampleRecords)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, stats, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornOffset != -1 || stats.CRCFailures != 0 {
		t.Fatalf("clean journal reported torn=%d crc=%d", stats.TornOffset, stats.CRCFailures)
	}
	if len(got) != len(sampleRecords) {
		t.Fatalf("replayed %d records, want %d", len(got), len(sampleRecords))
	}
	for i, r := range got {
		w := sampleRecords[i]
		if r.Type != w.Type || r.RunID != w.RunID || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
	if stats.ByType[RecSubmitted] != 2 || stats.ByType[RecFinished] != 1 {
		t.Fatalf("ByType = %v", stats.ByType)
	}
}

// TestTornTailTruncatedFrame: a partial final frame (kill -9 mid-write)
// replays the intact prefix and reports the torn offset; reopening
// truncates it and appends land cleanly after.
func TestTornTailTruncatedFrame(t *testing.T) {
	path := tmpJournal(t)
	j, _, _, err := OpenSync(path, true)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, sampleRecords)
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: drop its final 3 bytes.
	torn := raw[:len(raw)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sampleRecords)-1 {
		t.Fatalf("replayed %d records from torn journal, want %d", len(recs), len(sampleRecords)-1)
	}
	if !stats.TruncatedFrame || stats.CRCFailures != 0 {
		t.Fatalf("stats = %+v, want truncated frame, no crc failures", stats)
	}
	if stats.TornOffset < 0 {
		t.Fatal("torn offset not reported")
	}

	// Reopen for append: tail truncated, new append durable.
	j, recs, stats, err = OpenSync(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sampleRecords)-1 || stats.TornOffset < 0 {
		t.Fatalf("reopen replayed %d records (torn %d)", len(recs), stats.TornOffset)
	}
	if err := j.Append(Record{Type: RecFinished, RunID: 2, Data: []byte(`{"status":"cancelled"}`)}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	recs, stats, err = ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornOffset != -1 || len(recs) != len(sampleRecords) {
		t.Fatalf("after truncate+append: %d records, torn %d", len(recs), stats.TornOffset)
	}
	if last := recs[len(recs)-1]; last.Type != RecFinished || last.RunID != 2 {
		t.Fatalf("last record = %+v", last)
	}
}

// TestCRCFailureStopsReplay: a bit flip inside a frame fails its checksum;
// replay keeps the prefix and counts one CRC failure.
func TestCRCFailureStopsReplay(t *testing.T) {
	path := tmpJournal(t)
	j, _, _, err := OpenSync(path, true)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, sampleRecords)
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the data of the third frame (the checkpoint payload).
	raw[store.HeaderLen+store.FrameOverhead+len(sampleRecords[0].Data)+store.FrameOverhead+4+1+8+10] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records past corruption, want 2", len(recs))
	}
	if stats.CRCFailures != 1 || stats.TruncatedFrame {
		t.Fatalf("stats = %+v, want exactly one crc failure", stats)
	}
}

// TestOversizedLengthRejected: a frame whose length field claims more than
// MaxRecordBytes of data is classified as corruption, never allocated.
func TestOversizedLengthRejected(t *testing.T) {
	path := tmpJournal(t)
	j, _, _, err := OpenSync(path, true)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, sampleRecords[:1])
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], uint32(1+8+MaxRecordBytes+1)) // type + run ID + data
	raw = append(raw, huge[:]...)
	raw = append(raw, 0xFF, 0xFF)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || stats.CRCFailures != 1 {
		t.Fatalf("recs=%d stats=%+v, want 1 record and the oversized frame counted as corrupt", len(recs), stats)
	}
}

// TestNotAJournal: wrong magic and wrong version both error out rather
// than replaying garbage.
func TestNotAJournal(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayFile(path); err == nil {
		t.Fatal("replayed a non-journal without error")
	}

	if err := os.WriteFile(path, store.AppendHeader(nil, fileMagic, Version+7), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayFile(path); err == nil {
		t.Fatal("replayed an unsupported version without error")
	}
}

// TestAppendValidation: unknown types and oversized data are refused.
func TestAppendValidation(t *testing.T) {
	j, _, _, err := OpenSync(tmpJournal(t), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Record{Type: RecordType(99)}); err == nil {
		t.Fatal("appended unknown record type")
	}
	if err := j.Append(Record{Type: RecStarted, Data: make([]byte, MaxRecordBytes+1)}); err == nil {
		t.Fatal("appended oversized record")
	}
}
