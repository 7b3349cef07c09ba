package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"deepum/internal/store"
)

// fixtureBlob is the checkpoint blob whose store reference the fixture's
// checkpointed record carries (internal/store's format test puts the same
// blob into its own fixture).
func fixtureBlob(i int) []byte { return bytes.Repeat([]byte{byte(i), 0x5A, byte(0xF0 ^ i)}, 10+3*i) }

// fixtureRecords are the appends behind testdata/v1.journal: one keyed run
// through all six record types, suspended once on the way.
var fixtureRecords = []Record{
	{Type: RecAdmissionKey, RunID: 7, Data: []byte("retry-key-7")},
	{Type: RecSubmitted, RunID: 7, Data: []byte(`{"spec":{"model":"bert-base","batch":8},"demand":1048576}`)},
	{Type: RecStarted, RunID: 7},
	{Type: RecCheckpointed, RunID: 7, Data: store.EncodeRef(store.HashBytes(fixtureBlob(0)))},
	{Type: RecSuspended, RunID: 7, Data: []byte("memory pressure")},
	{Type: RecStarted, RunID: 7},
	{Type: RecFinished, RunID: 7, Data: []byte(`{"state":"completed","outcome":{"status":"completed"}}`)},
}

// TestFixtureJournal pins the on-disk format. testdata/v1.journal was
// written by the journal's own codec before it moved onto the shared frame
// codec and is committed verbatim: it must replay clean, and appending the
// same records to a fresh journal must reproduce it byte for byte.
func TestFixtureJournal(t *testing.T) {
	path := filepath.Join("testdata", "v1.journal")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, stats, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornOffset != -1 || stats.CRCFailures != 0 || len(recs) != len(fixtureRecords) {
		t.Fatalf("fixture replayed %d records, stats %+v", len(recs), stats)
	}
	for i, r := range recs {
		w := fixtureRecords[i]
		if r.Type != w.Type || r.RunID != w.RunID || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
	for typ := RecSubmitted; typ.Known(); typ++ {
		if stats.ByType[typ] == 0 {
			t.Fatalf("fixture holds no %s record", typ)
		}
	}

	fs := store.NewMemFS()
	j, _, err := OpenStream(fs, "runs.journal", true, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, fixtureRecords)
	j.Close()
	if got, _ := fs.ReadFile("runs.journal"); !bytes.Equal(got, want) {
		t.Fatalf("re-encoded journal differs from the fixture:\n got %x\nwant %x", got, want)
	}
}

// TestMaxRecordReplays: a record with exactly MaxRecordBytes of data, which
// Append accepts, must replay too — and so must the record after it.
func TestMaxRecordReplays(t *testing.T) {
	path := tmpJournal(t)
	j, _, _, err := OpenSync(path, false)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, []Record{
		{Type: RecCheckpointed, RunID: 1, Data: make([]byte, MaxRecordBytes)},
		{Type: RecFinished, RunID: 1, Data: []byte(`{"state":"completed"}`)},
	})
	j.Close()

	var sizes []int
	stats, err := ReplayStreamFile(path, func(r Record) error {
		sizes = append(sizes, len(r.Data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornOffset != -1 || len(sizes) != 2 || sizes[0] != MaxRecordBytes {
		t.Fatalf("replayed record sizes %v, stats %+v; want both records, clean", sizes, stats)
	}
}
