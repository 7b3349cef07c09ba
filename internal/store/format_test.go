package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fixtureBlob is the i'th put behind testdata/compacted.store.
func fixtureBlob(i int) []byte { return bytes.Repeat([]byte{byte(i), 0x5A, byte(0xF0 ^ i)}, 10+3*i) }

// writeFixtureStore replays the fixture's history on fs: five puts with two
// replicas each, then a compaction keeping the even-numbered blobs.
func writeFixtureStore(t *testing.T, fs FS) {
	t.Helper()
	s, _, err := Open("ck.store", Options{FS: fs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := map[Key]bool{}
	for i := 0; i < 5; i++ {
		k, err := s.Put(fixtureBlob(i))
		if err != nil {
			t.Fatal(err)
		}
		live[k] = i%2 == 0
	}
	if _, err := s.Compact(func(k Key) bool { return live[k] }); err != nil {
		t.Fatal(err)
	}
}

// TestFixtureStore pins the on-disk format. testdata/compacted.store was
// written by the store's own codec before it moved onto the shared frame
// codec and is committed verbatim: it must open clean with every kept blob
// readable, and replaying its history must reproduce it byte for byte.
func TestFixtureStore(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "compacted.store"))
	if err != nil {
		t.Fatal(err)
	}
	fs := NewMemFS()
	fs.WriteFile("ck.store", want)
	s, stats, err := Open("ck.store", Options{FS: fs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if stats.Keys != 3 || stats.Frames != 6 || stats.TornBytes != 0 || len(stats.CorruptRegions) != 0 {
		t.Fatalf("fixture open stats: %+v", stats)
	}
	for i := 0; i < 5; i++ {
		got, err := s.Get(HashBytes(fixtureBlob(i)))
		var nf *NotFoundError
		switch {
		case i%2 == 0 && (err != nil || !bytes.Equal(got, fixtureBlob(i))):
			t.Fatalf("kept blob %d: %v", i, err)
		case i%2 == 1 && !errors.As(err, &nf):
			t.Fatalf("compacted-away blob %d: err %v, want *NotFoundError", i, err)
		}
	}

	fresh := NewMemFS()
	writeFixtureStore(t, fresh)
	if got, _ := fresh.ReadFile("ck.store"); !bytes.Equal(got, want) {
		t.Fatalf("re-encoded store differs from the fixture:\n got %x\nwant %x", got, want)
	}
}
