package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"deepum/internal/store"
	"deepum/internal/supervisor/journal"
)

func ckBlob(i int) []byte {
	return bytes.Repeat([]byte{byte(i), 0x5A, byte(i >> 4)}, 30+i%5)
}

// reopenSurviving reopens the store on what a power cut would preserve.
func reopenSurviving(t *testing.T, f *FaultFS, replicas int) (*store.Store, store.OpenStats) {
	t.Helper()
	s, stats, err := store.Open("ck.store", store.Options{FS: f.Surviving(), Replicas: replicas})
	if err != nil {
		t.Fatalf("reopen on surviving state: %v", err)
	}
	return s, stats
}

func TestTornWriteRollsBackAndSurvives(t *testing.T) {
	// Write 1 is the header, write 2 the first put; tear the second put.
	f := NewFaultFS(DiskFaults{TornWriteAt: 3, TornKeep: 9})
	s, _, err := store.Open("ck.store", store.Options{FS: f})
	if err != nil {
		t.Fatal(err)
	}
	k1, err := s.Put(ckBlob(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ckBlob(2)); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn put error = %v, want ErrTornWrite", err)
	}
	// The store rolled the torn frame back; the live store keeps working.
	k3, err := s.Put(ckBlob(3))
	if err != nil {
		t.Fatalf("put after torn write: %v", err)
	}
	for i, k := range map[int]store.Key{1: k1, 3: k3} {
		if got, err := s.Get(k); err != nil || !bytes.Equal(got, ckBlob(i)) {
			t.Fatalf("key %d after rollback: %v", i, err)
		}
	}
	s.Close()

	s2, stats, err := store.Open("ck.store", store.Options{FS: f.Inner()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if stats.TornBytes != 0 || len(stats.CorruptRegions) != 0 || stats.Keys != 2 {
		t.Fatalf("reopen after rollback: %+v", stats)
	}
}

func TestBitFlipDetectedAndRepaired(t *testing.T) {
	f := NewFaultFS(DiskFaults{BitFlipAt: 2, BitFlipOff: 20, BitFlipMask: 0x40})
	s, _, err := store.Open("ck.store", store.Options{FS: f, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Write 2 (write 1 is the header): both replicas of k land in one
	// write, the flip corrupts exactly one frame.
	k, err := s.Put(ckBlob(4))
	if err != nil {
		t.Fatal(err)
	}
	// Silent corruption: Put reported success. Get falls through to the
	// intact replica; Scrub restores the replication factor.
	if got, err := s.Get(k); err != nil || !bytes.Equal(got, ckBlob(4)) {
		t.Fatalf("get past flipped replica: %v", err)
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 || len(rep.Lost) != 0 || rep.CorruptFrames == 0 {
		t.Fatalf("scrub after bit flip: %+v", rep)
	}
}

func TestBitFlipWithoutReplicaDegradesToColdRestart(t *testing.T) {
	f := NewFaultFS(DiskFaults{BitFlipAt: 2, BitFlipOff: 15})
	s, _, err := store.Open("ck.store", store.Options{FS: f}) // replicas=1
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k, err := s.Put(ckBlob(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lost) != 1 || rep.Lost[0] != k {
		t.Fatalf("scrub lost = %v, want [%s]", rep.Lost, k)
	}
	var nf *store.NotFoundError
	if _, err := s.Get(k); !errors.As(err, &nf) {
		t.Fatalf("degraded key error = %v, want *store.NotFoundError", err)
	}
}

func TestFailedSyncLeavesDataVolatile(t *testing.T) {
	f := NewFaultFS(DiskFaults{FailSyncAt: 2}) // sync 1 covers the header
	s, _, err := store.Open("ck.store", store.Options{FS: f})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ckBlob(1)); !errors.Is(err, ErrSyncFail) {
		t.Fatalf("put error = %v, want ErrSyncFail", err)
	}
	s.Close()

	// The put failed, so the caller never journaled a reference; the
	// surviving (synced-prefix) state must reopen clean without the blob.
	s2, stats := reopenSurviving(t, f, 1)
	defer s2.Close()
	if stats.Keys != 0 || stats.TornBytes != 0 {
		t.Fatalf("surviving state after failed sync: %+v", stats)
	}
}

func TestNoSpaceRollsBack(t *testing.T) {
	f := NewFaultFS(DiskFaults{NoSpaceAt: 2, NoSpaceKeep: 5})
	s, _, err := store.Open("ck.store", store.Options{FS: f})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put(ckBlob(1)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("put error = %v, want ErrNoSpace", err)
	}
	// Space pressure cleared (the script fires once): the store recovers.
	k, err := s.Put(ckBlob(2))
	if err != nil {
		t.Fatalf("put after ENOSPC: %v", err)
	}
	if got, err := s.Get(k); err != nil || !bytes.Equal(got, ckBlob(2)) {
		t.Fatalf("get after ENOSPC recovery: %v", err)
	}
}

// TestAppendCrashSweep kills the filesystem at every fsync boundary of an
// append-heavy workload and asserts the durability contract on reopen:
// every Put that returned success before the crash resolves bit-identically
// on the surviving state, and the file reopens without damage (a torn
// unsynced tail is healed, never misread).
func TestAppendCrashSweep(t *testing.T) {
	const puts = 6
	// First pass: count boundaries in a clean run.
	clean := NewFaultFS(DiskFaults{})
	s, _, err := store.Open("ck.store", store.Options{FS: clean, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < puts; i++ {
		if _, err := s.Put(ckBlob(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	total := clean.Boundaries()
	if total < puts {
		t.Fatalf("suspiciously few boundaries: %d", total)
	}

	for b := 1; b <= total; b++ {
		b := b
		t.Run(fmt.Sprintf("boundary=%d", b), func(t *testing.T) {
			f := NewFaultFS(DiskFaults{CrashAtBoundary: b})
			committed := map[store.Key][]byte{}
			s, _, err := store.Open("ck.store", store.Options{FS: f, Replicas: 2})
			if err == nil {
				for i := 0; i < puts; i++ {
					k, err := s.Put(ckBlob(i))
					if err != nil {
						break // crashed mid-workload
					}
					committed[k] = ckBlob(i)
				}
			}
			if !f.Crashed() {
				t.Fatalf("boundary %d of %d never hit", b, total)
			}

			s2, stats := reopenSurviving(t, f, 2)
			defer s2.Close()
			if len(stats.CorruptRegions) != 0 {
				t.Fatalf("corrupt regions on surviving state: %+v", stats.CorruptRegions)
			}
			for k, want := range committed {
				got, err := s2.Get(k)
				if err != nil {
					t.Fatalf("committed key %s lost at boundary %d: %v", k, b, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("committed key %s corrupted at boundary %d", k, b)
				}
			}
		})
	}
}

// TestCompactCrashSweep kills the filesystem at every fsync/rename
// boundary of a put-then-compact workload. The contract: on reopen the
// store is either entirely pre-compaction (all keys) or entirely
// post-compaction (exactly the live keys) — never a mix, and never a
// stale temp file left behind.
func TestCompactCrashSweep(t *testing.T) {
	const puts = 5
	blobs := make(map[int][]byte, puts)
	for i := 0; i < puts; i++ {
		blobs[i] = ckBlob(i)
	}

	run := func(f *FaultFS) (keys []store.Key, live map[store.Key]bool, compacted bool, err error) {
		s, _, err := store.Open("ck.store", store.Options{FS: f, Replicas: 2})
		if err != nil {
			return nil, nil, false, err
		}
		defer s.Close()
		live = map[store.Key]bool{}
		for i := 0; i < puts; i++ {
			k, err := s.Put(blobs[i])
			if err != nil {
				return keys, live, false, err
			}
			keys = append(keys, k)
			if i%2 == 0 {
				live[k] = true
			}
		}
		if _, err := s.Compact(func(k store.Key) bool { return live[k] }); err != nil {
			return keys, live, false, err
		}
		return keys, live, true, nil
	}

	clean := NewFaultFS(DiskFaults{})
	_, _, compacted, err := run(clean)
	if err != nil || !compacted {
		t.Fatalf("clean run: compacted=%v err=%v", compacted, err)
	}
	total := clean.Boundaries()

	for b := 1; b <= total; b++ {
		b := b
		t.Run(fmt.Sprintf("boundary=%d", b), func(t *testing.T) {
			f := NewFaultFS(DiskFaults{CrashAtBoundary: b})
			committed, live, compacted, _ := run(f)
			if !f.Crashed() {
				t.Fatalf("boundary %d of %d never hit", b, total)
			}

			s2, stats := reopenSurviving(t, f, 2)
			defer s2.Close()
			if len(stats.CorruptRegions) != 0 {
				t.Fatalf("corrupt regions on surviving state: %+v", stats.CorruptRegions)
			}
			// No intermediate state. The rename is the last boundary inside
			// Compact, so a false `compacted` means the old file is still
			// the truth: every committed put resolves. A true `compacted`
			// means the new file won: exactly the live subset resolves.
			for i, k := range committed {
				got, err := s2.Get(k)
				if compacted && !live[k] {
					if err == nil {
						t.Fatalf("dropped key %d survives committed compaction at boundary %d", i, b)
					}
					continue
				}
				if err != nil {
					t.Fatalf("key %d (%s) lost at boundary %d (compacted=%v): %v", i, k, b, compacted, err)
				}
				if !bytes.Equal(got, blobs[i]) {
					t.Fatalf("key %d corrupted at boundary %d", i, b)
				}
			}
			// The crash-interrupted temp file must not survive a reopen.
			for _, p := range f.Surviving().Paths() {
				if p != "ck.store" {
					// Open removed it from its own view; verify against a
					// fresh open's filesystem, not the crash snapshot.
					surv := f.Surviving()
					s3, _, err := store.Open("ck.store", store.Options{FS: surv, Replicas: 2})
					if err != nil {
						t.Fatal(err)
					}
					s3.Close()
					for _, p2 := range surv.Paths() {
						if p2 != "ck.store" {
							t.Fatalf("stale file after reopen: %s", p2)
						}
					}
					break
				}
			}
		})
	}
}

// jrec is the i'th record of the journal fault workloads.
func jrec(i int) journal.Record {
	return journal.Record{Type: journal.RecCheckpointed, RunID: uint64(i), Data: ckBlob(i)}
}

// replaySurviving reopens the journal on what a power cut would preserve
// and returns the records it replays.
func replaySurviving(t *testing.T, f *FaultFS) []journal.Record {
	t.Helper()
	var recs []journal.Record
	j, stats, err := journal.OpenStream(f.Surviving(), "runs.journal", true, func(r journal.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("reopen journal on surviving state: %v", err)
	}
	j.Close()
	if stats.CRCFailures != 0 {
		t.Fatalf("surviving journal has a corrupt frame: %+v", stats)
	}
	return recs
}

func sameRecords(t *testing.T, got, want []journal.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].RunID != want[i].RunID || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestJournalAppendFaultRollsBack: a torn write, an ENOSPC and a failed
// fsync each fail one journal Append. The file is byte-identical to what it
// was before that call, the journal keeps appending, and a reopen on the
// surviving state replays every acknowledged record and nothing of the
// failed one.
func TestJournalAppendFaultRollsBack(t *testing.T) {
	// Write and sync 1 are the header, 2 the first record; fault the second.
	for _, c := range []struct {
		name string
		plan DiskFaults
		want error
	}{
		{"torn-write", DiskFaults{TornWriteAt: 3, TornKeep: 9}, ErrTornWrite},
		{"no-space", DiskFaults{NoSpaceAt: 3, NoSpaceKeep: 20}, ErrNoSpace},
		{"failed-fsync", DiskFaults{FailSyncAt: 3}, ErrSyncFail},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := NewFaultFS(c.plan)
			j, _, err := journal.OpenStream(f, "runs.journal", true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(jrec(1)); err != nil {
				t.Fatal(err)
			}
			before, _ := f.Inner().ReadFile("runs.journal")
			if err := j.Append(jrec(2)); !errors.Is(err, c.want) {
				t.Fatalf("append error = %v, want %v", err, c.want)
			}
			if after, _ := f.Inner().ReadFile("runs.journal"); !bytes.Equal(after, before) {
				t.Fatalf("failed append changed the file: %d -> %d bytes", len(before), len(after))
			}
			if err := j.Append(jrec(3)); err != nil {
				t.Fatalf("append after the failed one: %v", err)
			}
			j.Close()
			sameRecords(t, replaySurviving(t, f), []journal.Record{jrec(1), jrec(3)})
		})
	}
}

// TestJournalAppendCrashSweep kills the filesystem at every fsync boundary
// of a journal workload: the reopened journal holds exactly the records
// whose Append returned nil before the crash.
func TestJournalAppendCrashSweep(t *testing.T) {
	const appends = 6
	workload := func(f *FaultFS) (acked []journal.Record) {
		j, _, err := journal.OpenStream(f, "runs.journal", true, nil)
		if err != nil {
			return nil
		}
		defer j.Close()
		for i := 0; i < appends; i++ {
			if err := j.Append(jrec(i)); err != nil {
				break // crashed mid-workload
			}
			acked = append(acked, jrec(i))
		}
		return acked
	}
	clean := NewFaultFS(DiskFaults{})
	if got := workload(clean); len(got) != appends {
		t.Fatalf("clean run acknowledged %d of %d appends", len(got), appends)
	}
	total := clean.Boundaries()
	for b := 1; b <= total; b++ {
		t.Run(fmt.Sprintf("boundary=%d", b), func(t *testing.T) {
			f := NewFaultFS(DiskFaults{CrashAtBoundary: b})
			acked := workload(f)
			if !f.Crashed() {
				t.Fatalf("boundary %d of %d never hit", b, total)
			}
			sameRecords(t, replaySurviving(t, f), acked)
		})
	}
}
