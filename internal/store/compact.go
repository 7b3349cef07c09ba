package store

import (
	"fmt"
	"sort"
)

// Crash-safe compaction. An append-only store accumulates garbage —
// corrupt regions skipped by the scanner, superseded checkpoints whose
// runs have moved on, repair appends — and compaction reclaims it by
// rewriting only the live keys into a fresh file and atomically swapping
// it in. The commit protocol is the journal handoff's *.adopted rename
// idiom, with exactly one commit point:
//
//	1. write <path>.compacting  (header + live frames, replicas restored)
//	2. fsync it                 — the new file is durable but not yet the store
//	3. rename over <path>       — THE commit point (atomic on POSIX; the
//	                              OS FS fsyncs the directory too)
//
// A crash before step 3 leaves the old file as the truth (Open removes
// the stale temp file); a crash after leaves the new file. There is no
// intermediate state, which is what the crash-point sweep test asserts by
// killing the filesystem at every fsync/rename boundary.

// compactSuffix names the in-progress compaction temp file.
const compactSuffix = ".compacting"

// CompactStats describes one compaction.
type CompactStats struct {
	// KeysKept survived the liveness filter; KeysDropped did not.
	KeysKept    int `json:"keys_kept"`
	KeysDropped int `json:"keys_dropped"`
	// Unreadable counts live keys that could not be carried over because
	// every replica was corrupt — they are gone from the compacted store
	// (their holders degrade to cold restart, same as a scrub loss).
	Unreadable int `json:"unreadable,omitempty"`
	// BytesBefore and BytesAfter measure the reclaim.
	BytesBefore int64 `json:"bytes_before"`
	BytesAfter  int64 `json:"bytes_after"`
}

// Compact rewrites the store keeping only keys for which live returns
// true (nil keeps every key — still worthwhile: it drops corrupt regions,
// dedups over-replication, and restores the replication factor). The swap
// is atomic: readers and writers observe either the old file or the new
// one, and a crash at any point preserves one of the two.
func (s *Store) Compact(live func(Key) bool) (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st CompactStats
	if s.closed {
		return st, errClosed
	}
	st.BytesBefore = s.out.Size()

	// Plan: keep live keys in ascending key order (deterministic layout —
	// two compactions of the same state produce byte-identical files).
	keys := s.sortedKeysLocked()
	var keep []Key
	for _, k := range keys {
		if live == nil || live(k) {
			keep = append(keep, k)
		} else {
			st.KeysDropped++
		}
	}

	// Build the new image in memory, reading each kept key through the
	// verifying path (a corrupt-everywhere key cannot be carried over).
	buf := appendHeader(nil)
	newIndex := make(map[Key][]frameRef, len(keep))
	var newOrder []Key
	for _, key := range keep {
		blob, err := s.readGoodLocked(key, s.index[key])
		if err != nil {
			st.Unreadable++
			continue
		}
		refs := make([]frameRef, 0, s.opts.Replicas)
		for i := 0; i < s.opts.Replicas; i++ {
			off := int64(len(buf))
			buf = appendFrame(buf, key, blob)
			refs = append(refs, frameRef{off: off, n: int64(len(buf)) - off, key: key})
		}
		newIndex[key] = refs
		newOrder = append(newOrder, key)
		st.KeysKept++
	}
	// First-Put order is not recoverable from a compacted file (it is
	// sorted by key); keep the in-memory order sorted too so reopen and
	// live store agree.
	sort.Slice(newOrder, func(i, j int) bool { return newOrder[i] < newOrder[j] })

	// 1+2: write and fsync the temp file.
	tmp := s.path + compactSuffix
	if err := s.fs.Remove(tmp); err != nil {
		return st, fmt.Errorf("store: compact: clearing temp file: %w", err)
	}
	nf, err := s.fs.OpenFile(tmp)
	if err != nil {
		return st, fmt.Errorf("store: compact: creating %s: %w", tmp, err)
	}
	abort := func(err error) (CompactStats, error) {
		nf.Close()
		_ = s.fs.Remove(tmp)
		return st, err
	}
	if err := nf.Truncate(0); err != nil {
		return abort(fmt.Errorf("store: compact: truncating temp file: %w", err))
	}
	if _, err := nf.Write(buf); err != nil {
		return abort(fmt.Errorf("store: compact: writing %s: %w", tmp, err))
	}
	if err := nf.Sync(); err != nil {
		return abort(fmt.Errorf("store: compact: syncing %s: %w", tmp, err))
	}

	// 3: the commit point.
	if err := s.fs.Rename(tmp, s.path); err != nil {
		return abort(fmt.Errorf("store: compact: committing rename: %w", err))
	}

	// The rename made nf's inode the store; retire the old handle and
	// swap the in-memory view. From here the compaction has happened —
	// errors closing the old handle are not undoable and not fatal.
	_ = s.out.Close()
	s.out = NewAppender(nf, int64(len(buf)), !s.opts.NoSync)
	s.index = newIndex
	s.order = newOrder
	st.BytesAfter = s.out.Size()
	return st, nil
}
