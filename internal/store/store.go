// Package store is a durable, single-file, append-only, content-addressed
// blob store — the checkpoint database behind the supervisor and the
// federation. A blob is addressed by its 64-bit content hash (Key), so
// identical warm-state checkpoints across runs are stored once (dedup) and
// a journal can record a 16-byte reference instead of re-inlining the blob
// on every checkpoint.
//
// Durability is adversarial by design: every frame is CRC-framed AND
// carries its content hash (two independent witnesses), the file is only
// touched through the pluggable FS seam so internal/chaos can inject torn
// writes, bit flips, failed fsyncs, and mid-append ENOSPC, a scrubber
// re-verifies frames and repairs damage from a surviving replica (or
// reports the key lost so the owning run degrades to a cold restart), and
// compaction commits through an atomic rename so a crash at any
// fsync/rename boundary leaves either the old file or the new one — never
// a hybrid. Open heals torn tails by truncation. The frame codec and the
// rollback-safe append path (frame.go) are shared with the supervisor WAL
// and the checkpoint envelope.
package store

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Options parameterize Open. The zero value is production-ready: OS
// filesystem, one replica per blob, fsync on every Put.
type Options struct {
	// FS is the filesystem seam; nil selects the OS.
	FS FS
	// Replicas is how many copies of each frame Put appends (and scrub
	// maintains). 1 stores each blob once; 2 lets the scrubber repair a
	// corrupted frame from its surviving twin instead of declaring the
	// key lost. Defaults to 1.
	Replicas int
	// NoSync skips the per-Put fsync. Only harnesses that "kill"
	// processes in-memory (where the page cache survives) should set it;
	// real durability needs the fsync before Put returns.
	NoSync bool
	// ScrubEvery, when positive, starts a background scrubber that
	// re-verifies every frame at this interval.
	ScrubEvery time.Duration
	// OnScrub receives every background scrub's report (manual Scrub
	// calls return theirs directly). Called from the scrubber goroutine.
	OnScrub func(ScrubReport, error)
}

// Store is the open store. All methods are safe for concurrent use.
type Store struct {
	path string
	fs   FS
	opts Options

	mu    sync.RWMutex
	out   *Appender
	index map[Key][]frameRef
	// keys in first-Put order, for deterministic iteration/compaction.
	order  []Key
	closed bool

	// counters (under mu)
	puts       int64
	dedupHits  int64
	getCorrupt int64 // corrupt replicas skipped on the read path

	scrubStop chan struct{}
	scrubDone chan struct{}
}

// OpenStats describes what Open found on disk.
type OpenStats struct {
	// Frames and Keys count intact frames and distinct keys indexed.
	Frames int
	Keys   int
	// CorruptRegions are mid-file byte ranges the scan skipped (left in
	// place as dead bytes until compaction).
	CorruptRegions []CorruptRegion
	// TornBytes is how many trailing bytes were truncated away (a torn
	// append from a crash), 0 for a clean file.
	TornBytes int64
}

// Open opens (or creates) the store at path, rebuilds the in-memory index
// by scanning every frame (verifying CRC and content hash), truncates any
// torn tail, and removes leftovers of a crashed compaction. The returned
// stats describe what the scan found; mid-file damage does not fail Open —
// it is reported, skipped, and left for Scrub/Compact to deal with.
func Open(path string, opts Options) (*Store, OpenStats, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	var stats OpenStats

	// A crash between writing <path>.compacting and the commit rename
	// leaves the temp file behind; the old store is still the truth and
	// the leftover is garbage. Remove is idempotent, so this is safe
	// whether or not a crashed compaction happened.
	if err := opts.FS.Remove(path + compactSuffix); err != nil {
		return nil, stats, fmt.Errorf("store: removing stale compaction file: %w", err)
	}

	f, err := opts.FS.OpenFile(path)
	if err != nil {
		return nil, stats, fmt.Errorf("store: open %s: %w", path, err)
	}
	data, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, stats, fmt.Errorf("store: reading %s: %w", path, err)
	}
	s := &Store{path: path, fs: opts.FS, opts: opts, out: NewAppender(f, int64(len(data)), !opts.NoSync), index: map[Key][]frameRef{}}
	if len(data) == 0 {
		if err := s.out.Append(appendHeader(nil)); err != nil {
			f.Close()
			return nil, stats, fmt.Errorf("store: initializing %s: %w", path, err)
		}
	} else {
		if err := checkHeader(data); err != nil {
			f.Close()
			return nil, stats, err
		}
		res := scanFrames(data)
		stats.CorruptRegions = res.corrupt
		if res.torn >= 0 {
			stats.TornBytes = int64(len(data)) - res.torn
			if err := s.out.Truncate(res.torn); err != nil {
				f.Close()
				return nil, stats, fmt.Errorf("store: truncating torn tail of %s at %d: %w", path, res.torn, err)
			}
		}
		for _, fr := range res.frames {
			if len(s.index[fr.key]) == 0 {
				s.order = append(s.order, fr.key)
			}
			s.index[fr.key] = append(s.index[fr.key], fr)
		}
		stats.Frames = len(res.frames)
		stats.Keys = len(s.index)
	}

	if opts.ScrubEvery > 0 {
		s.scrubStop = make(chan struct{})
		s.scrubDone = make(chan struct{})
		go s.scrubLoop(opts.ScrubEvery)
	}
	return s, stats, nil
}

// NotFoundError reports a key the store has never held (or scrubbed away
// as unrecoverable).
type NotFoundError struct{ Key Key }

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("store: no blob with key %s", e.Key)
}

// CorruptError reports a key whose every replica failed verification —
// the blob existed but cannot be recovered. Callers holding a reference
// should degrade (cold restart), never invent data.
type CorruptError struct{ Key Key }

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: every replica of key %s is corrupt", e.Key)
}

// CollisionError reports a Put whose blob hashes to a key already held by
// DIFFERENT content — a 64-bit hash collision. The store refuses the Put
// (content addressing cannot hold two blobs at one address); the caller
// falls back to storing the blob elsewhere (the supervisor inlines it in
// the journal).
type CollisionError struct{ Key Key }

func (e *CollisionError) Error() string {
	return fmt.Sprintf("store: content-hash collision on key %s", e.Key)
}

// ErrClosed rejects operations on a closed store.
var errClosed = fmt.Errorf("store: closed")

// Put stores blob and returns its content key. If the key is already
// present Put verifies the stored content actually matches (guarding
// against hash collisions) and returns without writing — dedup. The blob
// is durable (fsync'd, unless Options.NoSync) when Put returns nil.
// A failed append rolls the file back to its previous size so a torn
// frame never lingers past the call (see Appender).
func (s *Store) Put(blob []byte) (Key, error) {
	if int64(len(blob)) > MaxBlobBytes {
		return 0, fmt.Errorf("store: blob %d bytes exceeds limit %d", len(blob), MaxBlobBytes)
	}
	key := HashBytes(blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	if refs := s.index[key]; len(refs) > 0 {
		// Dedup hit — but verify against a stored replica first: a 64-bit
		// collision silently aliasing two checkpoints would corrupt a
		// resume, which is worse than the read it costs here.
		stored, err := s.readGoodLocked(key, refs)
		if err != nil {
			// Every replica rotted since open; treat as absent and
			// re-append below (which also restores redundancy).
		} else if !bytes.Equal(stored, blob) {
			return 0, &CollisionError{Key: key}
		} else {
			s.dedupHits++
			return key, nil
		}
	}
	if err := s.appendLocked(key, blob, s.opts.Replicas); err != nil {
		return 0, err
	}
	s.puts++
	return key, nil
}

// appendLocked writes n replica frames for (key, blob) in one append and
// indexes them. Caller holds mu.
func (s *Store) appendLocked(key Key, blob []byte, n int) error {
	prev := s.out.Size()
	buf := make([]byte, 0, n*(FrameOverhead+len(blob)))
	refs := make([]frameRef, 0, n)
	for i := 0; i < n; i++ {
		off := prev + int64(len(buf))
		buf = appendFrame(buf, key, blob)
		refs = append(refs, frameRef{off: off, n: prev + int64(len(buf)) - off, key: key})
	}
	if err := s.out.Append(buf); err != nil {
		return fmt.Errorf("store: appending key %s: %w", key, err)
	}
	if len(s.index[key]) == 0 {
		s.order = append(s.order, key)
	}
	s.index[key] = append(s.index[key], refs...)
	return nil
}

// readGoodLocked returns the first replica of key that verifies (CRC and
// content hash), counting corrupt replicas it had to skip. Caller holds
// mu (read or write).
func (s *Store) readGoodLocked(key Key, refs []frameRef) ([]byte, error) {
	var corrupt int
	for _, fr := range refs {
		frame := make([]byte, fr.n)
		if _, err := s.out.f.ReadAt(frame, fr.off); err != nil {
			corrupt++
			continue
		}
		// decodeFrame wants the frame at offset 0 of its slice; build a
		// fake image view so lengths line up.
		k, blob, _, ok := decodeFrame(frame, 0)
		if !ok || k != key {
			corrupt++
			continue
		}
		out := append([]byte(nil), blob...)
		return out, nil
	}
	if corrupt > 0 {
		return nil, &CorruptError{Key: key}
	}
	return nil, &NotFoundError{Key: key}
}

// Get returns the blob for key, verifying CRC and content hash on the
// way out. A corrupt replica is skipped in favor of a surviving one; if
// every replica is damaged Get returns *CorruptError, and an unknown key
// returns *NotFoundError.
func (s *Store) Get(key Key) ([]byte, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, errClosed
	}
	refs := s.index[key]
	if len(refs) == 0 {
		s.mu.RUnlock()
		return nil, &NotFoundError{Key: key}
	}
	blob, err := s.readGoodLocked(key, refs)
	s.mu.RUnlock()
	if _, bad := err.(*CorruptError); bad {
		s.mu.Lock()
		s.getCorrupt++
		s.mu.Unlock()
	}
	return blob, err
}

// Has reports whether the store indexes key (without verifying content).
func (s *Store) Has(key Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index[key]) > 0
}

// Keys returns every indexed key in first-Put order.
func (s *Store) Keys() []Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Key(nil), s.order...)
}

// Len reports the number of distinct keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Stats is a point-in-time aggregate of the store.
type Stats struct {
	// Keys and Frames count distinct blobs and on-disk frames (replicas
	// included).
	Keys   int   `json:"keys"`
	Frames int   `json:"frames"`
	Bytes  int64 `json:"bytes"`
	// Puts counts blobs actually appended; DedupHits counts Puts answered
	// from the index without writing.
	Puts      int64 `json:"puts"`
	DedupHits int64 `json:"dedup_hits"`
	// ReadCorrupt counts Gets that found at least one corrupt replica.
	ReadCorrupt int64 `json:"read_corrupt,omitempty"`
	// Replicas echoes the configured replication factor.
	Replicas int `json:"replicas"`
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Keys:        len(s.index),
		Bytes:       s.out.Size(),
		Puts:        s.puts,
		DedupHits:   s.dedupHits,
		ReadCorrupt: s.getCorrupt,
		Replicas:    s.opts.Replicas,
	}
	for _, refs := range s.index {
		st.Frames += len(refs)
	}
	return st
}

// Sync flushes the file (a NoSync store can still checkpoint durability
// explicitly).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	return s.out.f.Sync()
}

// Close stops the background scrubber (if any) and closes the file.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop, done := s.scrubStop, s.scrubDone
	out := s.out
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return out.Close()
}

// sortedKeysLocked returns the index's keys ascending (deterministic
// compaction layout). Caller holds mu.
func (s *Store) sortedKeysLocked() []Key {
	keys := make([]Key, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
