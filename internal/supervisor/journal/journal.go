// Package journal is the supervisor's crash-safe write-ahead log. Every
// run-state transition the supervisor must survive a process kill —
// submitted, started, checkpointed, finished — is appended as framed,
// CRC32-checksummed records and fsync'd before the transition takes effect,
// so a restarted supervisor reconstructs every run's state by replay.
//
// A transition that writes two records (a keyed submit's admission key and
// submitted record; a run's last checkpoint and its finished or suspended
// record) appends them with AppendBatch: one write and one fsync. The file
// bytes are those two Appends would write, and a crash before the fsync
// leaves what two fsyncs could already leave: nothing, or a prefix of the
// batch that replay already handles (a dangling key, a checkpoint with no
// finish).
//
// A journal is a framed file (see internal/store's frame codec) with
// magic "DEEPUMWJ" and version 1. In each frame the tag is the record type,
// the ID is the run ID and the data is the record's payload. Appends go
// through the store's rollback-safe append path, so a failed Append leaves
// the file as it was.
//
// A kill -9 can tear the last frame (partial write) or leave a frame whose
// fsync never completed (checksum mismatch at the tail). Replay tolerates
// both: it stops at the first unreadable frame, reports its byte offset as
// the torn tail, and OpenStream truncates the file there so subsequent
// appends produce a clean log again. There is no per-frame resync marker,
// so a corrupt frame in the middle of the file also ends replay at that
// frame — indistinguishable from a torn tail by construction, and handled
// the same way.
package journal

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"deepum/internal/store"
)

// fileMagic identifies a supervisor journal.
var fileMagic = [8]byte{'D', 'E', 'E', 'P', 'U', 'M', 'W', 'J'}

// Version is the current journal encoding version. A reader rejects any
// other version rather than guessing at the frame layout.
const Version uint32 = 1

// MaxRecordBytes bounds one record's data: a record is one frame's data,
// and Append and replay enforce the same limit.
const MaxRecordBytes = store.MaxFrameData

// RecordType tags what a record means to the supervisor.
type RecordType uint8

// Record types, in run-lifecycle order.
const (
	// RecSubmitted: a run was admitted; data is the JSON-encoded spec.
	RecSubmitted RecordType = 1
	// RecStarted: a worker picked the run up; data is empty. A run with
	// more started than finished records was in flight when the process
	// died.
	RecStarted RecordType = 2
	// RecCheckpointed: the run reported warm state mid-flight; data is the
	// opaque checkpoint payload (a correlation checkpoint stream for DeepUM
	// runs). Replay keeps only the latest per run.
	RecCheckpointed RecordType = 3
	// RecFinished: the run reached a terminal state; data is the
	// JSON-encoded outcome summary.
	RecFinished RecordType = 4
	// RecAdmissionKey: an idempotency key was bound to a run ID; data is the
	// key bytes (printable ASCII, at most admission.MaxKeyLen). Written
	// BEFORE the run's RecSubmitted record, so a crash between the two
	// leaves a dangling key with no run — replay drops it and a client
	// retry creates exactly one run. The reverse order would leave a
	// keyless run that a retry duplicates.
	RecAdmissionKey RecordType = 5
	// RecSuspended: the arbiter suspended the run to its checkpoint and
	// returned it to the queue; data is a short human-readable reason.
	// Non-terminal: replay treats a run whose latest lifecycle record is a
	// suspension exactly like an interrupted one — requeued and resumed
	// from its last RecCheckpointed payload — so kill-during-suspend and
	// federation handoff need no special casing.
	RecSuspended RecordType = 6
)

func (t RecordType) String() string {
	switch t {
	case RecSubmitted:
		return "submitted"
	case RecStarted:
		return "started"
	case RecCheckpointed:
		return "checkpointed"
	case RecFinished:
		return "finished"
	case RecAdmissionKey:
		return "admission-key"
	case RecSuspended:
		return "suspended"
	}
	return fmt.Sprintf("type-%d", uint8(t))
}

// Known reports whether t is a record type this version understands.
// Unknown types fail replay: with no compatibility story yet, a foreign
// type means the file is not ours or is corrupt.
func (t RecordType) Known() bool {
	return t >= RecSubmitted && t <= RecSuspended
}

// Record is one journal entry.
type Record struct {
	Type  RecordType
	RunID uint64
	Data  []byte
}

// validate reports why a record can never be journaled, or nil.
func (r Record) validate() error {
	switch {
	case !r.Type.Known():
		return fmt.Errorf("unknown record type %d", r.Type)
	case len(r.Data) > MaxRecordBytes:
		return fmt.Errorf("record data %d bytes exceeds limit %d", len(r.Data), MaxRecordBytes)
	case r.Type == RecStarted && len(r.Data) > 0:
		// Started records carry no payload in this version; one with data
		// is a checkpoint or spec frame whose type byte was corrupted.
		return fmt.Errorf("started record carries %d payload bytes (must be empty)", len(r.Data))
	case r.Type == RecAdmissionKey && len(r.Data) == 0:
		// An admission-key record's payload IS the key.
		return fmt.Errorf("admission-key record with empty payload")
	}
	return nil
}

// Journal is an append-only, fsync'd record log.
type Journal struct{ out *store.Appender }

// OpenSync opens (or creates) the journal at path on the OS filesystem
// and replays its existing records. A torn tail is truncated away so the
// file ends on a frame boundary; the replayed prefix is returned along
// with its stats. sync=false skips the per-append fsync, trading the kill
// -9 durability guarantee for throughput; it is meant for soak harnesses
// that kill supervisors in-process (Supervisor.Kill), where the OS page
// cache survives and replay correctness does not depend on the disk.
func OpenSync(path string, sync bool) (*Journal, []Record, ReplayStats, error) {
	var recs []Record
	j, stats, err := OpenStream(store.OSFS{}, path, sync, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	return j, recs, stats, err
}

// OpenStream is OpenSync on fs, with the replayed records streamed
// through fn instead of materialized: memory high-water during recovery
// is one frame, which matters when the journal carries months of inline
// checkpoint payloads. An error from fn aborts the open.
func OpenStream(fs store.FS, path string, sync bool, fn func(Record) error) (*Journal, ReplayStats, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, ReplayStats{}, fmt.Errorf("journal: open %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, ReplayStats{}, fmt.Errorf("journal: stat %s: %w", path, err)
	}
	j := &Journal{out: store.NewAppender(f, size, sync)}
	if size == 0 {
		if err := j.out.Append(store.AppendHeader(nil, fileMagic, Version)); err != nil {
			f.Close()
			return nil, ReplayStats{}, fmt.Errorf("journal: initializing %s: %w", path, err)
		}
		return j, ReplayStats{TornOffset: -1}, nil
	}
	stats, err := ReplayStream(io.NewSectionReader(f, 0, size), fn)
	if err != nil {
		f.Close()
		return nil, stats, err
	}
	if stats.TornOffset >= 0 {
		if err := j.out.Truncate(stats.TornOffset); err != nil {
			f.Close()
			return nil, stats, fmt.Errorf("journal: truncating torn tail of %s at %d: %w", path, stats.TornOffset, err)
		}
	}
	return j, stats, nil
}

// Append frames, writes, and fsyncs one record. The record is durable when
// Append returns nil — the caller may then act on the transition. A failed
// Append leaves the file as it was, or, if even that rollback fails, makes
// every later Append fail.
func (j *Journal) Append(r Record) error { return j.AppendBatch(r) }

// AppendBatch frames recs into one buffer and writes and fsyncs it at
// once; the file bytes are those of an Append per record, in order. Every
// record is durable when AppendBatch returns nil. A record that can never
// be journaled fails the whole batch before anything is written, and a
// failed AppendBatch leaves the file as Append does. An empty batch
// writes nothing.
func (j *Journal) AppendBatch(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	n := 0
	for _, r := range recs {
		if err := r.validate(); err != nil {
			return fmt.Errorf("journal: cannot append: %w", err)
		}
		n += store.FrameOverhead + len(r.Data)
	}
	buf := make([]byte, 0, n)
	for _, r := range recs {
		buf = store.AppendFrame(buf, byte(r.Type), r.RunID, r.Data)
	}
	if err := j.out.Append(buf); err != nil {
		if len(recs) == 1 {
			return fmt.Errorf("journal: appending %s record: %w", recs[0].Type, err)
		}
		return fmt.Errorf("journal: appending %d records: %w", len(recs), err)
	}
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.out.Close() }

// ReplayStats describes what a replay pass found.
type ReplayStats struct {
	// Records is the number of intact records replayed.
	Records int
	// ByType counts intact records per type.
	ByType map[RecordType]int
	// TornOffset is the byte offset of the first unreadable frame (the
	// torn tail), or -1 when the file parsed cleanly to EOF. Everything
	// before it replayed intact.
	TornOffset int64
	// CRCFailures counts frames that were fully present but failed their
	// checksum (at most 1: replay cannot resync past a bad frame).
	CRCFailures int
	// TruncatedFrame is true when the tail ended mid-frame (a partial
	// write) rather than on a checksum failure.
	TruncatedFrame bool
}

// ReplayStream decodes records from r one frame at a time, calling fn for
// each intact record in file order, until EOF or the first unreadable
// frame. Memory high-water is a single frame, not the file: a journal
// holding months of checkpoint history replays in constant space when fn
// folds instead of accumulating. It only errors on I/O failures, a file
// that is not a journal at all, or an error from fn (which aborts the
// stream); torn tails and checksum failures are reported in the stats,
// not as errors, because they are the expected residue of a kill -9.
func ReplayStream(r io.Reader, fn func(Record) error) (ReplayStats, error) {
	stats := ReplayStats{TornOffset: -1, ByType: map[RecordType]int{}}
	br := bufio.NewReaderSize(r, 1<<16)

	hdr := make([]byte, store.HeaderLen)
	n, err := io.ReadFull(br, hdr)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return stats, fmt.Errorf("journal: reading header: %w", err)
	}
	v, err := store.CheckHeader(hdr[:n], fileMagic, "supervisor journal")
	if err == nil && v != Version {
		err = fmt.Errorf("unsupported version %d (want %d)", v, Version)
	}
	if err != nil {
		return stats, fmt.Errorf("journal: %w", err)
	}

	off := int64(store.HeaderLen)
	var lenBuf [4]byte
	var frame []byte // reused across iterations: one whole frame
	for {
		_, err := io.ReadFull(br, lenBuf[:])
		if err == io.EOF {
			return stats, nil // clean end on a frame boundary
		}
		if err == io.ErrUnexpectedEOF {
			stats.TornOffset, stats.TruncatedFrame = off, true
			return stats, nil
		}
		if err != nil {
			return stats, fmt.Errorf("journal: reading frame length at %d: %w", off, err)
		}
		size := store.FrameSize(lenBuf[:])
		if size == 0 {
			// A garbage length field is indistinguishable from a torn
			// frame; classify it as a checksum-grade failure.
			stats.TornOffset, stats.CRCFailures = off, stats.CRCFailures+1
			return stats, nil
		}
		if cap(frame) < size {
			frame = make([]byte, size)
		}
		frame = frame[:size]
		copy(frame, lenBuf[:])
		if _, err := io.ReadFull(br, frame[4:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				stats.TornOffset, stats.TruncatedFrame = off, true
				return stats, nil
			}
			return stats, fmt.Errorf("journal: reading frame at %d: %w", off, err)
		}
		f, _, ok := store.DecodeFrame(frame)
		rec := Record{Type: RecordType(f.Tag), RunID: f.ID, Data: f.Data}
		if !ok || rec.validate() != nil {
			// A CRC-valid frame with an unknown type or a payload its
			// type never carries (a CRC-colliding corruption, or a hostile
			// file) would silently misfile run state; stop replay here
			// like any other corrupt frame.
			stats.TornOffset, stats.CRCFailures = off, stats.CRCFailures+1
			return stats, nil
		}
		rec.Data = append([]byte(nil), rec.Data...) // nil when empty
		stats.Records++
		stats.ByType[rec.Type]++
		if err := fn(rec); err != nil {
			return stats, err
		}
		off += int64(size)
	}
}

// ReplayFile replays the journal at path read-only (used by
// deepum-inspect; the file is left untouched, torn tail included).
func ReplayFile(path string) ([]Record, ReplayStats, error) {
	var recs []Record
	stats, err := ReplayStreamFile(path, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, stats, err
}

// ReplayStreamFile is ReplayStream over the journal at path, read-only.
func ReplayStreamFile(path string, fn func(Record) error) (ReplayStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return ReplayStats{TornOffset: -1}, fmt.Errorf("journal: open %s: %w", path, err)
	}
	defer f.Close()
	return ReplayStream(f, fn)
}
