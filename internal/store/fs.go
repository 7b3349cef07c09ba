package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// The filesystem seam. The store and the supervisor journal talk to disk
// only through the File and FS interfaces, so a test (or internal/chaos's
// disk-fault injector) can substitute an in-memory filesystem that tears
// writes at arbitrary offsets, fails fsyncs, runs out of space
// mid-append, or "crashes" at any fsync/rename boundary and hands back
// only what a real power cut would have preserved. Production uses OSFS,
// a thin wrapper over *os.File.

// File is one open store file. The store never seeks: reads are positioned
// (ReadAt) and writes always append at the current end.
type File interface {
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes written bytes to stable storage. Durability claims in
	// the store's contract ("committed once Put returns") hold only through
	// this call.
	Sync() error
	// Truncate cuts the file to size bytes (torn-tail healing and
	// failed-append rollback).
	Truncate(size int64) error
	// Size reports the current length in bytes.
	Size() (int64, error)
}

// FS is the minimal filesystem surface the store needs: open-or-create,
// the atomic rename that commits a compaction, and removal of leftovers.
type FS interface {
	// OpenFile opens path read-write, creating it if absent. It never
	// truncates.
	OpenFile(path string) (File, error)
	// Rename atomically replaces newpath with oldpath — the compaction
	// commit point. Implementations must make the rename durable (on a
	// POSIX filesystem that means fsyncing the parent directory).
	Rename(oldpath, newpath string) error
	// Remove deletes path; removing a non-existent path is not an error
	// (leftover cleanup must be idempotent).
	Remove(path string) error
}

// --- OS-backed implementation ---

// OSFS is the production filesystem.
type OSFS struct{}

type osFile struct{ f *os.File }

func (o OSFS) OpenFile(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	// All writes append; position the write offset once.
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (o OSFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	// Make the rename itself durable: fsync the parent directory so a
	// crash after Rename returns cannot resurrect the old file. Best
	// effort — not every filesystem supports fsync on directories.
	if dir, err := os.Open(filepath.Dir(newpath)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

func (o OSFS) Remove(path string) error {
	err := os.Remove(path)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

func (f *osFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }
func (f *osFile) Write(p []byte) (int, error)             { return f.f.Write(p) }
func (f *osFile) Close() error                            { return f.f.Close() }
func (f *osFile) Sync() error                             { return f.f.Sync() }
func (f *osFile) Truncate(size int64) error {
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	_, err := f.f.Seek(size, io.SeekStart)
	return err
}
func (f *osFile) Size() (int64, error) {
	info, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// --- in-memory implementation ---

// MemFS is an in-memory FS for tests and fault injection. It tracks, per
// file, which prefix has been fsync'd, so Clone(syncedOnly=true) can
// reconstruct exactly the state a power cut would preserve. Safe for
// concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memData
}

type memData struct {
	bytes  []byte
	synced int // bytes guaranteed durable (advanced by Sync)
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string]*memData{}}
}

type memFile struct {
	fs   *MemFS
	path string
	data *memData
}

func (m *MemFS) OpenFile(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[path]
	if d == nil {
		d = &memData{}
		m.files[path] = d
	}
	return &memFile{fs: m, path: path, data: d}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[oldpath]
	if !ok {
		return fmt.Errorf("memfs: rename %s: no such file", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = d
	return nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, path)
	return nil
}

// WriteFile installs raw, fully-synced content (corpus setup in tests).
func (m *MemFS) WriteFile(path string, b []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = &memData{bytes: append([]byte(nil), b...), synced: len(b)}
}

// CorruptByte XORs mask into the byte at off, in place — open handles see
// the damage, which is the point: it models bit-rot under a live store.
func (m *MemFS) CorruptByte(path string, off int64, mask byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[path]
	if !ok || off < 0 || off >= int64(len(d.bytes)) {
		return fmt.Errorf("memfs: corrupt %s at %d: out of range", path, off)
	}
	d.bytes[off] ^= mask
	return nil
}

// ReadFile returns a copy of the file's full content (false if absent).
func (m *MemFS) ReadFile(path string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d.bytes...), true
}

// Paths lists the filesystem's file names, sorted.
func (m *MemFS) Paths() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for p := range m.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Clone snapshots the filesystem. With syncedOnly, each file keeps only
// its fsync'd prefix — the state a crash at this instant would preserve
// (an unsynced suffix may or may not hit the platter; syncedOnly models
// the pessimistic cut, a plain Clone the optimistic one).
func (m *MemFS) Clone(syncedOnly bool) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	for p, d := range m.files {
		n := len(d.bytes)
		if syncedOnly && d.synced < n {
			n = d.synced
		}
		out.files[p] = &memData{bytes: append([]byte(nil), d.bytes[:n]...), synced: n}
	}
	return out
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off < 0 || off >= int64(len(f.data.bytes)) {
		return 0, io.EOF
	}
	n := copy(p, f.data.bytes[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.data.bytes = append(f.data.bytes, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.data.synced = len(f.data.bytes)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size < 0 || size > int64(len(f.data.bytes)) {
		return fmt.Errorf("memfs: truncate %s to %d (size %d)", f.path, size, len(f.data.bytes))
	}
	f.data.bytes = f.data.bytes[:size]
	if f.data.synced > int(size) {
		f.data.synced = int(size)
	}
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.data.bytes)), nil
}

func (f *memFile) Close() error { return nil }
