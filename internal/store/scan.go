package store

import (
	"fmt"
	"io"
)

// The store's frames and file scanner. A store file is a framed file (see
// frame.go) with magic "DEEPUMCS". In each frame the tag is a flags byte
// (reserved, zero in v1), the ID is the blob's key and the data is the
// blob.
//
// The key is the blob's content hash (FNV-1a finalized with splitmix64),
// stored redundantly so a scan can verify the frame twice over: the CRC
// catches transport damage, the key-vs-rehash comparison catches a frame
// whose CRC was recomputed over corrupted content (or a hostile file).
//
// Unlike the supervisor WAL — which stops replay at the first unreadable
// frame, because record ORDER is its semantics — the store's frames are
// independent facts, so the scanner resynchronizes past damage: a corrupt
// frame is skipped and the scan hunts forward for the next offset that
// decodes as a fully valid frame (plausible length, CRC match, key match).
// Only when no valid frame exists anywhere after the damage does the scan
// report a torn tail, which Open truncates away.

// fileMagic identifies a content store ("CS" vs the WAL's "WJ").
var fileMagic = [8]byte{'D', 'E', 'E', 'P', 'U', 'M', 'C', 'S'}

// Version is the current store encoding version. A reader rejects any
// other version rather than guessing at the frame layout.
const Version uint32 = 1

// MaxBlobBytes bounds one blob: a blob is one frame's data.
const MaxBlobBytes = MaxFrameData

// Key is a blob's 64-bit content hash — the store's address space.
type Key uint64

func (k Key) String() string { return fmt.Sprintf("%016x", uint64(k)) }

// HashBytes computes a blob's key: FNV-1a over the bytes, then the
// splitmix64 finalizer. Raw FNV's weak tail avalanche makes near-identical
// blobs (checkpoints differ mostly in trailing counters) hash near each
// other; the finalizer restores full avalanche, the same fix the
// federation ring needed for its vnode labels.
func HashBytes(b []byte) Key {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return Key(mix64(h))
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// appendHeader writes the file header into buf.
func appendHeader(buf []byte) []byte { return AppendHeader(buf, fileMagic, Version) }

// appendFrame encodes one frame into buf.
func appendFrame(buf []byte, key Key, blob []byte) []byte {
	return AppendFrame(buf, 0, uint64(key), blob)
}

// frameRef locates one intact frame inside the file.
type frameRef struct {
	off int64 // offset of the length field
	n   int64 // total frame bytes (length field through CRC)
	key Key
}

// decodeFrame validates the frame at data[off:]. It returns the frame's
// key, the blob (aliasing data — callers copy if they retain), and the
// total frame size. ok is false for any damage DecodeFrame finds, for
// non-zero flags, and for a key that does not match the blob's content
// hash.
func decodeFrame(data []byte, off int64) (key Key, blob []byte, n int64, ok bool) {
	f, size, ok := DecodeFrame(data[off:])
	if !ok || f.Tag != 0 || HashBytes(f.Data) != Key(f.ID) {
		return 0, nil, 0, false
	}
	return Key(f.ID), f.Data, int64(size), true
}

// CorruptRegion is a byte range the scanner had to skip.
type CorruptRegion struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"`
}

// scanResult is one pass over a store image.
type scanResult struct {
	frames  []frameRef
	corrupt []CorruptRegion
	// torn is the offset where the scan gave up (no valid frame anywhere
	// after it), or -1 when the file parsed to EOF (possibly skipping
	// mid-file corrupt regions).
	torn int64
}

// scanFrames walks data (a full store image including header, already
// header-validated) from HeaderLen, resynchronizing past damage.
func scanFrames(data []byte) scanResult {
	res := scanResult{torn: -1}
	off := int64(HeaderLen)
	for off < int64(len(data)) {
		key, _, n, ok := decodeFrame(data, off)
		if ok {
			res.frames = append(res.frames, frameRef{off: off, n: n, key: key})
			off += n
			continue
		}
		// Damage at off: hunt forward for the next fully valid frame.
		next := resync(data, off+1)
		if next < 0 {
			res.torn = off
			return res
		}
		res.corrupt = append(res.corrupt, CorruptRegion{Off: off, Len: next - off})
		off = next
	}
	return res
}

// resync finds the first offset >= from where a fully valid frame decodes,
// or -1. Validity includes the content-hash check, so garbage that happens
// to carry a self-consistent CRC still cannot fool the scan.
func resync(data []byte, from int64) int64 {
	for off := from; off+FrameOverhead <= int64(len(data)); off++ {
		if _, _, _, ok := decodeFrame(data, off); ok {
			return off
		}
	}
	return -1
}

// checkHeader validates the file header, distinguishing "not a store at
// all" (error) from an empty-but-valid file.
func checkHeader(data []byte) error {
	v, err := CheckHeader(data, fileMagic, "checkpoint store")
	if err == nil && v != Version {
		err = fmt.Errorf("unsupported version %d (want %d)", v, Version)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// readAll reads the file's full content through the File seam.
func readAll(f File) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if size == 0 {
		return data, nil
	}
	n, err := f.ReadAt(data, 0)
	if int64(n) == size {
		return data, nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return nil, err
}
