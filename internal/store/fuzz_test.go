package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// hostileFrame hand-encodes one store frame from an arbitrary length
// field, flags byte, key, and blob — with a correct CRC — so the corpus
// can craft frames the write path would refuse: lying lengths the checksum
// cannot catch, nonzero flags, keys that do not hash-match their blob.
func hostileFrame(length uint32, flags byte, key Key, blob []byte) []byte {
	var buf bytes.Buffer
	var u [8]byte
	binary.LittleEndian.PutUint32(u[:4], length)
	buf.Write(u[:4])
	buf.WriteByte(flags)
	binary.LittleEndian.PutUint64(u[:], uint64(key))
	buf.Write(u[:])
	buf.Write(blob)
	binary.LittleEndian.PutUint32(u[:4], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(u[:4])
	return buf.Bytes()
}

// goodFrame encodes a frame exactly as Put would.
func goodFrame(blob []byte) []byte {
	return appendFrame(nil, HashBytes(blob), blob)
}

func storeImage(frames ...[]byte) []byte {
	buf := appendHeader(nil)
	for _, f := range frames {
		buf = append(buf, f...)
	}
	return buf
}

// FuzzOpenStore feeds the store decoder adversarial file images through
// both read paths — the read-only audit and a full Open on an in-memory
// filesystem. Whatever the input: no panic, no allocation sized from an
// unvalidated length, every surviving blob hash-verifies against its key,
// and two fixed points hold: re-encoding the intact frames yields a store
// that audits clean with identical content, and reopening after Open's
// torn-tail healing parses clean to the same frame set.
func FuzzOpenStore(f *testing.F) {
	blobA := bytes.Repeat([]byte{0xA1, 0x5C}, 40)
	blobB := []byte("checkpoint payload, the second")
	valid := storeImage(
		goodFrame(blobA),
		goodFrame(blobA), // replica: duplicate keys are legal
		goodFrame(blobB),
	)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("DEEPUMCS"))                 // header torn mid-version
	f.Add(storeImage())                       // header only
	f.Add([]byte("NOTSTORE\x01\x00\x00\x00")) // wrong magic
	f.Add(valid[:len(valid)-3])               // torn tail: truncated CRC
	f.Add(valid[:HeaderLen+2])                // torn tail: truncated length field
	flipped := bytes.Clone(valid)             // bit flip mid-blob: scanner must resync
	flipped[HeaderLen+20] ^= 0x08
	f.Add(flipped)
	// CRC-valid hostile frames: every defense must live in decodeFrame.
	f.Add(storeImage(hostileFrame(0xFFFFFFFF, 0, 1, nil)))                                             // length ~4 GiB
	f.Add(storeImage(hostileFrame(uint32(minPayload+MaxBlobBytes+1), 0, 1, nil)))                      // just over the cap
	f.Add(storeImage(hostileFrame(3, 0, 1, nil)))                                                      // length below flags+key
	f.Add(storeImage(hostileFrame(uint32(minPayload+3), 1, HashBytes([]byte("abc")), []byte("abc"))))  // nonzero flags
	f.Add(storeImage(hostileFrame(uint32(minPayload+3), 0, 12345, []byte("abc"))))                     // key != hash(blob)
	f.Add(storeImage(goodFrame(blobB), hostileFrame(uint32(minPayload), 0, 7, nil), goodFrame(blobA))) // damage between good frames

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			data = data[:1<<20]
		}
		rep, err := AuditBytes(data)
		if err != nil {
			// Errors are reserved for "not a store at all"; they must never
			// come with counted frames.
			if rep.Frames != 0 {
				t.Fatalf("AuditBytes returned %d frames alongside error %v", rep.Frames, err)
			}
			return
		}
		total := 0
		for _, n := range rep.Index {
			total += n
			if n < rep.MinReplicas || n > rep.MaxReplicas {
				t.Fatalf("replica count %d outside [%d, %d]", n, rep.MinReplicas, rep.MaxReplicas)
			}
		}
		if total != rep.Frames || len(rep.Index) != rep.Keys {
			t.Fatalf("audit bookkeeping: %d frames vs %d indexed, %d keys vs %d", rep.Frames, total, rep.Keys, len(rep.Index))
		}

		// Full Open on the same image: it must succeed whenever the audit
		// did, index the same keys, and every Get hash-verifies.
		fs := NewMemFS()
		fs.WriteFile("f.store", data)
		s, stats, err := Open("f.store", Options{FS: fs})
		if err != nil {
			t.Fatalf("audit passed but Open failed: %v", err)
		}
		if stats.Keys != rep.Keys || stats.Frames != rep.Frames {
			t.Fatalf("Open saw %d keys / %d frames, audit saw %d / %d", stats.Keys, stats.Frames, rep.Keys, rep.Frames)
		}
		var frames [][]byte
		for _, key := range s.Keys() {
			blob, err := s.Get(key)
			if err != nil {
				t.Fatalf("indexed key %s does not read: %v", key, err)
			}
			if len(blob) > MaxBlobBytes {
				t.Fatalf("key %s blob %d bytes exceeds MaxBlobBytes", key, len(blob))
			}
			if HashBytes(blob) != key {
				t.Fatalf("key %s does not match its blob's hash", key)
			}
			frames = append(frames, goodFrame(blob))
		}
		s.Close()

		// Fixed point 1: re-encoding the surviving content audits clean
		// with the same key set.
		again, err := AuditBytes(storeImage(frames...))
		if err != nil {
			t.Fatalf("re-encoded store does not audit: %v", err)
		}
		if !again.Clean() || again.Keys != rep.Keys {
			t.Fatalf("re-encoded store: clean=%v keys=%d, want clean with %d keys", again.Clean(), again.Keys, rep.Keys)
		}

		// Fixed point 2: Open healed the torn tail in place — the file now
		// audits with no torn offset and the same frame set (mid-file
		// corrupt regions persist by design; only the tail is cut).
		healed, _ := fs.ReadFile("f.store")
		hrep, err := AuditBytes(healed)
		if err != nil {
			t.Fatalf("healed store does not audit: %v", err)
		}
		if hrep.TornOffset != -1 {
			t.Fatalf("healed store still reports torn offset %d", hrep.TornOffset)
		}
		if hrep.Frames != rep.Frames || hrep.Keys != rep.Keys {
			t.Fatalf("healing changed content: %d/%d frames, %d/%d keys", hrep.Frames, rep.Frames, hrep.Keys, rep.Keys)
		}
	})
}
