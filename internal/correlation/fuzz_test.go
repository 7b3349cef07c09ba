package correlation

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// envelope wraps a raw payload in a syntactically valid checkpoint frame
// (magic + version + payload + correct CRC). This is what a malicious or
// corrupted-but-CRC-valid stream looks like: the checksum passes, so every
// defense must live in the payload decoder itself.
func envelope(payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(checkpointMagic[:])
	buf.Write(u32le(CheckpointVersion))
	buf.Write(payload)
	buf.Write(u32le(crc32.ChecksumIEEE(buf.Bytes())))
	return buf.Bytes()
}

// u32le / i32le build little-endian fields for crafted payloads.
func u32le(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

// envelopeV2 builds a CRC-valid current-format frame with an arbitrary
// (possibly hostile) name-length field, name, and payload.
func envelopeV2(nameLen uint32, name string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(checkpointMagic[:])
	buf.Write(u32le(EnvelopeVersion))
	buf.Write(u32le(nameLen))
	buf.WriteString(name)
	buf.Write(payload)
	buf.Write(u32le(crc32.ChecksumIEEE(buf.Bytes())))
	return buf.Bytes()
}

// u64le builds a little-endian 64-bit field for crafted payloads.
func u64le(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// singleRowPayload is a dense correlation payload whose one block table, of
// one row and one level, holds a single way with a single successor, under
// the given associativity and successor count.
func singleRowPayload(assoc, succs uint32) []byte {
	return bytes.Join([][]byte{
		u32le(1), u32le(assoc), u32le(succs), u32le(1), // cfg rows/assoc/succs/levels
		u32le(0),           // no exec entries
		u32le(1), u32le(7), // one block table, id 7
		u64le(10), u64le(11), u64le(11), {0}, // start, end, last, pending
		u32le(1), u64le(10), u32le(1), u64le(11), // row 0: one way, tag 10, successor 11
	}, nil)
}

// sparsePayload is a sparse correlation payload whose one block table, of
// one level, declares numRows rows, assoc ways and succs successors, and
// lists count occupied rows; rows are the row records that follow.
// sparsePayload(1, assoc, succs, 1, sparseRow(0, 1)) is the sparse twin of
// singleRowPayload(assoc, succs).
func sparsePayload(numRows, assoc, succs, count uint32, rows ...[]byte) []byte {
	return bytes.Join(append([][]byte{
		u32le(0), u32le(sparseLayout), // sparse layout
		u32le(numRows), u32le(assoc), u32le(succs), u32le(1), // cfg rows/assoc/succs/levels
		u32le(0),           // no exec entries
		u32le(1), u32le(7), // one block table, id 7
		u64le(10), u64le(11), u64le(11), {0}, // start, end, last, pending
		u32le(count),
	}, rows...), nil)
}

// sparseRow is the record of occupied row row with ways ways, each with
// tag 10 and the single successor 11.
func sparseRow(row, ways uint32) []byte {
	rec := append(u32le(row), u32le(ways)...)
	for range ways {
		rec = bytes.Join([][]byte{rec, u64le(10), u32le(1), u64le(11)}, nil)
	}
	return rec
}

// hostilePayload is a payload that lies, with the words its decode error
// must name.
type hostilePayload struct {
	name, wantSub string
	payload       []byte
}

// hostileSparsePayloads are sparse payloads whose row records or geometry
// lie.
func hostileSparsePayloads() []hostilePayload {
	unknownLayout := sparsePayload(4, 2, 4, 1, sparseRow(0, 1))
	binary.LittleEndian.PutUint32(unknownLayout[4:], sparseLayout+1)
	return []hostilePayload{
		{"unknown-layout", "layout", unknownLayout},
		{"row-repeated", "listed after", sparsePayload(4, 2, 4, 2, sparseRow(1, 1), sparseRow(1, 1))},
		{"rows-out-of-order", "listed after", sparsePayload(4, 2, 4, 2, sparseRow(2, 1), sparseRow(1, 1))},
		{"row-at-NumRows", "listed after", sparsePayload(4, 2, 4, 1, sparseRow(4, 1))},
		{"row-without-ways", "no ways", sparsePayload(4, 2, 4, 2, sparseRow(0, 0), sparseRow(1, 2))},
		{"ways-over-assoc", "assoc", sparsePayload(4, 2, 4, 1, sparseRow(0, 3))},
		{"row-count-beyond-stream", "exceeds remaining", sparsePayload(4, 2, 4, 0x7fffffff, sparseRow(0, 1))},
		{"NumRows-past-bound", "rows", sparsePayload(maxNumRows+1, 2, 4, 1, sparseRow(maxNumRows, 1))},
	}
}

// TestSparseDecodeRejectsHostileRows: the sparse reader rejects every
// lie of hostileSparsePayloads with an error that names it, and accepts
// the same payloads told truthfully.
func TestSparseDecodeRejectsHostileRows(t *testing.T) {
	for _, c := range hostileSparsePayloads() {
		if _, err := DecodeTables(c.payload); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err %v, want one naming %q", c.name, err, c.wantSub)
		}
	}
	for _, payload := range [][]byte{
		sparsePayload(4, 2, 4, 2, sparseRow(1, 1), sparseRow(3, 2)),
		sparsePayload(maxNumRows, 2, 4, 1, sparseRow(maxNumRows-1, 1)),
	} {
		tbl, err := DecodeTables(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeTables(tbl), payload) {
			t.Fatal("accepted sparse payload re-encodes differently")
		}
	}
}

// FuzzReadCheckpoint feeds ReadCheckpoint adversarial streams. Whatever the
// input — truncated, bit-flipped, or CRC-valid with hostile length fields —
// the decoder must either return working tables or an error: never panic,
// and never size an allocation from an unvalidated count (a hostile count
// claiming more elements than the stream has bytes must be rejected before
// the make()).
func FuzzReadCheckpoint(f *testing.F) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, buildWarmTables()); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("DEEPUMCK"))
	f.Add(valid[:len(valid)/2])   // truncated mid-payload
	f.Add(valid[:len(valid)-1])   // truncated CRC
	flipped := bytes.Clone(valid) // bit flip in the payload
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	// CRC-valid hostile payloads: the length fields lie.
	f.Add(envelope(nil))                // empty payload: config truncated
	f.Add(envelope(bytes.Join([][]byte{ // NumRows = 2^31-1: block table would be ~48 GB
		u32le(0x7fffffff), u32le(1), u32le(1), u32le(1), // cfg rows/assoc/succs/levels
		u32le(0),           // no exec entries
		u32le(1), u32le(7), // one block table, id 7
	}, nil)))
	f.Add(envelope(bytes.Join([][]byte{ // NumLevels huge: per-entry allocation bomb
		u32le(1), u32le(1), u32le(1), u32le(0x7fffffff),
		u32le(0),
		u32le(1), u32le(7),
	}, nil)))
	f.Add(envelope(bytes.Join([][]byte{ // exec record count far beyond the stream
		u32le(1), u32le(1), u32le(1), u32le(1),
		u32le(1), u32le(3), u32le(0x40000000), // one exec id with 2^30 records
	}, nil)))
	f.Add(envelope(bytes.Join([][]byte{ // way count beyond the stream
		u32le(1), u32le(0x7fffffff), u32le(1), u32le(1),
		u32le(0),
		u32le(1), u32le(7),
		make([]byte, 8+8+8+1), // start/end/last/pending
		u32le(0x7ffffff0),     // nWays
	}, nil)))
	// One used row with one way and one successor under a geometry that
	// declares 2^31-1 ways or successors per row: a layout reserving the
	// declared geometry per row would ask for gigabytes.
	f.Add(envelope(singleRowPayload(0x7fffffff, 1)))
	f.Add(envelope(singleRowPayload(1, 0x7fffffff)))
	// Current (v2, named) envelopes: a valid frame, and hostile name fields.
	// The decoder must reject a bad name BEFORE touching the payload; the
	// correlation reader must reject well-formed frames naming another
	// policy rather than misparse their payloads as tables.
	tablesPayload := EncodeTables(buildWarmTables())
	f.Add(envelopeV2(uint32(len("correlation")), "correlation", tablesPayload))
	f.Add(envelopeV2(uint32(len("learned")), "learned", []byte{1, 2, 3}))
	f.Add(envelopeV2(0, "", tablesPayload))                     // zero-length name
	longName := string(bytes.Repeat([]byte{'p'}, 65))           // one over the cap
	f.Add(envelopeV2(65, longName, nil))                        //
	f.Add(envelopeV2(11, "corr\x00lation", tablesPayload))      // NUL inside the name
	f.Add(envelopeV2(4, "tab\tx", tablesPayload))               // control char
	f.Add(envelopeV2(0xffffffff, "correlation", tablesPayload)) // nameLen lies huge
	f.Add(envelopeV2(64, "correlation", tablesPayload))         // nameLen overruns into payload
	f.Add(envelope(nil)[:13])                                   // v1 truncated inside version field
	v2 := envelopeV2(uint32(len("correlation")), "correlation", tablesPayload)
	f.Add(v2[:14]) // v2 truncated before the name length completes
	// The committed dense v2 checkpoint, which must load, and sparse
	// payloads whose row records lie, which must not.
	dense, err := os.ReadFile(filepath.Join("testdata", "envelope_v2.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dense)
	for _, c := range hostileSparsePayloads() {
		f.Add(envelope(c.payload))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The input size bounds every legitimate allocation; anything the
		// decoder accepts must also re-encode and re-decode identically.
		if len(data) > 1<<20 {
			data = data[:1<<20]
		}
		tbl, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if tbl != nil {
				t.Fatal("ReadCheckpoint returned tables alongside an error")
			}
			return
		}
		var out bytes.Buffer
		if err := WriteCheckpoint(&out, tbl); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		again, err := ReadCheckpoint(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if again.cfg != tbl.cfg {
			t.Fatalf("config drifted across roundtrip: %+v vs %+v", again.cfg, tbl.cfg)
		}
		var twice bytes.Buffer
		if err := WriteCheckpoint(&twice, again); err != nil || !bytes.Equal(twice.Bytes(), out.Bytes()) {
			t.Fatalf("re-decoded checkpoint re-encodes differently (err %v)", err)
		}
	})
}
