package correlation

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// TestLegacyCheckpointLoad pins backward compatibility against a REAL
// pre-envelope blob: testdata/legacy_v1.ckpt was written by the v1
// (nameless) WriteCheckpoint before the policy seam existed, and is
// committed verbatim so no amount of refactoring can quietly regenerate
// it. Both readers must keep accepting it: ReadEnvelope decodes it as
// policy "correlation", and ReadCheckpoint yields the original tables.
func TestLegacyCheckpointLoad(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	name, payload, err := ReadEnvelope(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadEnvelope on v1 blob: %v", err)
	}
	if name != "correlation" {
		t.Fatalf("v1 blob decoded as policy %q, want correlation", name)
	}
	if len(payload) != len(raw)-12-4 { // minus magic+version header and CRC
		t.Fatalf("v1 payload is %d bytes, want %d", len(payload), len(raw)-16)
	}

	tbl, err := ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadCheckpoint on v1 blob: %v", err)
	}
	if cfg := tbl.cfg; cfg != (BlockTableConfig{NumRows: 8, Assoc: 2, NumSuccs: 4, NumLevels: 2}) {
		t.Fatalf("legacy config drifted: %+v", cfg)
	}
	ids := tbl.ExecIDs()
	if len(ids) != 4 || ids[0] != 1 || ids[3] != 4 {
		t.Fatalf("legacy block tables drifted: exec IDs %v, want [1 2 3 4]", ids)
	}

	// Re-encoding upgrades the frame to the current envelope (v2, with the
	// policy name) and the payload to the sparse layout of the same tables.
	var out bytes.Buffer
	if err := WriteCheckpoint(&out, tbl); err != nil {
		t.Fatal(err)
	}
	upgraded := out.Bytes()
	if v := binary.LittleEndian.Uint32(upgraded[8:]); v != EnvelopeVersion {
		t.Fatalf("re-encoded legacy checkpoint has frame version %d; want the v%d envelope", v, EnvelopeVersion)
	}
	name2, payload2, err := ReadEnvelope(bytes.NewReader(upgraded))
	if err != nil {
		t.Fatal(err)
	}
	if want := sparseOf(t, payload); name2 != "correlation" || !bytes.Equal(payload2, want) {
		t.Fatalf("upgrade changed the tables: policy %q, %d-byte payload; want the %d-byte sparse layout of the v1 payload",
			name2, len(payload2), len(want))
	}
}

// TestEnvelopeV2Fixture pins the current envelope format the same way.
// testdata/envelope_v2.ckpt is buildWarmTables' checkpoint in the dense
// payload layout, written before the envelope moved onto internal/store's
// header and CRC helpers; testdata/envelope_v2_sparse.ckpt is the same
// checkpoint in the sparse layout. Both must load, the sparse fixture's
// payload must be the dense one's with the empty rows dropped, and
// checkpointing buildWarmTables or the tables of either fixture must
// reproduce the sparse fixture byte for byte.
func TestEnvelopeV2Fixture(t *testing.T) {
	var raws, payloads [2][]byte
	tables := []*Tables{buildWarmTables()}
	for i, file := range []string{"envelope_v2.ckpt", "envelope_v2_sparse.ckpt"} {
		raw, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		name, payload, err := ReadEnvelope(bytes.NewReader(raw))
		if err != nil || name != "correlation" {
			t.Fatalf("ReadEnvelope on %s: policy %q, err %v", file, name, err)
		}
		raws[i], payloads[i] = raw, payload
		tbl, err := ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		tables = append(tables, tbl)
	}
	if !bytes.Equal(payloads[1], sparseOf(t, payloads[0])) {
		t.Fatal("the sparse fixture holds other tables than the dense one")
	}
	want := raws[1]
	for _, ts := range tables {
		var out bytes.Buffer
		if err := WriteCheckpoint(&out, ts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("re-encoded envelope differs from the sparse fixture (%d vs %d bytes)", out.Len(), len(want))
		}
	}
}

// sparseOf rewrites a dense correlation payload in the sparse layout by
// walking its bytes, not through DecodeTables: it drops each empty row's
// zero way count and writes each occupied row's index before its way count.
func sparseOf(t *testing.T, dense []byte) []byte {
	le := binary.LittleEndian
	pos := 0
	word := func() int {
		v := int(le.Uint32(dense[pos:]))
		pos += 4
		return v
	}
	rows, levels := int(le.Uint32(dense)), int(le.Uint32(dense[12:]))
	pos = 16
	for range word() { // exec entries
		word()
		n := word()
		pos += n * (HistoryLen + 1) * 4
	}
	out := append(le.AppendUint32(le.AppendUint32(nil, 0), sparseLayout), dense[:pos]...)
	nBlocks := word()
	out = le.AppendUint32(out, uint32(nBlocks))
	for range nBlocks {
		head := pos
		pos += 4 + 8 + 8 + 8*levels + 1 // id, Start, End, last, pendingStart
		out = append(out, dense[head:pos]...)
		countAt, occupied := len(out), 0
		out = append(out, 0, 0, 0, 0)
		for row := range rows {
			start := pos
			ways := word()
			if ways == 0 {
				continue
			}
			for range ways {
				pos += 8 // tag
				for range levels {
					n := word()
					pos += 8 * n
				}
			}
			out = le.AppendUint32(out, uint32(row))
			out = append(out, dense[start:pos]...)
			occupied++
		}
		le.PutUint32(out[countAt:], uint32(occupied))
	}
	if pos != len(dense) {
		t.Fatalf("dense payload has %d bytes past its last table", len(dense)-pos)
	}
	return out
}
