package correlation

import (
	"bytes"
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
	// policy name) while keeping the payload decodable and equivalent.
	var out bytes.Buffer
	if err := WriteCheckpoint(&out, tbl); err != nil {
		t.Fatal(err)
	}
	upgraded := out.Bytes()
	if bytes.Equal(upgraded, raw) {
		t.Fatal("re-encoded legacy checkpoint kept the v1 frame; want v2 envelope")
	}
	name2, payload2, err := ReadEnvelope(bytes.NewReader(upgraded))
	if err != nil {
		t.Fatal(err)
	}
	if name2 != "correlation" || !bytes.Equal(payload2, payload) {
		t.Fatalf("upgrade changed the payload: policy %q, %d vs %d bytes", name2, len(payload2), len(payload))
	}
}

// TestEnvelopeV2Fixture pins the current envelope format the same way:
// testdata/envelope_v2.ckpt is buildWarmTables' checkpoint as written before
// the envelope moved onto internal/store's header and CRC helpers. It must
// load, and checkpointing the same tables must reproduce it byte for byte.
func TestEnvelopeV2Fixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "envelope_v2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if name, _, err := ReadEnvelope(bytes.NewReader(raw)); err != nil || name != "correlation" {
		t.Fatalf("ReadEnvelope on v2 fixture: policy %q, err %v", name, err)
	}
	tbl, err := ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []*Tables{buildWarmTables(), tbl} {
		var out bytes.Buffer
		if err := WriteCheckpoint(&out, ts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Fatalf("re-encoded envelope differs from the fixture (%d vs %d bytes)", out.Len(), len(raw))
		}
	}
}
