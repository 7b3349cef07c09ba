package correlation

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"

	"deepum/internal/um"
)

// buildWarmTables populates a table set the way a few training iterations
// would: execution records with several histories per kernel (exercising MRU
// order and dedup), multi-level block tables with successor promotion, and a
// cursor reset pending its next Start — every piece of state the encoding
// must carry.
func buildWarmTables() *Tables {
	cfg := BlockTableConfig{NumRows: 64, Assoc: 2, NumSuccs: 4, NumLevels: 2}
	ts := NewTables(cfg)
	ts.Exec.Record(0, [3]ExecID{NoExec, NoExec, NoExec}, 1)
	ts.Exec.Record(1, [3]ExecID{NoExec, NoExec, 0}, 2)
	ts.Exec.Record(1, [3]ExecID{7, 8, 9}, 3)
	ts.Exec.Record(1, [3]ExecID{NoExec, NoExec, 0}, 2) // dedup: MRU re-promotion

	bt0 := ts.Block(0)
	for _, b := range []um.BlockID{100, 101, 102, 103} {
		bt0.RecordMiss(b)
	}
	bt0.ResetCursor()
	for _, b := range []um.BlockID{100, 110, 102} { // 100->110 becomes MRU over 100->101
		bt0.RecordMiss(b)
	}
	bt1 := ts.Block(1)
	for _, b := range []um.BlockID{200, 201, 202} {
		bt1.RecordMiss(b)
	}
	bt1.ResetCursor() // leaves the cursor pending its next Start
	return ts
}

// TestCheckpointRoundtripLossless: Write -> Read reproduces the tables
// byte-for-byte — re-encoding the restored set yields the identical stream,
// which (because the encoding is deterministic and covers MRU order, the
// miss-history cursor, and the pending-Start flag) proves nothing was lost.
func TestCheckpointRoundtripLossless(t *testing.T) {
	ts := buildWarmTables()
	var a bytes.Buffer
	if err := WriteCheckpoint(&a, ts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.cfg != ts.cfg {
		t.Fatalf("config changed across roundtrip: %+v vs %+v", got.cfg, ts.cfg)
	}
	var b bytes.Buffer
	if err := WriteCheckpoint(&b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("re-encoded checkpoint differs: %d vs %d bytes", a.Len(), b.Len())
	}
	if got.Exec.Records() != ts.Exec.Records() || got.Exec.Entries() != ts.Exec.Entries() {
		t.Fatalf("exec table shape changed: %d/%d records, %d/%d entries",
			got.Exec.Records(), ts.Exec.Records(), got.Exec.Entries(), ts.Exec.Entries())
	}
}

// TestCheckpointChainEquivalence: the restored tables drive the chain cursor
// to exactly the prefetch sequence the originals would — the property resume
// actually needs.
func TestCheckpointChainEquivalence(t *testing.T) {
	ts := buildWarmTables()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hist := [3]ExecID{NoExec, NoExec, NoExec}
	for _, seed := range []struct {
		exec ExecID
		blk  um.BlockID
	}{{0, 100}, {0, 102}, {1, 200}} {
		var oc, rc ChainCursor
		oc.Reset(ts, seed.exec, hist, seed.blk)
		rc.Reset(got, seed.exec, hist, seed.blk)
		for step := 0; step < 32; step++ {
			ob, oe := oc.Next(nil)
			rb, re := rc.Next(nil)
			if ob != rb || oe != re {
				t.Fatalf("chain from (%d,%d) diverges at step %d: original (%d,%d), restored (%d,%d)",
					seed.exec, seed.blk, step, ob, oe, rb, re)
			}
			if ob == um.NoBlock {
				break
			}
		}
	}
}

// TestCheckpointDeterministic: encoding the same tables twice yields
// identical bytes (maps are serialized in sorted order).
func TestCheckpointDeterministic(t *testing.T) {
	ts := buildWarmTables()
	var a, b bytes.Buffer
	if err := WriteCheckpoint(&a, ts); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(&b, ts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same tables encoded to different bytes")
	}
}

func TestCheckpointEmptyTables(t *testing.T) {
	ts := NewTables(DefaultBlockTableConfig())
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBlockTables() != 0 || got.Exec.Entries() != 0 {
		t.Fatalf("empty tables came back non-empty: %d block tables, %d exec entries",
			got.NumBlockTables(), got.Exec.Entries())
	}
	if WriteCheckpoint(&buf, nil) == nil {
		t.Fatal("nil tables accepted")
	}
}

// reseal recomputes the trailing CRC over a tampered body so corruption
// deeper than the checksum can be tested in isolation.
func reseal(body []byte) []byte {
	out := append([]byte(nil), body...)
	sum := crc32.ChecksumIEEE(out)
	return append(out, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

// TestCheckpointRejectsCorruption: every layer of the envelope is verified —
// truncation, bit flips (CRC), wrong magic, wrong version, trailing garbage —
// with a distinct error, and none of them panics.
func TestCheckpointRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, buildWarmTables()); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	body := stream[:len(stream)-4]

	cases := []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"empty", nil, "truncated"},
		{"short", stream[:10], "truncated"},
		{"bit-flip", flipByte(stream, len(stream)/2), "crc mismatch"},
		{"crc-zeroed", append(append([]byte(nil), body...), 0, 0, 0, 0), "crc mismatch"},
		{"bad-magic", reseal(flipByte(body, 0)), "bad magic"},
		{"bad-version", reseal(flipByte(body, 8)), "unsupported checkpoint version"},
		{"trailing-garbage", reseal(append(append([]byte(nil), body...), 0xAA)), ""},
		{"truncated-payload", reseal(body[:len(body)-3]), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ReadCheckpoint(bytes.NewReader(c.data))
			if err == nil {
				t.Fatalf("corrupt checkpoint accepted (tables: %v)", got != nil)
			}
			if c.wantSub != "" && !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// TestDecodeBoundsRowGeometry: a decoded table reserves its declared
// geometry for each used row, so a geometry past maxGroupSlots is rejected
// rather than allocated, while the same single row under the paper's
// geometry, or one at the bound, decodes. Each verdict holds for the dense
// single-row payload and for its hand-built sparse twin, and an accepted
// payload of either layout re-encodes to the twin.
func TestDecodeBoundsRowGeometry(t *testing.T) {
	for _, g := range []struct {
		assoc, succs uint32
		ok           bool
	}{
		{2, 4, true},
		{maxGroupSlots / 2, 1, true},
		{maxGroupSlots/2 + 1, 1, false},
		{1, maxGroupSlots - 1, true},
		{1, maxGroupSlots, false},
		{0x7fffffff, 1, false},
		{1, 0x7fffffff, false},
	} {
		twin := sparsePayload(1, g.assoc, g.succs, 1, sparseRow(0, 1))
		for layout, payload := range map[string][]byte{"dense": singleRowPayload(g.assoc, g.succs), "sparse": twin} {
			tbl, err := DecodeTables(payload)
			if (err == nil) != g.ok {
				t.Fatalf("%s, assoc %d, %d successors: err %v, want ok=%v", layout, g.assoc, g.succs, err, g.ok)
			}
			if err == nil && !bytes.Equal(EncodeTables(tbl), twin) {
				t.Fatalf("%s, assoc %d, %d successors: re-encoded payload differs from the sparse twin", layout, g.assoc, g.succs)
			}
		}
	}
}
