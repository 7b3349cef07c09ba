package correlation

// Warm-state checkpointing (DeepUM run-lifecycle supervision). The
// correlation tables are the only state worth persisting across runs: UM
// residency and link occupancy are rebuilt by the first iteration anyway,
// but the tables take a full warm-up epoch to learn (§3.2), so a resumed
// run that starts cold repays the entire warm-up cost. The encoding below
// serializes the execution-ID table and every UM-block table losslessly —
// including MRU order, the miss-history cursor, and the pending-Start flag —
// so a resumed run reproduces the prefetch decisions of an uninterrupted
// one from its first post-resume iteration.
//
// Format (little-endian throughout; the header and the CRC trailer are
// internal/store's frame codec):
//
//	magic   [8]byte  "DEEPUMCK"
//	version uint32   (currently 2)
//	nameLen uint32   (v2 only; 1..64)
//	name    []byte   (v2 only; printable ASCII policy name)
//	payload          (policy-defined; for "correlation" see below)
//	crc32   uint32   IEEE, over everything preceding it
//
// Version 1 streams (pre-policy checkpoints) carry no name field; readers
// treat them as policy "correlation", so old blobs keep loading. Everything
// in the correlation payload is written in deterministic order (maps sorted
// by ExecID, rows in row order, ways and successor lists in MRU order), so
// encoding the same tables twice yields identical bytes — which the tests
// exploit.
//
// The correlation payload has two layouts. EncodeTables writes the sparse
// one; DecodeTables reads both, so checkpoints written before the sparse
// layout still resume:
//
//	zero    uint32   0 (sparse only)
//	layout  uint32   1 (sparse only)
//	config  4 × u32  NumRows, Assoc, NumSuccs, NumLevels
//	exec    u32 count, then per ExecID: id, record count, records
//	blocks  u32 count, then per ExecID: id i32, Start i64, End i64,
//	                 last [NumLevels]i64, pendingStart u8, rows
//
// A dense table's rows are NumRows way counts, one per row, each followed
// by its ways; an empty row is a zero count. A sparse table's rows are the
// count of occupied rows, then each one's row index and way count (1 to
// Assoc) and ways, in row order. A way is its tag i64 and, per level, a
// successor count u32 and the successors i64. A dense payload opens with
// NumRows, which is at least 1, so a leading zero word marks the sparse
// layout.

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"deepum/internal/store"
	"deepum/internal/um"
)

// checkpointMagic identifies a DeepUM correlation checkpoint stream.
var checkpointMagic = [8]byte{'D', 'E', 'E', 'P', 'U', 'M', 'C', 'K'}

// CheckpointVersion is the legacy (nameless) encoding version; readers
// still accept it and treat it as policy "correlation".
const CheckpointVersion uint32 = 1

// EnvelopeVersion is the current encoding version: the envelope carries the
// name of the prefetch policy whose warm state the payload holds.
const EnvelopeVersion uint32 = 2

// maxPolicyNameLen bounds the envelope's policy-name field; the registry
// never holds names anywhere near it, so anything longer is hostile input.
const maxPolicyNameLen = 64

// validPolicyName reports whether name fits the envelope contract:
// non-empty, bounded, printable ASCII with no spaces.
func validPolicyName(name string) bool {
	if len(name) == 0 || len(name) > maxPolicyNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; c <= 0x20 || c >= 0x7f {
			return false
		}
	}
	return true
}

// WriteEnvelope frames an arbitrary policy payload: magic, version,
// policy name, payload, CRC32 over everything preceding it.
func WriteEnvelope(w io.Writer, policyName string, payload []byte) error {
	buf, err := AppendEnvelope(nil, policyName, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendEnvelope appends the WriteEnvelope frame of payload to dst,
// growing dst at most once.
func AppendEnvelope(dst []byte, policyName string, payload []byte) ([]byte, error) {
	if !validPolicyName(policyName) {
		return dst, fmt.Errorf("correlation: invalid policy name %q in checkpoint envelope", policyName)
	}
	dst = slices.Grow(dst, store.HeaderLen+4+len(policyName)+len(payload)+4)
	start := len(dst)
	dst = store.AppendHeader(dst, checkpointMagic, EnvelopeVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(policyName)))
	dst = append(dst, policyName...)
	dst = append(dst, payload...)
	return store.AppendCRC(dst, start), nil
}

// ReadEnvelope verifies magic, version, and checksum and returns the policy
// name plus its opaque payload. Version-1 streams (written before the
// policy seam existed) have no name field and decode as "correlation".
func ReadEnvelope(r io.Reader) (policyName string, payload []byte, err error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return "", nil, fmt.Errorf("correlation: reading checkpoint: %w", err)
	}
	if len(raw) < store.HeaderLen+4 {
		return "", nil, fmt.Errorf("correlation: checkpoint truncated (%d bytes)", len(raw))
	}
	body, err := store.CheckCRC(raw)
	if err != nil {
		return "", nil, fmt.Errorf("correlation: checkpoint corrupt: %w", err)
	}
	v, err := store.CheckHeader(body, checkpointMagic, "checkpoint")
	if err != nil {
		return "", nil, fmt.Errorf("correlation: %w", err)
	}
	switch rest := body[store.HeaderLen:]; v {
	case CheckpointVersion:
		return "correlation", rest, nil
	case EnvelopeVersion:
		if len(rest) < 4 {
			return "", nil, fmt.Errorf("correlation: checkpoint truncated before policy name")
		}
		nameLen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if nameLen == 0 || nameLen > maxPolicyNameLen || int(nameLen) > len(rest) {
			return "", nil, fmt.Errorf("correlation: checkpoint policy-name length %d invalid (remaining %d bytes)", nameLen, len(rest))
		}
		name := string(rest[:nameLen])
		if !validPolicyName(name) {
			return "", nil, fmt.Errorf("correlation: checkpoint policy name %q is not printable ASCII", name)
		}
		return name, rest[nameLen:], nil
	default:
		return "", nil, fmt.Errorf("correlation: unsupported checkpoint version %d (want %d or %d)", v, CheckpointVersion, EnvelopeVersion)
	}
}

// EncodeTables serializes correlation tables to their deterministic
// checkpoint payload (the body a WriteEnvelope frame wraps). The payload is
// sized exactly before it is written, so its buffer is allocated once.
func EncodeTables(t *Tables) []byte {
	return appendPayload(make([]byte, 0, payloadLen(t)), t)
}

// DecodeTables rebuilds tables from a payload in either layout: sparse, as
// EncodeTables writes it, or dense, as checkpoints written before the
// sparse layout hold it. It returns fresh tables that share nothing with
// the input slice.
func DecodeTables(payload []byte) (*Tables, error) {
	d := &decoder{buf: payload}
	t := decodePayload(d)
	if d.err != nil {
		return nil, fmt.Errorf("correlation: decoding checkpoint: %w", d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("correlation: checkpoint has %d trailing bytes", len(d.buf))
	}
	return t, nil
}

// WriteCheckpoint serializes t (versioned, CRC32-checksummed) to w under
// the "correlation" policy name.
func WriteCheckpoint(w io.Writer, t *Tables) error {
	if t == nil {
		return fmt.Errorf("correlation: cannot checkpoint nil tables")
	}
	return WriteEnvelope(w, "correlation", EncodeTables(t))
}

// ReadCheckpoint decodes a correlation checkpoint — a v2 envelope carrying
// policy "correlation", or any legacy v1 stream. Checkpoints written under
// a different policy are rejected; use ReadEnvelope to dispatch on name.
func ReadCheckpoint(r io.Reader) (*Tables, error) {
	name, payload, err := ReadEnvelope(r)
	if err != nil {
		return nil, err
	}
	if name != "correlation" {
		return nil, fmt.Errorf("correlation: checkpoint holds policy %q state, not correlation tables", name)
	}
	return DecodeTables(payload)
}

// maxGroupSlots bounds the block slots one occupied row of a decoded table
// reserves: Assoc tags plus Assoc*NumLevels*NumSuccs successors. A decoded
// row that holds a way costs at least 16 stream bytes, so the bound keeps
// what DecodeTables allocates within a constant factor of what it reads,
// whatever the declared geometry. Table 6's largest row (4 ways of 4
// successors) takes 20 slots.
const maxGroupSlots = 1 << 10

// maxNumRows bounds a decoded table's NumRows in either layout. An empty
// row costs no bytes in a sparse payload, so the stream does not bound it.
// The paper's tables have 2,048 rows (Table 6's largest 4,096);
// page-granularity history, the alternative §4.2 rejects, would need 512
// times that.
const maxNumRows = 512 * 2048

// sparseLayout is the layout number that follows a sparse payload's
// leading zero word.
const sparseLayout uint32 = 1

// --- encoding ---

// payloadLen is the exact length appendPayload writes for t.
func payloadLen(t *Tables) int {
	n := 4 + 4 + 4*4 + 4 + 4 // layout, block-table config, exec-entry count, block-table count
	for _, e := range t.Exec.entries {
		n += 4 + 4 + len(e.recs)*(HistoryLen+1)*4
	}
	for _, bt := range t.blocks {
		levels := bt.cfg.NumLevels
		n += 4 + 8 + 8 + 8*len(bt.last) + 1 + 4
		for g, ways := range bt.nways {
			n += 4 + 4 + 8*int(ways)
			first := g * bt.cfg.Assoc * levels
			for _, c := range bt.nsuccs[first : first+int(ways)*levels] {
				n += 4 + 8*int(c)
			}
		}
	}
	return n
}

func appendPayload(buf []byte, t *Tables) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, 0)
	buf = le.AppendUint32(buf, sparseLayout)
	// Block-table configuration (4 x i32).
	buf = le.AppendUint32(buf, uint32(t.cfg.NumRows))
	buf = le.AppendUint32(buf, uint32(t.cfg.Assoc))
	buf = le.AppendUint32(buf, uint32(t.cfg.NumSuccs))
	buf = le.AppendUint32(buf, uint32(t.cfg.NumLevels))

	// Execution-ID table: entries sorted by ID, records in MRU order.
	ids := make([]ExecID, 0, len(t.Exec.entries))
	for id := range t.Exec.entries {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf = le.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		recs := t.Exec.entries[id].recs
		buf = le.AppendUint32(buf, uint32(id))
		buf = le.AppendUint32(buf, uint32(len(recs)))
		for _, r := range recs {
			for _, p := range r.Prev {
				buf = le.AppendUint32(buf, uint32(p))
			}
			buf = le.AppendUint32(buf, uint32(r.Next))
		}
	}

	// UM-block tables, sorted by execution ID.
	bids := t.ExecIDs()
	buf = le.AppendUint32(buf, uint32(len(bids)))
	var rows []rowSlot
	for _, id := range bids {
		bt := t.blocks[id]
		buf = le.AppendUint32(buf, uint32(id))
		buf = le.AppendUint64(buf, uint64(bt.Start))
		buf = le.AppendUint64(buf, uint64(bt.End))
		for _, b := range bt.last {
			buf = le.AppendUint64(buf, uint64(b))
		}
		if bt.pendingStart {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		// Only the occupied rows, in row order. Every group holds a way:
		// find fills the way it adds a group for.
		rows = bt.sortedRows(rows[:0])
		buf = le.AppendUint32(buf, uint32(len(rows)))
		for _, rs := range rows {
			buf = le.AppendUint32(buf, uint32(rs.row))
			buf = appendGroup(buf, bt, rs.group)
		}
	}
	return buf
}

// appendGroup writes group g of bt: its way count, then each way's tag and
// successor lists in MRU order.
func appendGroup(buf []byte, bt *BlockTable, g int) []byte {
	le := binary.LittleEndian
	ways, levels, stride := int(bt.nways[g]), bt.cfg.NumLevels, bt.cfg.NumSuccs
	first := g * bt.cfg.Assoc
	buf = le.AppendUint32(buf, uint32(ways))
	for way := first; way < first+ways; way++ {
		buf = le.AppendUint64(buf, uint64(bt.tags[way]))
		for i := way * levels; i < (way+1)*levels; i++ {
			n := int(bt.nsuccs[i])
			buf = le.AppendUint32(buf, uint32(n))
			for _, s := range bt.succs[i*stride:][:n] {
				buf = le.AppendUint64(buf, uint64(s))
			}
		}
	}
	return buf
}

func decodePayload(d *decoder) *Tables {
	// A sparse payload opens with a zero word, a dense one with NumRows.
	sparse := len(d.buf) >= 4 && binary.LittleEndian.Uint32(d.buf) == 0
	if sparse {
		d.take(4)
		if layout := d.u32(); d.err == nil && layout != sparseLayout {
			d.fail("unknown payload layout %d", layout)
		}
	}
	cfg := BlockTableConfig{
		NumRows:   int(d.i32()),
		Assoc:     int(d.i32()),
		NumSuccs:  int(d.i32()),
		NumLevels: int(d.i32()),
	}
	if d.err != nil {
		return nil
	}
	if cfg.NumRows < 1 || cfg.Assoc < 1 || cfg.NumSuccs < 1 || cfg.NumLevels < 1 {
		d.fail("invalid block-table config %+v", cfg)
		return nil
	}
	if cfg.NumRows > maxNumRows {
		d.fail("block-table config %+v has more than %d rows", cfg, maxNumRows)
		return nil
	}
	if cfg.Assoc > maxGroupSlots || cfg.NumSuccs > maxGroupSlots || cfg.NumLevels > maxGroupSlots ||
		cfg.Assoc*(1+cfg.NumLevels*cfg.NumSuccs) > maxGroupSlots {
		d.fail("block-table config %+v reserves more than %d slots per row", cfg, maxGroupSlots)
		return nil
	}
	t := NewTables(cfg)

	// Execution-ID table. Records arrive in MRU order; appending preserves it.
	nExec := int(d.u32())
	for i := 0; i < nExec && d.err == nil; i++ {
		id := ExecID(d.i32())
		nRecs := int(d.u32())
		if d.err != nil || !d.fits(nRecs, (HistoryLen+1)*4) {
			return nil
		}
		recs := make([]execRecord, nRecs)
		for j := range recs {
			r := &recs[j]
			for k := range r.Prev {
				r.Prev[k] = ExecID(d.i32())
			}
			r.Next = ExecID(d.i32())
		}
		t.Exec.entries[id] = &execEntry{recs: recs}
		t.Exec.records += int64(nRecs)
	}

	// UM-block tables.
	nBlocks := int(d.u32())
	for i := 0; i < nBlocks && d.err == nil; i++ {
		id := ExecID(d.i32())
		// Every decoded block table spends 8 bytes per level (the
		// last-miss block), and a dense one 4 per row (the way count), so
		// a config whose dimensions outrun the remaining stream is
		// corrupt; reject it BEFORE NewBlockTable sizes its miss history
		// from a hostile NumLevels. A row takes memory only once a way is
		// read for it.
		if !d.fits(cfg.NumLevels, 8) || !sparse && !d.fits(cfg.NumRows, 4) {
			return nil
		}
		bt := NewBlockTable(cfg)
		bt.Start = um.BlockID(d.i64())
		bt.End = um.BlockID(d.i64())
		for l := range bt.last {
			bt.last[l] = um.BlockID(d.i64())
		}
		bt.pendingStart = d.u8() != 0
		// A first pass over a copy of the stream checks the rows and counts
		// those that hold a way, so the slabs are allocated once, at their
		// final size.
		scan := *d
		groups := decodeRows(&scan, bt, sparse, false)
		if scan.err != nil {
			d.err = scan.err
			return nil
		}
		bt.reserve(groups)
		decodeRows(d, bt, sparse, true)
		t.blocks[id] = bt
	}
	if d.err != nil {
		return nil
	}
	return t
}

// decodeRows reads bt's rows in either layout and returns how many hold a
// way. Without fill it only checks them, allocating nothing; with fill it
// also gives each such row a group and copies in its ways.
func decodeRows(d *decoder, bt *BlockTable, sparse, fill bool) (groups int) {
	cfg := bt.cfg
	if sparse {
		n := int(d.u32())
		// A listed row takes its index, its way count and at least one way.
		if !d.fits(n, 4+4+8+4*cfg.NumLevels) {
			return 0
		}
		for prev := -1; groups < n && d.err == nil; groups++ {
			row := int(d.u32())
			nWays := int(d.u32())
			if d.err != nil {
				return groups
			}
			if row <= prev || row >= cfg.NumRows {
				d.fail("row %d listed after row %d (%d rows)", row, prev, cfg.NumRows)
				return groups
			}
			if nWays == 0 {
				d.fail("row %d listed with no ways", row)
				return groups
			}
			prev = row
			decodeGroup(d, bt, row, nWays, fill)
		}
		return groups
	}
	for row := 0; row < cfg.NumRows && d.err == nil; row++ {
		// Most rows are empty, and an empty row takes no group: step over
		// a run of zero way counts at once.
		if n := zeroWords(d.buf, cfg.NumRows-row); n > 0 {
			d.buf = d.buf[4*n:]
			row += n - 1
			continue
		}
		decodeGroup(d, bt, row, int(d.u32()), fill)
		groups++
	}
	return groups
}

// decodeGroup reads the nWays ways of row. Without fill it only checks
// them; with fill it also gives the row a group and copies them in.
func decodeGroup(d *decoder, bt *BlockTable, row, nWays int, fill bool) {
	cfg := bt.cfg
	if !d.fits(nWays, 8+4*cfg.NumLevels) {
		return
	}
	if nWays > cfg.Assoc {
		d.fail("row %d has %d ways (assoc %d)", row, nWays, cfg.Assoc)
		return
	}
	g := 0
	if fill {
		g = bt.addGroup(row)
		bt.nways[g] = int32(nWays)
	}
	for way := g * cfg.Assoc; way < g*cfg.Assoc+nWays; way++ {
		tag := um.BlockID(d.i64())
		if fill {
			bt.tags[way] = tag
		}
		for i := way * cfg.NumLevels; i < (way+1)*cfg.NumLevels; i++ {
			nSuccs := int(d.u32())
			if d.err != nil || !d.fits(nSuccs, 8) || nSuccs > cfg.NumSuccs {
				d.fail("entry has %d successors (limit %d)", nSuccs, cfg.NumSuccs)
				return
			}
			if !fill {
				d.take(8 * nSuccs)
				continue
			}
			bt.nsuccs[i] = int32(nSuccs)
			list := bt.succs[i*cfg.NumSuccs:][:nSuccs]
			for s := range list {
				list[s] = um.BlockID(d.i64())
			}
		}
	}
}

// zeroWords returns how many of the first limit 4-byte words of buf are
// zero, comparing two words at a time.
func zeroWords(buf []byte, limit int) int {
	limit = min(limit, len(buf)/4)
	n := 0
	for n+2 <= limit && binary.LittleEndian.Uint64(buf[4*n:]) == 0 {
		n += 2
	}
	if n < limit && binary.LittleEndian.Uint32(buf[4*n:]) == 0 {
		n++
	}
	return n
}

// decoder is a cursor over the payload with sticky error state, so decode
// code reads linearly without per-field error plumbing.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// fits reports whether n elements of elemBytes each could possibly remain
// in the stream — a cheap guard against allocating from a corrupt count.
func (d *decoder) fits(n, elemBytes int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || n*elemBytes > len(d.buf) {
		d.fail("count %d exceeds remaining %d bytes", n, len(d.buf))
		return false
	}
	return true
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.fail("truncated: need %d bytes, have %d", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) i64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}
