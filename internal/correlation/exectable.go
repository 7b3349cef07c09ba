// Package correlation implements the two correlation-table structures of
// DeepUM (§4.2): the execution-ID correlation table that records kernel
// launch history, and the per-execution-ID UM-block correlation tables that
// record the page (UM block) access history within each kernel. Together
// they drive prefetch chaining across kernel boundaries.
package correlation

// ExecID identifies a distinct CUDA kernel launch command, assigned by the
// DeepUM runtime from the hash of the kernel's name and arguments (§3.1).
type ExecID int32

// NoExec is the nil execution ID.
const NoExec ExecID = -1

// HistoryLen is the number of previously executed kernels each record of the
// execution table stores; a record is (prev3, prev2, prev1, next) relative
// to the entry's own execution ID (Figure 6).
const HistoryLen = 3

// ExecRecord is one record of an execution-table entry: the three execution
// IDs launched immediately before the entry's kernel, and the kernel
// launched right after it.
type ExecRecord struct {
	Prev [HistoryLen]ExecID
	Next ExecID
}

// ExecTable is the single execution-ID correlation table. Each entry holds a
// variable number of records so that the full successor history of every
// kernel is retained: a wrong next-kernel prediction is expensive, so the
// table trades memory for accuracy (§4.2).
type ExecTable struct {
	entries map[ExecID]*execEntry
	records int64
}

// execEntry is the entry of one execution ID: its records, MRU-ordered,
// newest first, and the ID's block table. A chain walk crosses kernels by
// following these links, with no map lookup once they are filled.
type execEntry struct {
	recs []execRecord
	// block is the ID's block table, set by the first walk that finds it.
	// Nil means not known yet, never that the table does not exist.
	block *BlockTable
}

// execRecord is an ExecRecord with a link to the entry of its Next. The
// link is filled by the first walk that follows the record, since the
// successor's entry may not exist when the record is made; nil means not
// known yet.
type execRecord struct {
	ExecRecord
	next *execEntry
}

// NewExecTable returns an empty execution-ID correlation table.
func NewExecTable() *ExecTable {
	return &ExecTable{entries: make(map[ExecID]*execEntry)}
}

// Record stores that kernel next was launched right after kernel cur, with
// prev holding the three kernels launched before cur (oldest first). A
// record identical to an existing one is moved to the front (MRU) instead of
// duplicated.
func (t *ExecTable) Record(cur ExecID, prev [HistoryLen]ExecID, next ExecID) {
	e := t.entries[cur]
	if e == nil {
		e = &execEntry{}
		t.entries[cur] = e
	}
	rec := ExecRecord{Prev: prev, Next: next}
	for i, r := range e.recs {
		if r.ExecRecord == rec {
			copy(e.recs[1:i+1], e.recs[:i])
			e.recs[0] = r
			return
		}
	}
	e.recs = append([]execRecord{{ExecRecord: rec}}, e.recs...)
	t.records++
}

// Predict returns the execution ID expected to run after cur, given the
// actual last three launched kernels (oldest first). Records are matched
// against the history most-specific first: full three-kernel match, then the
// two most recent, then one, then the most recent record of the entry.
// It returns NoExec when cur has never been observed.
func (t *ExecTable) Predict(cur ExecID, prev [HistoryLen]ExecID) ExecID {
	if r := t.entries[cur].predict(prev); r != nil {
		return r.Next
	}
	return NoExec
}

// predict returns the record Predict takes its answer from, or nil for a
// nil entry or one without records.
func (e *execEntry) predict(prev [HistoryLen]ExecID) *execRecord {
	if e == nil || len(e.recs) == 0 {
		return nil
	}
	recs := e.recs
	if len(recs) == 1 {
		// Every branch of the scan below returns a lone record.
		return &recs[0]
	}
	for suffix := HistoryLen; suffix >= 1; suffix-- {
		for i := range recs {
			if matchSuffix(recs[i].Prev, prev, suffix) {
				return &recs[i]
			}
		}
	}
	return &recs[0]
}

func matchSuffix(a, b [HistoryLen]ExecID, n int) bool {
	for i := HistoryLen - n; i < HistoryLen; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Entries returns the number of distinct execution IDs with records.
func (t *ExecTable) Entries() int { return len(t.entries) }

// Records returns the total record count across all entries.
func (t *ExecTable) Records() int64 { return t.records }

// SizeBytes estimates the memory the table occupies: each record stores four
// execution IDs (Figure 6) plus per-entry bookkeeping.
func (t *ExecTable) SizeBytes() int64 {
	const recordBytes = (HistoryLen + 1) * 4
	const entryOverhead = 24 // map entry + slice header
	return t.records*recordBytes + int64(len(t.entries))*entryOverhead
}
