package correlation

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"deepum/internal/um"
)

// refCursor is the chain walk before the cursor was made allocation-free:
// fresh queues and a fresh seen map for every kernel, and every block table
// reached through Tables.Block, which creates the table if it is missing.
// TestChainCursorMatchesReference holds the reused ChainCursor to it step
// for step.
type refCursor struct {
	tables   *Tables
	execID   ExecID
	history  [HistoryLen]ExecID
	emit     []um.BlockID
	frontier []um.BlockID
	seen     map[um.BlockID]struct{}
	kernels  int
	dead     bool
	sawEnd   bool
	cause    DeathCause
}

func newRefCursor(t *Tables, execID ExecID, history [HistoryLen]ExecID, seed um.BlockID) *refCursor {
	c := &refCursor{tables: t, execID: execID, history: history, seen: map[um.BlockID]struct{}{}}
	if seed != um.NoBlock {
		c.frontier = append(c.frontier, seed)
		c.seen[seed] = struct{}{}
	}
	if t.blocks[execID] != nil {
		if start := t.Block(execID).Start; start != um.NoBlock && start != seed {
			c.frontier = append(c.frontier, start)
			c.seen[start] = struct{}{}
			c.emit = append(c.emit, start)
		}
	}
	return c
}

func (c *refCursor) next() (um.BlockID, ExecID) {
	for {
		if c.dead {
			return um.NoBlock, NoExec
		}
		if len(c.emit) > 0 {
			b := c.emit[0]
			c.emit = c.emit[1:]
			if b == c.tables.Block(c.execID).End {
				c.sawEnd = true
			}
			return b, c.execID
		}
		if c.sawEnd || len(c.frontier) == 0 {
			if !c.advanceKernel() {
				return um.NoBlock, NoExec
			}
			continue
		}
		head := c.frontier[0]
		c.frontier = c.frontier[1:]
		for _, s := range c.tables.Block(c.execID).Successors(head) {
			if s == um.NoBlock {
				continue
			}
			if _, dup := c.seen[s]; dup {
				continue
			}
			c.seen[s] = struct{}{}
			c.frontier = append(c.frontier, s)
			c.emit = append(c.emit, s)
		}
	}
}

func (c *refCursor) advanceKernel() bool {
	for skip := 0; skip <= maxAnchorlessSkips; skip++ {
		next := c.tables.Exec.Predict(c.execID, c.history)
		if next == NoExec {
			c.dead = true
			c.cause = DeathNoExec
			return false
		}
		copy(c.history[:], c.history[1:])
		c.history[HistoryLen-1] = c.execID
		c.execID = next
		c.kernels++
		c.sawEnd = false
		if c.tables.blocks[next] == nil {
			continue
		}
		start := c.tables.Block(next).Start
		if start == um.NoBlock {
			continue
		}
		c.seen = map[um.BlockID]struct{}{start: {}}
		c.frontier = append(c.frontier[:0], start)
		c.emit = append(c.emit[:0], start)
		return true
	}
	c.dead = true
	c.cause = DeathSkips
	return false
}

// randomBlocks draws n block IDs from the whole int64 range, always
// including the extremes and the values around NoBlock.
func randomBlocks(rng *rand.Rand, n int) []um.BlockID {
	bs := []um.BlockID{math.MinInt64, math.MaxInt64, um.NoBlock - 1, um.NoBlock, um.NoBlock + 1}
	for len(bs) < n {
		bs = append(bs, um.BlockID(rng.Uint64()))
	}
	return bs
}

// randomTables builds correlation tables over several execution IDs: small,
// collision-heavy block tables learned from random miss streams (some
// kernels with no table, some with a table but no Start), and random
// execution records, including self-loops that drive a chain through
// anchorless kernels until it dies of skips.
func randomTables(rng *rand.Rand, execs []ExecID, blocks []um.BlockID) *Tables {
	cfg := BlockTableConfig{
		NumRows:   1 + rng.Intn(8),
		Assoc:     1 + rng.Intn(3),
		NumSuccs:  1 + rng.Intn(4),
		NumLevels: 1 + rng.Intn(2),
	}
	ts := NewTables(cfg)
	pick := func() ExecID { return execs[rng.Intn(len(execs))] }
	for _, id := range execs {
		switch rng.Intn(5) {
		case 0: // never launched: no block table
			continue
		case 1: // launched but never faulted: no Start
			ts.Block(id)
			continue
		}
		bt := ts.Block(id)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			if rng.Intn(12) == 0 {
				bt.ResetCursor()
			}
			bt.RecordMiss(blocks[rng.Intn(len(blocks))])
		}
		if rng.Intn(4) == 0 && bt.Start != um.NoBlock {
			bt.RecordMiss(bt.Start) // Start == End: emitting Start ends the kernel
		}
	}
	for i, n := 0, rng.Intn(4*len(execs)); i < n; i++ {
		var prev [HistoryLen]ExecID
		for k := range prev {
			prev[k] = pick()
		}
		cur := pick()
		next := pick()
		if rng.Intn(6) == 0 {
			next = cur
		}
		ts.Exec.Record(cur, prev, next)
	}
	return ts
}

// TestChainCursorMatchesReference restarts one reused cursor many times
// over random tables and checks every step — block, execution ID, kernel
// count and death cause — against the reference walk. The reference runs on
// a decoded copy of the tables because Successors moves the entry it reads
// to the MRU way; at the end both copies must encode to the same bytes,
// which shows the two walks read the same heads in the same order. Tables
// learn misses between restarts, so the cursor both replays plans built by
// earlier walks and rebuilds plans gone stale; the test asserts that every
// such case, and each edge of the End rule, occurred.
func TestChainCursorMatchesReference(t *testing.T) {
	causes := map[DeathCause]int{}
	cover := map[string]int{}
	for trial := int64(0); trial < 300; trial++ {
		rng := rand.New(rand.NewSource(trial))
		execs := []ExecID{0, 1, -2, math.MaxInt32, math.MinInt32}
		for len(execs) < 5+rng.Intn(6) {
			execs = append(execs, ExecID(rng.Int31()))
		}
		blocks := randomBlocks(rng, 8+rng.Intn(40))
		orig := randomTables(rng, execs, blocks)
		if got, want := len(EncodeTables(orig)), payloadLen(orig); got != want {
			t.Fatalf("trial %d: payload is %d bytes, payloadLen says %d", trial, got, want)
		}
		ref, err := DecodeTables(EncodeTables(orig))
		if err != nil {
			t.Fatal(err)
		}

		var c ChainCursor
		// planAt is the table version at which the cursor last entered a
		// table's plan from Start.
		planAt := map[*BlockTable]uint64{}
		for restart := 0; restart < 40; restart++ {
			exec := execs[rng.Intn(len(execs))]
			if rng.Intn(10) == 0 {
				exec = ExecID(rng.Int31()) // a kernel nothing recorded
			}
			var hist [HistoryLen]ExecID
			for k := range hist {
				hist[k] = execs[rng.Intn(len(execs))]
			}
			seed := blocks[rng.Intn(len(blocks))]
			if bt := orig.blocks[exec]; bt != nil {
				if rng.Intn(8) == 0 {
					seed = bt.End
				}
				if seed == bt.End && bt.End != um.NoBlock {
					cover["seed == End"]++
				}
			}
			c.Reset(orig, exec, hist, seed)
			r := newRefCursor(ref, exec, hist, seed)
			// Some walks are cut short, as a new fault preempts the chain.
			steps := 1 + rng.Intn(400)
			died := false
			for step := 0; step < steps; step++ {
				kernels := c.Kernels()
				b, e := c.Next(nil)
				rb, re := r.next()
				if b != rb || e != re || c.Kernels() != r.kernels || c.DeathCause != r.cause {
					t.Fatalf("trial %d restart %d step %d: cursor (%d,%d) kernels %d cause %d; reference (%d,%d) kernels %d cause %d",
						trial, restart, step, b, e, c.Kernels(), c.DeathCause, rb, re, r.kernels, r.cause)
				}
				if b == um.NoBlock {
					causes[c.DeathCause]++
					died = true
					break
				}
				if c.Kernels() != kernels { // entered the next kernel's plan
					bt := c.table
					if v, ok := planAt[bt]; ok {
						if v == bt.version {
							cover["plan reused"]++
						} else {
							cover["plan rebuilt after a miss"]++
						}
					}
					planAt[bt] = bt.version
					if bt.Start == bt.End {
						cover["Start == End"]++
					}
				}
			}
			if !died && c.table != nil && c.plan == &c.table.plan && c.walked > 0 && c.walked < len(c.plan.heads) {
				cover["replay cut short"]++
			}
			// Learning between faults: both copies record the same miss.
			if rng.Intn(3) == 0 {
				id, b := execs[rng.Intn(len(execs))], blocks[rng.Intn(len(blocks))]
				orig.Block(id).RecordMiss(b)
				ref.Block(id).RecordMiss(b)
			}
		}

		// The reference creates empty tables for kernels it walks without
		// one; the cursor does not. Drop those before comparing state.
		for id, bt := range ref.blocks {
			if orig.blocks[id] == nil {
				if bt.Entries() != 0 || bt.Start != um.NoBlock {
					t.Fatalf("trial %d: reference grew a non-empty table for exec %d", trial, id)
				}
				delete(ref.blocks, id)
			}
		}
		if !bytes.Equal(EncodeTables(orig), EncodeTables(ref)) {
			t.Fatalf("trial %d: tables diverged: the walks read successors in a different order", trial)
		}
	}
	for _, cause := range []DeathCause{DeathNoExec, DeathSkips} {
		if causes[cause] == 0 {
			t.Errorf("no chain died of cause %d; the generator no longer covers that path (causes %v)", cause, causes)
		}
	}
	for _, k := range []string{"seed == End", "Start == End", "plan reused", "plan rebuilt after a miss", "replay cut short"} {
		if cover[k] == 0 {
			t.Errorf("no walk covered %q (covered %v)", k, cover)
		}
	}
	t.Logf("covered %v; causes %v", cover, causes)
}

// TestLaunchesDuringWalkMatchReference records kernel transitions while a
// walk is cut or paused, as KernelLaunch does between two fills of the
// prefetch queue, and holds the cursor, which crosses kernels by link,
// step for step to the reference walk, which looks each kernel up by ID
// through ExecTable.Predict. Most records go to a kernel without an entry:
// the cursor's current kernel, or one that so far appears only as a
// successor. A walk reaches both before their entry exists, and must
// still cross from them once it does.
func TestLaunchesDuringWalkMatchReference(t *testing.T) {
	cover := map[string]int{}
	for trial := int64(0); trial < 300; trial++ {
		rng := rand.New(rand.NewSource(trial))
		execs := []ExecID{0, 1, -2, math.MaxInt32, math.MinInt32}
		for len(execs) < 5+rng.Intn(6) {
			execs = append(execs, ExecID(rng.Int31()))
		}
		blocks := randomBlocks(rng, 8+rng.Intn(40))
		orig := randomTables(rng, execs, blocks)
		ref, err := DecodeTables(EncodeTables(orig))
		if err != nil {
			t.Fatal(err)
		}
		pick := func() ExecID { return execs[rng.Intn(len(execs))] }
		var c ChainCursor
		for restart := 0; restart < 40; restart++ {
			var hist [HistoryLen]ExecID
			for k := range hist {
				hist[k] = pick()
			}
			exec, seed := pick(), blocks[rng.Intn(len(blocks))]
			c.Reset(orig, exec, hist, seed)
			r := newRefCursor(ref, exec, hist, seed)
			for step := 0; step < 400; step++ {
				if rng.Intn(6) == 0 {
					cur, next := pick(), pick()
					switch rng.Intn(3) {
					case 0:
						cur = c.ExecID()
					case 1:
						cur = successorOnly(orig, rng, cur)
					}
					if orig.Exec.entries[cur] == nil {
						if cur == c.ExecID() {
							cover["current kernel's first record"]++
						} else {
							cover["successor-only kernel's first record"]++
						}
					}
					if rng.Intn(4) == 0 {
						next = ExecID(rng.Int31()) // a kernel seen only as a successor
						execs = append(execs, next)
					}
					var prev [HistoryLen]ExecID
					for k := range prev {
						prev[k] = pick()
					}
					for _, ts := range []*Tables{orig, ref} {
						ts.Exec.Record(cur, prev, next)
						ts.Block(next).ResetCursor()
					}
				}
				b, e := c.Next(nil)
				rb, re := r.next()
				if b != rb || e != re || c.Kernels() != r.kernels || c.DeathCause != r.cause {
					t.Fatalf("trial %d restart %d step %d: cursor (%d,%d) kernels %d cause %d; reference (%d,%d) kernels %d cause %d",
						trial, restart, step, b, e, c.Kernels(), c.DeathCause, rb, re, r.kernels, r.cause)
				}
				if b == um.NoBlock {
					break
				}
			}
			if rng.Intn(3) == 0 {
				id, b := pick(), blocks[rng.Intn(len(blocks))]
				orig.Block(id).RecordMiss(b)
				ref.Block(id).RecordMiss(b)
			}
		}
		for id, bt := range ref.blocks {
			if orig.blocks[id] == nil {
				if bt.Entries() != 0 || bt.Start != um.NoBlock {
					t.Fatalf("trial %d: reference grew a non-empty table for exec %d", trial, id)
				}
				delete(ref.blocks, id)
			}
		}
		if !bytes.Equal(EncodeTables(orig), EncodeTables(ref)) {
			t.Fatalf("trial %d: tables diverged", trial)
		}
	}
	for _, k := range []string{"current kernel's first record", "successor-only kernel's first record"} {
		if cover[k] == 0 {
			t.Errorf("no launch covered %q (covered %v)", k, cover)
		}
	}
	t.Logf("covered %v", cover)
}

// successorOnly returns a kernel that is some record's successor but has
// no entry of its own, or def when there is none.
func successorOnly(ts *Tables, rng *rand.Rand, def ExecID) ExecID {
	var ids []ExecID
	for _, e := range ts.Exec.entries {
		for _, r := range e.recs {
			if ts.Exec.entries[r.Next] == nil {
				ids = append(ids, r.Next)
			}
		}
	}
	if len(ids) == 0 {
		return def
	}
	slices.Sort(ids)
	return ids[rng.Intn(len(ids))]
}
