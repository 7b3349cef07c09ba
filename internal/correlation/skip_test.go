package correlation

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"deepum/internal/um"
)

// walk drives c filtered by res, as the correlation policy does: it pauses
// once the chain is lead kernels ahead, stops after limit emits, and asks
// again when Next comes back empty with the chain alive. Unless skip is
// set it clears the cursor's probe before every Next, so c replays every
// plan instead of stepping over the all-resident ones.
func walk(c *ChainCursor, res *um.Bitmap, skip bool, lead, limit int) (out []emit, why string) {
	for len(out) < limit {
		if c.Kernels() >= lead {
			return out, paused
		}
		if !skip {
			c.probe = false
		}
		b, e := c.Next(res)
		if b == um.NoBlock {
			if c.DeathCause != Alive {
				return out, died
			}
			continue
		}
		out = append(out, emit{b, e, c.Kernels()})
	}
	return out, cut
}

// conflicting reports whether two heads of p share a group.
func conflicting(p *walkPlan) bool {
	seen := map[int32]bool{}
	for _, h := range p.heads {
		if h.group >= 0 {
			if seen[h.group] {
				return true
			}
			seen[h.group] = true
		}
	}
	return false
}

// skipScenario is one random world for the skip tests: the blocks walks
// draw from, the kernels, and a residency over the small blocks.
type skipScenario struct {
	execs  []ExecID
	blocks []um.BlockID
	span   int // blocks 0..span-1 can be resident
	res    *um.Residency
}

func newSkipScenario(rng *rand.Rand, trial int64) *skipScenario {
	s := &skipScenario{execs: []ExecID{0, 1, 2, -2, math.MaxInt32, math.MinInt32}}
	for len(s.execs) < 6+rng.Intn(4) {
		s.execs = append(s.execs, ExecID(rng.Int31()))
	}
	// A few blocks no residency can hold (negative and huge IDs), and many
	// small ones it can.
	s.blocks = randomBlocks(rng, 5)
	s.span = 8 + rng.Intn(40)
	for b := 0; b < s.span; b++ {
		s.blocks = append(s.blocks, um.BlockID(b))
	}
	s.res = um.NewResidency(um.NewSpace(0), 1<<40)
	share := rng.Float64()
	if trial%2 == 0 {
		share = 1 // mostly all-resident plans: the skip's case
	}
	for b := 0; b < s.span; b++ {
		if rng.Float64() < share {
			s.res.Insert(um.BlockID(b), 1, 0, 0)
		}
	}
	return s
}

// restart draws a restart: the faulting kernel, its launch history and the
// faulted block.
func (s *skipScenario) restart(rng *rand.Rand) (ExecID, [HistoryLen]ExecID, um.BlockID) {
	var hist [HistoryLen]ExecID
	for k := range hist {
		hist[k] = s.execs[rng.Intn(len(s.execs))]
	}
	return s.execs[rng.Intn(len(s.execs))], hist, s.blocks[rng.Intn(len(s.blocks))]
}

// learn changes both table copies the same way, as the policy does
// between faults: a miss, maybe after a launch, a new transition (sometimes to a kernel never
// seen, so that a record links to an entry made later), or a lookup that
// moves a way. It returns what it did, and to which kernel's table.
func (s *skipScenario) learn(rng *rand.Rand, copies ...*Tables) (string, ExecID) {
	what, id := "", NoExec
	switch rng.Intn(4) {
	case 0:
		// Half the misses are the first of a kernel launch, which moves
		// Start and so often makes a new plan without moving a way.
		what, id = "RecordMiss", s.execs[rng.Intn(len(s.execs))]
		launch, misses := rng.Intn(2) == 0, make([]um.BlockID, 1+rng.Intn(3))
		for i := range misses {
			misses[i] = s.blocks[rng.Intn(len(s.blocks))]
		}
		for _, ts := range copies {
			if launch {
				ts.Block(id).ResetCursor()
			}
			for _, b := range misses {
				ts.Block(id).RecordMiss(b)
			}
		}
	case 1:
		var prev [HistoryLen]ExecID
		for k := range prev {
			prev[k] = s.execs[rng.Intn(len(s.execs))]
		}
		cur, next := s.execs[rng.Intn(len(s.execs))], s.execs[rng.Intn(len(s.execs))]
		if rng.Intn(3) == 0 {
			next = ExecID(rng.Int31())
			s.execs = append(s.execs, next)
		}
		for _, ts := range copies {
			ts.Exec.Record(cur, prev, next)
		}
	case 2:
		what, id = "a lookup", s.execs[rng.Intn(len(s.execs))]
		b := s.blocks[rng.Intn(len(s.blocks))]
		if bt := copies[0].blocks[id]; bt != nil && bt.Entries() > 0 {
			// Mostly a block with an entry, which the lookup may move.
			b = bt.tags[rng.Intn(len(bt.tags))]
		}
		for _, ts := range copies {
			if bt := ts.blocks[id]; bt != nil {
				bt.Successors(b)
			}
		}
	}
	if b := um.BlockID(rng.Intn(s.span)); rng.Intn(3) == 0 {
		s.res.Remove(b)
	} else {
		s.res.Insert(b, 1, 0, 0)
	}
	return what, id
}

// TestSkipMatchesReplay restarts a cursor that steps over all-resident
// start plans and one that replays every plan over two copies of the same
// random tables, with the same resident set, restarts and degree. Both
// walks must hand out the same blocks and pause, die or be cut at the same
// point, and after every walk the two copies must encode to the same bytes
// and agree on every table's MRU-stable flag, and after every Next the
// skipping copy must keep the flag's invariant (checkStable). The tables
// have few rows, so heads often share a group; blocks and kernels include negative and huge
// IDs; seeded walks, lookups and misses move ways between walks. The test
// asserts that skips happened, each on a conflict-free plan whose blocks
// were all resident and whose table was stable, and that a seeded walk,
// a lookup and RecordMiss each cleared a flag.
func TestSkipMatchesReplay(t *testing.T) {
	cover := map[string]int{}
	for trial := int64(0); trial < 300; trial++ {
		rng := rand.New(rand.NewSource(trial))
		sc := newSkipScenario(rng, trial)
		skip := randomTables(rng, sc.execs, sc.blocks)
		replay, err := DecodeTables(EncodeTables(skip))
		if err != nil {
			t.Fatal(err)
		}
		var cs, cr ChainCursor
		for restart := 0; restart < 60; restart++ {
			exec, hist, seed := sc.restart(rng)
			cs.Reset(skip, exec, hist, seed)
			cr.Reset(replay, exec, hist, seed)
			current := skip.blocks[exec]
			wasStable := current != nil && current.stable
			lead := 1 + rng.Intn(6)
			limit := 1 + rng.Intn(300)
			for round := 0; round < 6; round++ {
				want, whyR := walk(&cr, sc.res.Bitmap(), false, lead, limit)
				got, whyS := walkChecked(t, &cs, sc.res.Bitmap(), lead, limit, cover)
				if whyR != whyS || len(got) != len(want) || cs.Kernels() != cr.Kernels() || cs.DeathCause != cr.DeathCause {
					t.Fatalf("trial %d restart %d round %d: skipping walk %s after %d emits at %d kernels (cause %d), replaying walk %s after %d at %d (cause %d)",
						trial, restart, round, whyS, len(got), cs.Kernels(), cs.DeathCause, whyR, len(want), cr.Kernels(), cr.DeathCause)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d restart %d round %d: emit %d is %+v skipping, %+v replaying", trial, restart, round, i, got[i], want[i])
					}
				}
				if whyS != paused {
					break
				}
				lead++
				limit += 1 + rng.Intn(100)
			}
			if cr.skips != 0 {
				t.Fatalf("trial %d: the replaying cursor stepped over %d plans", trial, cr.skips)
			}
			if !bytes.Equal(EncodeTables(skip), EncodeTables(replay)) {
				t.Fatalf("trial %d restart %d: tables diverged: the skip changed the walk's MRU moves", trial, restart)
			}
			for id, bt := range skip.blocks {
				if rb := replay.blocks[id]; rb == nil || rb.stable != bt.stable {
					t.Fatalf("trial %d restart %d: exec %d stable %v skipping, %v replaying", trial, restart, id, bt.stable, rb != nil && rb.stable)
				}
				if bt.plan.version == bt.version && conflicting(&bt.plan) {
					cover["conflicting start plan"]++
				}
			}
			if wasStable && !current.stable {
				cover["flag cleared by a seeded walk"]++
			}
			stable := map[ExecID]bool{}
			for id, bt := range skip.blocks {
				stable[id] = bt.stable
			}
			what, id := sc.learn(rng, skip, replay)
			if bt := skip.blocks[id]; bt != nil && stable[id] && !bt.stable {
				cover["flag cleared by "+what]++
			}
		}
	}
	for _, k := range []string{"skip", "conflicting start plan", "flag cleared by a seeded walk", "flag cleared by RecordMiss", "flag cleared by a lookup", "probe failed: not all resident"} {
		if cover[k] == 0 {
			t.Errorf("no walk covered %q (covered %v)", k, cover)
		}
	}
	t.Logf("covered %v", cover)
}

// walkChecked is walk with the skip on, checking every step over: the plan
// it stepped over was conflict-free, its table stable, and every block of
// it resident. After every Next it checks c's tables with checkStable.
func walkChecked(t *testing.T, c *ChainCursor, res *um.Bitmap, lead, limit int, cover map[string]int) (out []emit, why string) {
	t.Helper()
	for len(out) < limit {
		if c.Kernels() >= lead {
			return out, paused
		}
		probed, table, plan, skips := c.probe, c.table, c.plan, c.skips
		b, e := c.Next(res)
		checkStable(t, c)
		if c.skips != skips {
			cover["skip"]++
			if !probed || conflicting(plan) || !table.stable || plan != &table.plan {
				t.Fatalf("stepped over a plan that was not a stable, conflict-free start plan")
			}
			for _, pb := range plan.blocks {
				if !res.Has(pb) {
					t.Fatalf("stepped over a plan holding non-resident block %d", pb)
				}
			}
		} else if probed && table.stable {
			cover["probe failed: not all resident"]++
		}
		if b == um.NoBlock {
			if c.DeathCause != Alive {
				return out, died
			}
			continue
		}
		out = append(out, emit{b, e, c.Kernels()})
	}
	return out, cut
}

// checkStable checks the plans and MRU-stable flags of c's tables. A
// start plan has words exactly when no two of its heads share a group, and
// then they hold its blocks and nothing else; a seeded plan has none. On a
// stable table the start plan is current and has words, and each of its
// heads sits at way 0 of its group.
func checkStable(t *testing.T, c *ChainCursor) {
	t.Helper()
	if len(c.seeded.words) > 0 {
		t.Fatal("a seeded plan has words")
	}
	for id, bt := range c.tables.blocks {
		p := &bt.plan
		if p.version == bt.version {
			if (len(p.words) > 0) == conflicting(p) {
				t.Fatalf("exec %d: start plan has %d words, conflicting %v", id, len(p.words), conflicting(p))
			}
			if len(p.words) > 0 {
				n := 0
				for _, w := range p.words {
					n += bits.OnesCount64(w.mask)
				}
				for _, b := range p.blocks {
					if !slices.ContainsFunc(p.words, func(w planWord) bool { return w.at>>6 == b>>6 && w.mask>>(uint64(b)&63)&1 == 1 }) {
						t.Fatalf("exec %d: no word of the start plan holds its block %d", id, b)
					}
				}
				if n != len(p.blocks) {
					t.Fatalf("exec %d: the start plan's words hold %d bits for %d blocks", id, n, len(p.blocks))
				}
			}
		}
		if !bt.stable {
			continue
		}
		if p.version != bt.version || len(p.words) == 0 {
			t.Fatalf("exec %d is stable with a stale or conflicting start plan", id)
		}
		for i, h := range p.heads {
			if h.group < 0 {
				continue
			}
			if way := bt.wayOf(int(h.group), p.blocks[i]); way != 0 {
				t.Fatalf("exec %d is stable, but head %d (block %d) is at way %d", id, i, p.blocks[i], way)
			}
		}
	}
}

// TestDecodedTablesWalkTheSame walks random tables and their decoded copy,
// DecodeTables(EncodeTables(t)), side by side, each copy filling its
// links as its walks follow them. Some entries have no records, and some records lead to kernels that only
// ever appear as successors, with or without a block table. Both walks
// must hand out the same blocks, pause, die or be cut at the same point,
// and leave the two copies encoding to the same bytes, while both copies
// keep learning between walks.
func TestDecodedTablesWalkTheSame(t *testing.T) {
	cover := map[string]int{}
	for trial := int64(0); trial < 200; trial++ {
		rng := rand.New(rand.NewSource(trial))
		sc := newSkipScenario(rng, trial)
		orig := randomTables(rng, sc.execs, sc.blocks)
		for _, id := range sc.execs {
			if orig.Exec.entries[id] == nil && rng.Intn(2) == 0 {
				orig.Exec.entries[id] = &execEntry{}
			}
		}
		for i := 0; i < 3; i++ {
			var prev [HistoryLen]ExecID
			for k := range prev {
				prev[k] = sc.execs[rng.Intn(len(sc.execs))]
			}
			only := ExecID(rng.Int31())
			orig.Exec.Record(sc.execs[rng.Intn(len(sc.execs))], prev, only)
			if rng.Intn(2) == 0 {
				bt := orig.Block(only)
				for j := 0; j < 1+rng.Intn(8); j++ {
					bt.RecordMiss(sc.blocks[rng.Intn(len(sc.blocks))])
				}
			}
		}
		dec, err := DecodeTables(EncodeTables(orig))
		if err != nil {
			t.Fatal(err)
		}
		var co, cd ChainCursor
		for restart := 0; restart < 40; restart++ {
			exec, hist, seed := sc.restart(rng)
			co.Reset(orig, exec, hist, seed)
			cd.Reset(dec, exec, hist, seed)
			lead, limit := 1+rng.Intn(6), 1+rng.Intn(300)
			want, whyO := walk(&co, sc.res.Bitmap(), true, lead, limit)
			got, whyD := walk(&cd, sc.res.Bitmap(), true, lead, limit)
			if whyO != whyD || len(got) != len(want) || co.Kernels() != cd.Kernels() || co.DeathCause != cd.DeathCause {
				t.Fatalf("trial %d restart %d: decoded walk %s after %d emits at %d kernels (cause %d), original %s after %d at %d (cause %d)",
					trial, restart, whyD, len(got), cd.Kernels(), cd.DeathCause, whyO, len(want), co.Kernels(), co.DeathCause)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d restart %d: emit %d is %+v decoded, %+v original", trial, restart, i, got[i], want[i])
				}
			}
			if co.entry != nil && len(co.entry.recs) == 0 {
				cover["walk ended on an entry without records"]++
			}
			if co.DeathCause == DeathNoExec && co.Kernels() > 0 && co.entry == nil {
				cover["walk died past a successor-only kernel"]++
			}
			if !bytes.Equal(EncodeTables(orig), EncodeTables(dec)) {
				t.Fatalf("trial %d restart %d: tables diverged", trial, restart)
			}
			sc.learn(rng, orig, dec)
		}
	}
	for _, k := range []string{"walk ended on an entry without records", "walk died past a successor-only kernel"} {
		if cover[k] == 0 {
			t.Errorf("no walk covered %q (covered %v)", k, cover)
		}
	}
	t.Logf("covered %v", cover)
}

// FuzzChainWalk builds tables, a resident set and a run of restarts from
// the fuzzer's bytes, and walks them three ways: stepping over
// all-resident start plans, replaying every plan, and stepping over them
// on the decoded copy. All three must hand out the same blocks and stop at
// the same point, and the three table copies must encode to the same
// bytes after every walk.
func FuzzChainWalk(f *testing.F) {
	for _, seed := range []string{
		"",
		"\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09",
		"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1\xf0",
		"\x03\x01\x03\x00\x40\x10\x20\x30\x11\x21\x31\x12\x22\x32\x80\x81\x82\x83\x84\x85\x86\x87\x88\x89\x8a\x8b\x8c\x8d\x8e\x8f\x90\x91\x92",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		cfg := BlockTableConfig{NumRows: 1 + in.next(8), Assoc: 1 + in.next(3), NumSuccs: 1 + in.next(4), NumLevels: 1 + in.next(2)}
		execs := []ExecID{0, 1, 2, 3, -2, math.MaxInt32, math.MinInt32}
		blocks := []um.BlockID{math.MinInt64, math.MaxInt64, um.NoBlock, -2, 1 << 40}
		for b := um.BlockID(0); b < 24; b++ {
			blocks = append(blocks, b)
		}
		exec := func() ExecID { return execs[in.next(len(execs))] }
		block := func() um.BlockID { return blocks[in.next(len(blocks))] }
		hist := func() (h [HistoryLen]ExecID) {
			for k := range h {
				h[k] = exec()
			}
			return h
		}
		skip := NewTables(cfg)
		for i, n := 0, in.next(64); i < n; i++ {
			switch in.next(8) {
			case 0:
				skip.Block(exec()).ResetCursor()
			case 1, 2:
				skip.Exec.Record(exec(), hist(), exec())
			default:
				skip.Block(exec()).RecordMiss(block())
			}
		}
		replay, err := DecodeTables(EncodeTables(skip))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeTables(EncodeTables(skip))
		if err != nil {
			t.Fatal(err)
		}
		res := um.NewResidency(um.NewSpace(0), 1<<40)
		for b := um.BlockID(0); b < 24; b++ {
			if in.next(4) != 0 {
				res.Insert(b, 1, 0, 0)
			}
		}
		var cs, cr, cd ChainCursor
		for restart, n := 0, 1+in.next(16); restart < n; restart++ {
			e, h, b := exec(), hist(), block()
			cs.Reset(skip, e, h, b)
			cr.Reset(replay, e, h, b)
			cd.Reset(dec, e, h, b)
			lead, limit := 1+in.next(8), 1+in.next(256)
			want, whyR := walk(&cr, res.Bitmap(), false, lead, limit)
			for _, c := range []*ChainCursor{&cs, &cd} {
				got, why := walk(c, res.Bitmap(), true, lead, limit)
				if why != whyR || len(got) != len(want) || c.Kernels() != cr.Kernels() || c.DeathCause != cr.DeathCause {
					t.Fatalf("restart %d: walk %s after %d emits at %d kernels, replaying walk %s after %d at %d", restart, why, len(got), c.Kernels(), whyR, len(want), cr.Kernels())
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("restart %d: emit %d is %+v, replaying %+v", restart, i, got[i], want[i])
					}
				}
			}
			want2 := EncodeTables(replay)
			if !bytes.Equal(EncodeTables(skip), want2) || !bytes.Equal(EncodeTables(dec), want2) {
				t.Fatalf("restart %d: tables diverged", restart)
			}
			switch in.next(4) {
			case 0:
				id, b := exec(), block()
				for _, ts := range []*Tables{skip, replay, dec} {
					ts.Block(id).RecordMiss(b)
				}
			case 1:
				if b := um.BlockID(in.next(24)); in.next(2) == 0 {
					res.Remove(b)
				} else {
					res.Insert(b, 1, 0, 0)
				}
			}
		}
	})
}

// fuzzInput hands out the fuzzer's bytes as small choices; once they run
// out, every choice is 0.
type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b) % n
}

// TestMissClearsStable: a miss can make a stable table's start plan walk
// a head that no replay has moved to way 0, without itself moving a way.
// Here Start's successors are R, x and End, so the plan stops after
// walking Start, and x sits at way 1 behind z, a block of its row outside
// the plan. A miss after End gives End a successor: the new plan walks R,
// x and End as well, and replaying it moves x. So the miss must clear the
// flag, or the skip would step over that move.
func TestMissClearsStable(t *testing.T) {
	cfg := DefaultBlockTableConfig()
	ref := NewBlockTable(cfg)
	rows := map[int]bool{}
	pick := func(from um.BlockID) um.BlockID { // a block with a row of its own
		for b := from; ; b++ {
			if !rows[ref.row(b)] {
				rows[ref.row(b)] = true
				return b
			}
		}
	}
	x := pick(1)
	z := x + 1
	for ref.row(z) != ref.row(x) {
		z++
	}
	S, R, E, w, w2, b, seed := pick(2), pick(3), pick(4), pick(5), pick(6), pick(7), pick(8)
	ts := NewTables(cfg)
	bt := ts.Block(0)
	for _, invocation := range [][]um.BlockID{{x, w}, {z, w2}, {S, E}, {S, x}, {S, R, E}} {
		bt.ResetCursor()
		for _, m := range invocation {
			bt.RecordMiss(m)
		}
	}
	if bt.wayOf(bt.group(bt.row(x)), x) != 1 {
		t.Fatal("x is not at way 1")
	}
	none := [HistoryLen]ExecID{NoExec, NoExec, NoExec}
	ts.Exec.Record(1, none, 0)
	res := um.NewResidency(um.NewSpace(0), 1<<40)
	for _, m := range []um.BlockID{S, R, x, E, w, w2, b, z} {
		res.Insert(m, 1, 0, 0)
	}
	var c ChainCursor
	c.Reset(ts, 1, none, seed)
	if out, why := walk(&c, res.Bitmap(), true, 4, 100); why != died || len(out) != 0 || !bt.stable {
		t.Fatalf("first walk %s after %d emits, stable %v; want it to die with none, leaving the table stable", why, len(out), bt.stable)
	}
	bt.RecordMiss(b)
	if bt.stable {
		t.Fatal("the miss left the table stable")
	}
	replay, err := DecodeTables(EncodeTables(ts))
	if err != nil {
		t.Fatal(err)
	}
	var cr ChainCursor
	c.Reset(ts, 1, none, seed)
	cr.Reset(replay, 1, none, seed)
	walk(&c, res.Bitmap(), true, 4, 100)
	walk(&cr, res.Bitmap(), false, 4, 100)
	if !bytes.Equal(EncodeTables(ts), EncodeTables(replay)) {
		t.Fatal("the walk after the miss left the tables differently from a replay")
	}
	if bt.wayOf(bt.group(bt.row(x)), x) != 0 {
		t.Fatal("the walk after the miss did not move x to way 0")
	}
}
