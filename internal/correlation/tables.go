package correlation

import (
	"sort"

	"deepum/internal/um"
)

// Tables bundles the execution-ID table with the per-execution-ID UM-block
// tables, which the DeepUM driver allocates lazily when a kernel with a new
// execution ID appears (§6.2, Table 4).
type Tables struct {
	Exec   *ExecTable
	cfg    BlockTableConfig
	blocks map[ExecID]*BlockTable
}

// NewTables returns an empty table set using cfg for every block table.
func NewTables(cfg BlockTableConfig) *Tables {
	return &Tables{
		Exec:   NewExecTable(),
		cfg:    cfg,
		blocks: make(map[ExecID]*BlockTable),
	}
}

// Block returns the UM-block correlation table of id, allocating it on first
// use.
func (t *Tables) Block(id ExecID) *BlockTable {
	bt, ok := t.blocks[id]
	if !ok {
		bt = NewBlockTable(t.cfg)
		t.blocks[id] = bt
	}
	return bt
}

// successor returns the execution-table entry and the block table of
// r.Next, filling r's link and the entry's table on first use. Either may
// be nil: a kernel can have a block table but no records yet, or records
// but no block table.
func (t *Tables) successor(r *execRecord) (*execEntry, *BlockTable) {
	e := r.next
	if e == nil {
		if e = t.Exec.entries[r.Next]; e == nil {
			return nil, t.blocks[r.Next]
		}
		r.next = e
	}
	if e.block == nil {
		e.block = t.blocks[r.Next]
	}
	return e, e.block
}

// NumBlockTables returns how many block tables have been allocated.
func (t *Tables) NumBlockTables() int { return len(t.blocks) }

// SizeBytes returns the total correlation-table memory: the execution table
// plus every allocated block table. The tables live in CPU memory (§6.2).
func (t *Tables) SizeBytes() int64 {
	total := t.Exec.SizeBytes()
	for _, bt := range t.blocks {
		total += bt.SizeBytes()
	}
	return total
}

// ExecIDs returns the execution IDs with allocated block tables, ascending.
func (t *Tables) ExecIDs() []ExecID {
	ids := make([]ExecID, 0, len(t.blocks))
	for id := range t.blocks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ChainCursor walks correlated UM blocks the way the DeepUM prefetching
// thread does (§4.2): within a kernel it follows the MRU successor chain
// from a seed block, and when it reaches the kernel's End block it consults
// the execution table to predict the next kernel and restarts from that
// kernel's Start block. Next returns blocks one at a time so the caller (the
// prefetcher) can stop, pause at the degree-N boundary, or be preempted by a
// new fault at any point.
//
// The cursor replays walk plans (buildPlan): a restart builds the seeded
// plan of the current kernel, and each predicted kernel's table supplies
// its plan from Start, kept until the table learns a miss. Replay is exact
// because a table never changes during a walk: the Chaser records a miss
// before it calls Reset, never after.
//
// A cursor is reused: Reset re-seeds it, and neither a restart nor a kernel
// transition allocates once its buffers have grown to the largest kernel
// walked.
type ChainCursor struct {
	tables *Tables
	entry  *execEntry  // entry of execID, or nil: it had none when the walk reached it
	table  *BlockTable // block table of execID; nil when execID has none

	execID  ExecID             // kernel currently being prefetched for
	history [HistoryLen]ExecID // launch history used for prediction
	// plan is the walk being replayed: plan.blocks[:avail] are discovered,
	// plan.blocks[emitted:avail] are discovered but not yet handed out, and
	// the first walked heads have been walked.
	plan    *walkPlan
	avail   int
	emitted int
	walked  int
	seeded  walkPlan    // the current kernel's plan from the restart's seed
	scratch planScratch // plan builder's scratch space
	kernels int         // kernel transitions taken so far
	dead    bool        // prediction failed; chain exhausted
	// probe marks a conflict-free start plan just entered: the next Next,
	// which comes after its first block has been handed out, may step
	// over the rest of it.
	probe bool
	skips int // start plans stepped over, for tests

	// DeathCause records why the chain died: Alive while it lives.
	DeathCause DeathCause
}

// DeathCause says why a chain died.
type DeathCause uint8

const (
	// Alive: the chain has not died.
	Alive DeathCause = iota
	// DeathNoExec: the execution table had no prediction for the next
	// kernel.
	DeathNoExec
	// DeathSkips: too many consecutive kernels had no fault history.
	DeathSkips
)

// Reset starts a chain over t for the kernel execID whose fault on seed
// triggered prefetching. history holds the three launches before execID
// (oldest first). The seed block itself is not emitted — the fault handler
// is already migrating it — but its successors are. The kernel's Start
// anchor joins the frontier as well: the exact miss sequence shifts between
// iterations (it depends on what happened to be resident), so a fault on a
// block with no recorded successors must still reach the kernel's canonical
// access graph. A kernel without a block table has nothing to walk, and
// Reset does not create one: the chain goes straight to the next kernel.
// No table may learn a miss between Reset and the walk's last Next.
func (c *ChainCursor) Reset(t *Tables, execID ExecID, history [HistoryLen]ExecID, seed um.BlockID) {
	c.tables = t
	c.entry = t.Exec.entries[execID]
	c.table = t.blocks[execID]
	c.execID = execID
	c.history = history
	c.kernels = 0
	c.dead = false
	c.probe = false
	c.DeathCause = Alive
	if c.table == nil {
		c.replay(&noWalk)
		return
	}
	c.table.buildPlan(&c.seeded, seed, &c.scratch.seen)
	c.replay(&c.seeded)
}

// noWalk is the plan of a kernel without a block table: nothing to walk,
// so Next goes straight to the next kernel. Nothing writes it.
var noWalk walkPlan

// replay starts replaying p from its frontier.
func (c *ChainCursor) replay(p *walkPlan) {
	c.plan = p
	c.avail, c.emitted, c.walked = p.frontier, p.first, 0
}

// ExecID returns the execution ID the cursor is currently prefetching for.
func (c *ChainCursor) ExecID() ExecID { return c.execID }

// Kernels returns how many kernel transitions the chain has taken; the
// prefetcher pauses when this reaches the prefetch degree N.
func (c *ChainCursor) Kernels() int { return c.kernels }

// Next returns the next UM block to prefetch together with the execution ID
// it is predicted for, or (NoBlock, NoExec) when the chain is exhausted —
// the next-kernel prediction failed or no history exists (§4.2: "the
// chaining ends ... when the prefetching thread fails to predict the next
// kernel to execute").
//
// Blocks in resident are already on the device, and Next steps over them
// (a nil bitmap holds none). It never steps past the first block it hands
// out in a kernel it has just entered, though: when that block is
// resident, Next returns (NoBlock, the new kernel's ID) with the chain
// still alive, so that the caller's degree check sees the new kernel count
// exactly where it would have seen it had the block been returned and
// dropped. The walk, and so every table's MRU order, is the same with any
// bitmap.
//
// Walking a head moves its entry to the MRU way of its set, as a lookup
// does, and later replacements depend on that order: the walk touches each
// head once, in breadth-first discovery order, and only once every block
// discovered before it has been handed out.
//
// A predicted kernel's start plan whose blocks are all resident emits
// nothing, and once its table is MRU-stable its touches move nothing
// either. So once the plan's first block has been handed out, Next tests
// the plan's words against resident, once, and when the test passes on a
// stable table it steps to the plan's end: that is where the replay would
// arrive, within this call and with nothing changed.
func (c *ChainCursor) Next(resident *um.Bitmap) (um.BlockID, ExecID) {
	kernels := c.kernels
	if c.probe {
		c.probe = false
		if p := c.plan; c.table.stable && p.allResident(resident) {
			c.emitted, c.avail, c.walked = len(p.blocks), len(p.blocks), len(p.heads)
			c.skips++
		}
	}
	for !c.dead {
		p := c.plan
		if c.emitted < c.avail {
			b := p.blocks[c.emitted]
			c.emitted++
			if !resident.Has(b) {
				return b, c.execID
			}
			if c.kernels != kernels {
				return um.NoBlock, c.execID
			}
			continue
		}
		if c.walked == len(p.heads) {
			if len(p.words) > 0 {
				// A conflict-free start plan walked to its end: each head
				// was touched to way 0 of its own group.
				c.table.stable = true
			}
			c.advanceKernel()
			continue
		}
		h := p.heads[c.walked]
		if h.group >= 0 {
			c.table.touch(int(h.group), p.blocks[c.walked])
		}
		c.walked++
		c.avail = int(h.after)
	}
	return um.NoBlock, NoExec
}

// maxAnchorlessSkips bounds how many consecutive kernels without a fault
// history the chain steps over before giving up.
const maxAnchorlessSkips = 64

// advanceKernel predicts the next kernel via the execution table and
// restarts the walk from its Start block (which is itself emitted). Kernels
// that have never faulted — their working set is always resident, so they
// contribute nothing to prefetch — are stepped over. When prediction fails
// it marks the chain dead. It crosses to the predicted kernel by the
// record's link, so a kernel transition makes no map lookup once the
// links are filled.
func (c *ChainCursor) advanceKernel() {
	for skip := 0; skip <= maxAnchorlessSkips; skip++ {
		if c.entry == nil {
			// The kernel had no entry when the walk reached it, but a
			// launch recorded while the walk was cut or paused may have
			// made one.
			c.entry = c.tables.Exec.entries[c.execID]
		}
		r := c.entry.predict(c.history)
		if r == nil {
			c.dead = true
			c.DeathCause = DeathNoExec
			return
		}
		// Slide the history window: the current kernel becomes the most
		// recent.
		copy(c.history[:], c.history[1:])
		c.history[HistoryLen-1] = c.execID
		c.execID = r.Next
		c.kernels++
		var bt *BlockTable
		c.entry, bt = c.tables.successor(r)
		if bt == nil || bt.Start == um.NoBlock {
			continue
		}
		c.table = bt
		c.replay(bt.startPlan(&c.scratch))
		c.probe = len(c.plan.words) > 0
		return
	}
	c.dead = true
	c.DeathCause = DeathSkips
}
