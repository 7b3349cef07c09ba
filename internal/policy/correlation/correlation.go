// Package correlation implements the paper's correlation prefetcher (§4.2)
// as a pluggable prefetch policy: per-kernel UM-block correlation tables
// plus an execution-ID table predict the fault stream of the current and
// next N kernels, and a chain cursor walks the prediction block by block.
// It is the extraction of the logic that used to live inline in
// internal/core.Driver, bit-identical to it (TestPolicyEquivalence pins the
// AccessChecksum at every health-ladder rung).
package correlation

import (
	"fmt"
	"io"

	corr "deepum/internal/correlation"
	"deepum/internal/policy"
	"deepum/internal/um"
)

// Name is the registered policy name; it is the default policy.
const Name = "correlation"

func init() {
	policy.Register(Name,
		"DeepUM correlation tables with degree-N kernel chaining (paper §4.2)",
		New)
}

// Chaser is the correlation policy: launch-history learning, chain restart
// on every fault, and degree-bounded chaining across predicted kernels.
type Chaser struct {
	prefetch bool
	degree   int
	tables   *corr.Tables

	// Launch history: the three kernels before the current one, oldest
	// first, and the current one.
	history [corr.HistoryLen]corr.ExecID
	current corr.ExecID
	// historyBeforeCurrent is the window used when recording the transition
	// out of current.
	historyBeforeCurrent [corr.HistoryLen]corr.ExecID

	// cursor is re-seeded on every fault; chaining is set while it holds a
	// live chain.
	cursor   corr.ChainCursor
	chaining bool
	// completedInChain counts kernels finished since the chain (re)started;
	// the chain may run Degree kernels ahead of it.
	completedInChain int

	gate policy.Gate
	// resident holds the blocks already on the device; the walk skips them.
	resident *um.Bitmap
}

// New builds the correlation policy. Warm state arrives as a checkpoint
// payload (Options.WarmPayload); decoded tables keep their own
// configuration, so the set-index hash and successor limits match the state
// being resumed whatever TableConfig says.
func New(opts policy.Options) (policy.Policy, error) {
	degree := opts.Degree
	if degree < 1 {
		degree = 1
	}
	var tables *corr.Tables
	if len(opts.WarmPayload) > 0 {
		t, err := corr.DecodeTables(opts.WarmPayload)
		if err != nil {
			return nil, fmt.Errorf("policy %s: decoding warm state: %w", Name, err)
		}
		tables = t
	} else {
		cfg := opts.TableConfig
		if cfg.NumRows == 0 {
			cfg = corr.DefaultBlockTableConfig()
		}
		tables = corr.NewTables(cfg)
	}
	c := &Chaser{
		prefetch: opts.Prefetch,
		degree:   degree,
		tables:   tables,
		current:  corr.NoExec,
		resident: opts.Resident,
	}
	for i := range c.history {
		c.history[i] = corr.NoExec
	}
	return c, nil
}

// Name implements policy.Policy.
func (c *Chaser) Name() string { return Name }

// Tables exposes the correlation tables (cmd/deepum-inspect).
func (c *Chaser) Tables() *corr.Tables { return c.tables }

// KernelLaunch records the transition of the previously running kernel and
// resets the new kernel's miss cursor.
func (c *Chaser) KernelLaunch(id corr.ExecID) {
	if c.current != corr.NoExec {
		c.tables.Exec.Record(c.current, c.historyBeforeCurrent, id)
	}
	// Slide the history window.
	c.historyBeforeCurrent = c.history
	copy(c.history[:], c.history[1:])
	c.history[corr.HistoryLen-1] = c.current
	c.current = id
	c.tables.Block(id).ResetCursor()
}

// KernelComplete slides the chain window: a paused chain may resume because
// one more kernel of lookahead budget is available (§4.2).
func (c *Chaser) KernelComplete(id corr.ExecID) {
	if c.chaining {
		c.completedInChain++
	}
}

// OnFault updates the block table of the current kernel and — when
// prefetching is enabled — restarts chaining from the faulted block (§4.2:
// each fault restarts the chain).
func (c *Chaser) OnFault(b um.BlockID) bool {
	if c.current == corr.NoExec {
		return false
	}
	c.tables.Block(c.current).RecordMiss(b)
	if !c.prefetch {
		return false
	}
	c.cursor.Reset(c.tables, c.current, c.history, b)
	c.chaining = true
	c.completedInChain = 0
	return true
}

// Next advances the chain to its next non-resident block: gated by the
// ladder's degree cap, paused at the degree-N boundary, dead when the chain
// runs out of predictions. The cursor skips resident blocks itself but
// comes back here on entering a kernel whose first block is resident, so
// the cap and the boundary are checked after every kernel transition.
func (c *Chaser) Next() policy.Step {
	if !c.chaining {
		return policy.Step{Out: policy.Pause}
	}
	for {
		degree := c.degree
		if c.gate != nil {
			if degree = c.gate.DegreeCap(degree); degree < 1 {
				// Ladder at L3: the chain keeps learning, but issues nothing.
				return policy.Step{Out: policy.Pause}
			}
		}
		if c.cursor.Kernels()-c.completedInChain >= degree {
			return policy.Step{Out: policy.Pause}
		}
		b, exec := c.cursor.Next(c.resident)
		if b != um.NoBlock {
			return policy.Step{Out: policy.Emit, Cmd: policy.Command{Block: b, Exec: exec}}
		}
		if c.cursor.DeathCause != corr.Alive {
			c.chaining = false
			return policy.Step{Out: policy.Dead, Cause: c.cursor.DeathCause}
		}
	}
}

// NoteEviction implements policy.Policy; the protected-set requeue is
// driver mechanism, and the chain itself needs no eviction bookkeeping.
func (c *Chaser) NoteEviction(b um.BlockID) {}

// Discard kills the active chain; the learned tables survive.
func (c *Chaser) Discard() { c.chaining = false }

// SetGate implements policy.Policy.
func (c *Chaser) SetGate(g policy.Gate) { c.gate = g }

// SizeBytes implements policy.Policy: the correlation-table memory.
func (c *Chaser) SizeBytes() int64 { return c.tables.SizeBytes() }

// Save writes the deterministic table payload (the body a checkpoint
// envelope wraps under this policy's name).
func (c *Chaser) Save(w io.Writer) error {
	_, err := w.Write(corr.EncodeTables(c.tables))
	return err
}
