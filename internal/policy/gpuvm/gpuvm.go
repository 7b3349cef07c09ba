// Package gpuvm implements a GPU-driven demand-window prefetch policy after
// GPUVM (arXiv 2411.05309): no kernel-chaining and no correlation tables —
// each fault opens a contiguous window of blocks past the faulting address,
// sized adaptively by how sequential the recent fault stream looks, and
// recently evicted blocks are suppressed from re-prefetch for a cool-down
// measured in faults (standing in for GPUVM's access-bit-driven eviction
// feedback: a block the host just reclaimed is cold by definition).
//
// The policy is deliberately stateless across kernels; it is the
// "hardware-style" baseline the correlation and learned policies are
// ranked against in the deepum-bench tournament.
package gpuvm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"deepum/internal/correlation"
	"deepum/internal/policy"
	"deepum/internal/um"
)

// Name is the registered policy name.
const Name = "gpuvm-window"

func init() {
	policy.Register(Name,
		"GPUVM-style adaptive demand windows, no chaining, eviction cool-down (arXiv 2411.05309 style)",
		New)
}

const (
	windowInit = 16
	windowMin  = 4
	windowMax  = 512
	// evictCooldown suppresses re-prefetch of an evicted block for this many
	// subsequent faults.
	evictCooldown = 256
	// evictTrack bounds the recently-evicted map.
	evictTrack = 4096
)

// Window is the policy instance.
type Window struct {
	prefetch bool
	gate     policy.Gate

	window    int
	lastFault um.BlockID
	haveLast  bool
	faultTick int64

	// active demand window: emit base+idx while idx <= window.
	active bool
	base   um.BlockID
	idx    int
	exec   correlation.ExecID

	// evicted maps block -> faultTick at eviction time.
	evicted map[um.BlockID]int64
	// resident holds the blocks already on the device; windows skip them.
	resident *um.Bitmap
}

// New builds the demand-window policy; WarmPayload restores a Save snapshot.
func New(opts policy.Options) (policy.Policy, error) {
	w := &Window{
		prefetch: opts.Prefetch,
		window:   windowInit,
		exec:     correlation.NoExec,
		evicted:  make(map[um.BlockID]int64),
		resident: opts.Resident,
	}
	if len(opts.WarmPayload) > 0 {
		if err := w.load(opts.WarmPayload); err != nil {
			return nil, fmt.Errorf("policy %s: decoding warm state: %w", Name, err)
		}
	}
	return w, nil
}

// Name implements policy.Policy.
func (w *Window) Name() string { return Name }

// KernelLaunch only tracks the current execution ID so emitted commands
// attribute prefetches to the kernel that triggered them.
func (w *Window) KernelLaunch(id correlation.ExecID) { w.exec = id }

// KernelComplete implements policy.Policy (windows do not chain).
func (w *Window) KernelComplete(id correlation.ExecID) {}

// OnFault adapts the window — grow on a sequential fault, shrink otherwise
// — and opens a fresh demand window past the faulting block.
func (w *Window) OnFault(b um.BlockID) bool {
	w.faultTick++
	if w.haveLast {
		if b == w.lastFault+1 {
			if w.window *= 2; w.window > windowMax {
				w.window = windowMax
			}
		} else if b != w.lastFault {
			if w.window /= 2; w.window < windowMin {
				w.window = windowMin
			}
		}
	}
	w.lastFault = b
	w.haveLast = true
	if !w.prefetch {
		return false
	}
	w.active = true
	w.base = b
	w.idx = 1
	return true
}

// Next emits the window one block at a time, skipping blocks inside the
// eviction cool-down and blocks already resident; a window never dies, it
// only runs out (Pause). A resident block whose cool-down has expired still
// leaves the cool-down map.
func (w *Window) Next() policy.Step {
	if !w.active {
		return policy.Step{Out: policy.Pause}
	}
	window := w.window
	if w.gate != nil {
		if window = w.gate.DegreeCap(window); window < 1 {
			return policy.Step{Out: policy.Pause}
		}
	}
	for w.idx <= window {
		b := w.base + um.BlockID(w.idx)
		w.idx++
		if tick, ok := w.evicted[b]; ok {
			if w.faultTick-tick < evictCooldown {
				continue // still cooling down; skip, don't thrash
			}
			delete(w.evicted, b)
		}
		if w.resident.Has(b) {
			continue
		}
		return policy.Step{Out: policy.Emit, Cmd: policy.Command{Block: b, Exec: w.exec}}
	}
	w.active = false
	return policy.Step{Out: policy.Pause}
}

// NoteEviction starts the block's cool-down (the access-bit stand-in).
func (w *Window) NoteEviction(b um.BlockID) {
	if len(w.evicted) >= evictTrack {
		// Bounded map: drop expired entries; if none expired, drop nothing
		// and skip recording (pathological churn).
		for k, tick := range w.evicted {
			if w.faultTick-tick >= evictCooldown {
				delete(w.evicted, k)
			}
		}
		if len(w.evicted) >= evictTrack {
			return
		}
	}
	w.evicted[b] = w.faultTick
}

// Discard closes the open window; the adaptive window size survives.
func (w *Window) Discard() { w.active = false }

// SetGate implements policy.Policy.
func (w *Window) SetGate(g policy.Gate) { w.gate = g }

// SizeBytes implements policy.Policy.
func (w *Window) SizeBytes() int64 {
	return 64 + int64(len(w.evicted))*16
}

// Save persists the adaptive window size — the only state worth carrying
// across a resume (cool-downs and open windows are transient).
func (w *Window) Save(out io.Writer) error {
	var buf bytes.Buffer
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(w.window))
	buf.Write(b[:])
	_, err := out.Write(buf.Bytes())
	return err
}

func (w *Window) load(payload []byte) error {
	if len(payload) != 4 {
		return fmt.Errorf("payload is %d bytes, want 4", len(payload))
	}
	v := int(binary.LittleEndian.Uint32(payload))
	if v < windowMin || v > windowMax {
		return fmt.Errorf("window %d outside [%d,%d]", v, windowMin, windowMax)
	}
	w.window = v
	return nil
}
