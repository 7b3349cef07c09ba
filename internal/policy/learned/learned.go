// Package learned implements an online-learned prefetch policy in the
// spirit of "Deep Learning based Data Prefetching in CPU-GPU Unified
// Virtual Memory" (arXiv 2203.12672): instead of set-associative
// correlation tables it learns, per kernel, the fault sequence of the
// kernel's previous occurrence plus a majority-vote inter-fault delta, and
// predicts by replaying the remembered sequence from the faulting block
// onward — chaining into learned successor kernels up to the degree bound —
// falling back to delta extrapolation for blocks it has never seen.
//
// The learning signal is exactly the kernel-launch/fault stream the
// correlation prefetcher sees; no training phase, no external model. All
// state is bounded (maxKernels tracked kernels, maxSeq blocks per kernel)
// and the prediction is deterministic for a fixed stream.
package learned

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"deepum/internal/correlation"
	"deepum/internal/policy"
	"deepum/internal/um"
)

// Name is the registered policy name.
const Name = "learned"

func init() {
	policy.Register(Name,
		"online-learned per-kernel fault-sequence replay with delta fallback (arXiv 2203.12672 style)",
		New)
}

const (
	// maxKernels bounds how many distinct execution IDs are tracked.
	maxKernels = 8192
	// maxSeq bounds the remembered fault sequence per kernel occurrence.
	maxSeq = 1024
	// extrapolateLen bounds a delta-extrapolation burst for unseen blocks.
	extrapolateLen = 16
)

// kernelState is what the policy remembers about one execution ID.
type kernelState struct {
	// seq is the fault sequence observed during the kernel's previous
	// occurrence; rec accumulates the current occurrence and becomes seq at
	// the next launch of the same kernel.
	seq []um.BlockID
	rec []um.BlockID
	// pos indexes seq by block (first occurrence wins) for O(1) replay
	// positioning on a fault.
	pos map[um.BlockID]int
	// next is the last observed successor kernel (NoExec if none yet).
	next correlation.ExecID
	// delta is the majority-vote (Boyer-Moore) inter-fault block delta of
	// the kernel's fault stream; votes is its confidence counter.
	delta int64
	votes int64
}

// Learned is the policy instance.
type Learned struct {
	prefetch bool
	degree   int
	kernels  map[correlation.ExecID]*kernelState
	current  correlation.ExecID
	gate     policy.Gate
	// resident holds the blocks already on the device; replay skips them.
	resident *um.Bitmap

	// Replay plan, rebuilt on every fault: walk seq[idx:] of exec, then
	// chain into learned successors. kernelsEntered/completed implement the
	// same degree pause the correlation chain uses.
	plan struct {
		active bool
		exec   correlation.ExecID // kernel whose seq is being replayed
		idx    int
		// extrapolating: emit base + n*delta instead of a remembered seq.
		extrapolate bool
		base        um.BlockID
		delta       int64
		n           int
		// seen guards against successor cycles within one plan.
		seen map[correlation.ExecID]bool

		kernelsEntered int
		completed      int
	}
}

// New builds the learned policy; WarmPayload restores a Save snapshot.
func New(opts policy.Options) (policy.Policy, error) {
	degree := opts.Degree
	if degree < 1 {
		degree = 1
	}
	l := &Learned{
		prefetch: opts.Prefetch,
		degree:   degree,
		kernels:  make(map[correlation.ExecID]*kernelState),
		current:  correlation.NoExec,
		resident: opts.Resident,
	}
	if len(opts.WarmPayload) > 0 {
		if err := l.load(opts.WarmPayload); err != nil {
			return nil, fmt.Errorf("policy %s: decoding warm state: %w", Name, err)
		}
	}
	return l, nil
}

// Name implements policy.Policy.
func (l *Learned) Name() string { return Name }

func (l *Learned) state(id correlation.ExecID) *kernelState {
	ks := l.kernels[id]
	if ks == nil {
		if len(l.kernels) >= maxKernels {
			return nil // table full: this kernel stays untracked
		}
		ks = &kernelState{next: correlation.NoExec}
		l.kernels[id] = ks
	}
	return ks
}

// KernelLaunch commits the previous occurrence's recording as the kernel's
// replayable sequence and learns the predecessor's successor edge.
func (l *Learned) KernelLaunch(id correlation.ExecID) {
	if l.current != correlation.NoExec {
		if prev := l.kernels[l.current]; prev != nil {
			prev.next = id
		}
	}
	l.current = id
	ks := l.state(id)
	if ks == nil {
		return
	}
	// The recording of the previous occurrence becomes the prediction for
	// this one; recording restarts empty.
	ks.seq, ks.rec = ks.rec, ks.seq[:0]
	if ks.pos == nil {
		ks.pos = make(map[um.BlockID]int, len(ks.seq))
	} else {
		clear(ks.pos)
	}
	for i, b := range ks.seq {
		if _, dup := ks.pos[b]; !dup {
			ks.pos[b] = i
		}
	}
}

// KernelComplete feeds the degree window, like the correlation chain.
func (l *Learned) KernelComplete(id correlation.ExecID) {
	if l.plan.active {
		l.plan.completed++
	}
}

// OnFault learns (sequence append, delta vote) and rebuilds the replay
// plan from the faulted block.
func (l *Learned) OnFault(b um.BlockID) bool {
	if l.current == correlation.NoExec {
		return false
	}
	ks := l.kernels[l.current]
	if ks == nil {
		return false
	}
	if n := len(ks.rec); n < maxSeq {
		if n > 0 {
			// Majority-vote delta over successive faults of this kernel.
			dd := int64(b) - int64(ks.rec[n-1])
			if dd == ks.delta {
				ks.votes++
			} else {
				ks.votes--
				if ks.votes <= 0 {
					ks.delta, ks.votes = dd, 1
				}
			}
		}
		ks.rec = append(ks.rec, b)
	}
	if !l.prefetch {
		return false
	}
	// Rebuild the plan: replay the remembered sequence from just past the
	// faulted block, or extrapolate by the learned delta for unseen blocks.
	p := &l.plan
	p.active = true
	p.exec = l.current
	p.extrapolate = false
	p.kernelsEntered = 1
	p.completed = 0
	if p.seen == nil {
		p.seen = make(map[correlation.ExecID]bool)
	} else {
		clear(p.seen)
	}
	p.seen[l.current] = true
	if i, ok := ks.pos[b]; ok {
		p.idx = i + 1
	} else {
		p.extrapolate = true
		p.base = b
		p.delta = ks.delta
		if p.delta == 0 {
			p.delta = 1
		}
		p.n = 1
	}
	return true
}

// Next replays the plan one block at a time, chaining into learned
// successor kernels at sequence boundaries and skipping resident blocks.
func (l *Learned) Next() policy.Step {
	p := &l.plan
	if !p.active {
		return policy.Step{Out: policy.Pause}
	}
	degree := l.degree
	if l.gate != nil {
		if degree = l.gate.DegreeCap(degree); degree < 1 {
			return policy.Step{Out: policy.Pause}
		}
	}
	for {
		if p.kernelsEntered-p.completed > degree {
			return policy.Step{Out: policy.Pause}
		}
		if p.extrapolate {
			if p.n > extrapolateLen {
				p.active = false
				return policy.Step{Out: policy.Dead, Cause: correlation.DeathNoExec}
			}
			b := um.BlockID(int64(p.base) + int64(p.n)*p.delta)
			p.n++
			if b < 0 || l.resident.Has(b) {
				continue
			}
			return policy.Step{Out: policy.Emit, Cmd: policy.Command{Block: b, Exec: p.exec}}
		}
		ks := l.kernels[p.exec]
		if ks != nil && p.idx < len(ks.seq) {
			b := ks.seq[p.idx]
			p.idx++
			if l.resident.Has(b) {
				continue
			}
			return policy.Step{Out: policy.Emit, Cmd: policy.Command{Block: b, Exec: p.exec}}
		}
		// Sequence exhausted: chain into the learned successor.
		next := correlation.NoExec
		if ks != nil {
			next = ks.next
		}
		if next == correlation.NoExec || p.seen[next] {
			p.active = false
			return policy.Step{Out: policy.Dead, Cause: correlation.DeathNoExec}
		}
		p.seen[next] = true
		p.exec = next
		p.idx = 0
		p.kernelsEntered++
	}
}

// NoteEviction implements policy.Policy (no eviction feedback needed).
func (l *Learned) NoteEviction(b um.BlockID) {}

// Discard drops the replay plan; learned sequences survive.
func (l *Learned) Discard() { l.plan.active = false }

// SetGate implements policy.Policy.
func (l *Learned) SetGate(g policy.Gate) { l.gate = g }

// SizeBytes estimates the learned-state memory.
func (l *Learned) SizeBytes() int64 {
	var n int64
	for _, ks := range l.kernels {
		n += 40 // fixed fields
		n += int64(len(ks.seq)+len(ks.rec)) * 8
		n += int64(len(ks.pos)) * 16
	}
	return n
}

// --- checkpointing ---
//
// Payload layout (little-endian): u32 kernel count, then per kernel in
// ascending ExecID order: i32 id, i32 next, i64 delta, i64 votes,
// u32 seqLen, seqLen x i64 blocks. Mid-occurrence recordings (rec) are
// deliberately not persisted: a checkpoint is taken at a run boundary.

// Save implements policy.Policy with a deterministic encoding.
func (l *Learned) Save(w io.Writer) error {
	ids := make([]correlation.ExecID, 0, len(l.kernels))
	for id := range l.kernels {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var buf bytes.Buffer
	writeU32(&buf, uint32(len(ids)))
	for _, id := range ids {
		ks := l.kernels[id]
		writeU32(&buf, uint32(int32(id)))
		writeU32(&buf, uint32(int32(ks.next)))
		writeI64(&buf, ks.delta)
		writeI64(&buf, ks.votes)
		writeU32(&buf, uint32(len(ks.seq)))
		for _, b := range ks.seq {
			writeI64(&buf, int64(b))
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// load restores a Save payload, rejecting hostile counts before allocating.
func (l *Learned) load(payload []byte) error {
	d := payload
	u32 := func() (uint32, error) {
		if len(d) < 4 {
			return 0, fmt.Errorf("truncated: need 4 bytes, have %d", len(d))
		}
		v := binary.LittleEndian.Uint32(d)
		d = d[4:]
		return v, nil
	}
	i64 := func() (int64, error) {
		if len(d) < 8 {
			return 0, fmt.Errorf("truncated: need 8 bytes, have %d", len(d))
		}
		v := int64(binary.LittleEndian.Uint64(d))
		d = d[8:]
		return v, nil
	}
	n, err := u32()
	if err != nil {
		return err
	}
	// Every kernel record is at least 24 bytes; a count outrunning the
	// stream is hostile.
	if int(n) > maxKernels || int(n)*24 > len(d) {
		return fmt.Errorf("kernel count %d exceeds limit or remaining %d bytes", n, len(d))
	}
	for i := 0; i < int(n); i++ {
		idRaw, err := u32()
		if err != nil {
			return err
		}
		nextRaw, err := u32()
		if err != nil {
			return err
		}
		delta, err := i64()
		if err != nil {
			return err
		}
		votes, err := i64()
		if err != nil {
			return err
		}
		seqLen, err := u32()
		if err != nil {
			return err
		}
		if int(seqLen) > maxSeq || int(seqLen)*8 > len(d) {
			return fmt.Errorf("sequence length %d exceeds limit or remaining %d bytes", seqLen, len(d))
		}
		ks := &kernelState{
			next:  correlation.ExecID(int32(nextRaw)),
			delta: delta,
			votes: votes,
		}
		// Restored sequences go into rec: the next launch of the kernel
		// promotes them to seq exactly as a live recording would be.
		for j := 0; j < int(seqLen); j++ {
			b, err := i64()
			if err != nil {
				return err
			}
			ks.rec = append(ks.rec, um.BlockID(b))
		}
		id := correlation.ExecID(int32(idRaw))
		if _, dup := l.kernels[id]; dup {
			return fmt.Errorf("duplicate kernel id %d", id)
		}
		l.kernels[id] = ks
	}
	if len(d) != 0 {
		return fmt.Errorf("%d trailing bytes", len(d))
	}
	return nil
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeI64(buf *bytes.Buffer, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	buf.Write(b[:])
}
