// Package policy defines the pluggable prefetch-policy seam of the DeepUM
// driver. The driver (internal/core) owns mechanism — the bounded prefetch
// queue, dedup and protected-set bookkeeping, the capacity throttle,
// observer hooks, and health-gate plumbing — while a Policy owns *what to
// fetch next*: it watches the kernel-launch and fault streams and emits
// prefetch commands one step at a time, skipping blocks the device's
// residency bitmap (Options.Resident) already holds.
//
// Policies register themselves by name (Register, usually from init) so the
// engine, the public facade, and the CLIs can select and enumerate them;
// the correlation chaser of the paper (§4.2) is the default. Each policy
// carries its own warm state and serializes it through Save so checkpoints
// written under one policy resume under the same one (the envelope format
// in internal/correlation records the policy name).
package policy

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"deepum/internal/correlation"
	"deepum/internal/um"
)

// Command pairs a UM block address with the execution ID of the kernel it
// is predicted to serve — the payload of the paper's prefetch queue.
type Command struct {
	Block um.BlockID
	Exec  correlation.ExecID
}

// Outcome classifies one Next step.
type Outcome uint8

const (
	// Pause: nothing to emit right now; the policy may resume later (a
	// chain waiting at the degree boundary, a gated ladder level, or no
	// active prediction). The driver stops filling without recording a
	// prediction death.
	Pause Outcome = iota
	// Emit: Step.Cmd carries the next prefetch command.
	Emit
	// Dead: the active prediction died (no successor kernel, too many
	// anchorless skips). The driver records the death in its stats using
	// Step.Cause and stops filling until the next fault restarts the
	// policy.
	Dead
)

// Step is one increment of a policy's prediction stream.
type Step struct {
	Cmd Command
	Out Outcome
	// Cause says why the prediction died when Out is Dead
	// (correlation.DeathNoExec, correlation.DeathSkips); Alive otherwise.
	Cause correlation.DeathCause
}

// Gate is the slice of the health controller's degradation ladder a policy
// consults before creating new speculation (internal/health implements it).
// Everything here bounds prediction work only — the demand path never goes
// through the gate.
type Gate interface {
	// SpeculativeRequeue reports whether evicted-but-still-predicted blocks
	// may be re-queued (false from L1 up: chained-correlation only).
	SpeculativeRequeue() bool
	// DegreeCap bounds the effective chaining degree (or window size) for
	// the current level. A cap below 1 (0 at L3, pure demand) means the
	// policy emits nothing: Next returns Pause.
	DegreeCap(base int) int
}

// Policy decides what the driver prefetches next. Implementations must be
// deterministic: the same launch/fault stream must produce the same command
// stream (the AccessChecksum equivalence tests depend on it). A Policy is
// driven from a single goroutine; it needs no internal locking.
type Policy interface {
	// Name returns the registered policy name ("correlation", ...).
	Name() string
	// KernelLaunch observes the execution ID of the kernel about to run.
	KernelLaunch(id correlation.ExecID)
	// KernelComplete observes a kernel finishing; a paused policy may use
	// the extra lookahead budget on the next Next call.
	KernelComplete(id correlation.ExecID)
	// OnFault observes one faulted UM block. The return value tells the
	// driver whether to restart speculation: true discards the queue's
	// outstanding commands (the GPU diverged from the prediction that
	// produced them) and refills from the policy's new prediction.
	OnFault(b um.BlockID) (restart bool)
	// Next produces the next prediction step; the driver calls it in a
	// budgeted loop and applies its own dedup and capacity filters to Emit
	// steps. A block in Options.Resident is never emitted: it is already on
	// the device, so there is nothing to migrate.
	Next() Step
	// NoteEviction observes a block leaving the device (policy-side
	// bookkeeping only; the driver handles protected-block requeue).
	NoteEviction(b um.BlockID)
	// Discard drops all speculative state (active chains, replay plans).
	// Learned tables survive: the next fault restarts prediction warm.
	Discard()
	// SetGate installs the degradation-ladder gate; nil disables gating.
	SetGate(g Gate)
	// SizeBytes estimates the policy's state memory (Table 4 accounting).
	SizeBytes() int64
	// Save serializes the policy's warm state (the payload of a checkpoint
	// envelope; the caller records the policy name alongside). The encoding
	// must be deterministic: saving twice yields identical bytes.
	Save(w io.Writer) error
}

// Options parameterize policy construction. The driver passes its own
// normalized options through; individual policies ignore what they do not
// use.
type Options struct {
	// Prefetch mirrors core.Options.Prefetch: when false the policy keeps
	// learning from the fault stream but OnFault never requests a restart
	// and Next never emits (the Figure 10 ablation).
	Prefetch bool
	// Degree is the chaining degree N (or window bound) before pausing.
	Degree int
	// TableConfig parameterizes correlation tables for policies that keep
	// them.
	TableConfig correlation.BlockTableConfig
	// WarmPayload seeds the policy with its own Save output (the payload of
	// a checkpoint envelope written under this policy's name).
	WarmPayload []byte
	// Resident is the device's residency bitmap, kept current by the
	// residency manager; Next skips the blocks in it. Nil skips nothing. A
	// policy keeps only the bitmap, never what owns it, since a finished
	// run's Result keeps its policy alive.
	Resident *um.Bitmap
	// Seed is available to policies that need a deterministic tiebreaker.
	Seed int64
}

// Factory builds a policy instance from options.
type Factory func(Options) (Policy, error)

// Info describes one registered policy for discovery listings.
type Info struct {
	// Name is the value for core.Options.Policy / Config.Policy / -policy.
	Name string
	// Summary is a one-line human-readable description.
	Summary string
}

// DefaultName is the policy the driver uses when none is named: the
// paper's correlation prefetcher.
const DefaultName = "correlation"

var (
	regMu     sync.RWMutex
	factories = make(map[string]Factory)
	summaries = make(map[string]string)
)

// Register installs a policy factory under name. Policies register from
// init; a duplicate name panics (a wiring bug, not a runtime condition).
func Register(name, summary string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || f == nil {
		panic("policy: Register with empty name or nil factory")
	}
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	factories[name] = f
	summaries[name] = summary
}

// New builds the named policy; the empty name selects DefaultName. Unknown
// names return an UnknownError so callers can reject them with a typed
// error before any driver state exists.
func New(name string, opts Options) (Policy, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	f, ok := factories[name]
	regMu.RUnlock()
	if !ok {
		return nil, &UnknownError{Name: name}
	}
	return f(opts)
}

// Known reports whether name is a registered policy (the empty name counts:
// it resolves to DefaultName).
func Known(name string) bool {
	if name == "" {
		return true
	}
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := factories[name]
	return ok
}

// Names returns the registered policy names in ascending order.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// Infos returns the registered policies, sorted by name.
func Infos() []Info {
	regMu.RLock()
	out := make([]Info, 0, len(factories))
	for name := range factories {
		out = append(out, Info{Name: name, Summary: summaries[name]})
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// UnknownError is the typed rejection for a policy name nobody registered.
type UnknownError struct{ Name string }

func (e *UnknownError) Error() string {
	return fmt.Sprintf("policy: unknown prefetch policy %q (known: %v)", e.Name, Names())
}
