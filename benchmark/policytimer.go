package main

import (
	"io"
	"sync"
	"time"

	corr "deepum/internal/correlation"
	"deepum/internal/policy"
	"deepum/internal/um"
)

// timedPolicyName is the registered name of the timing decorator: it
// wraps the policy the armed timer names and times every call into it
// from outside. Traced engine passes select it through core.Options.Policy.
const timedPolicyName = "bench-timed"

// policyTimer accumulates what the decorator measured during one run.
type policyTimer struct {
	tr    *tracer
	inner string // the wrapped policy's registered name; empty is the default

	self         time.Duration
	nextCalls    int64
	nextTime     time.Duration
	onFaultCalls int64
	emits        int64

	launchAt time.Time
	launched bool
}

// pendingTimer hands a timer to the next policy the factory builds: the
// engine constructs its policy inside RunContext, out of the benchmark's
// reach. Traced passes run one at a time, so one slot suffices.
var (
	pendingMu    sync.Mutex
	pendingTimer *policyTimer
)

// armPolicyTimer returns the timer the next timed policy will feed; that
// policy wraps the one registered as inner.
func armPolicyTimer(tr *tracer, inner string) *policyTimer {
	t := &policyTimer{tr: tr, inner: inner}
	pendingMu.Lock()
	pendingTimer = t
	pendingMu.Unlock()
	return t
}

func init() {
	policy.Register(timedPolicyName, "a registered policy with host-time accounting (benchmark)",
		func(o policy.Options) (policy.Policy, error) {
			pendingMu.Lock()
			t := pendingTimer
			pendingTimer = nil
			pendingMu.Unlock()
			if t == nil {
				t = &policyTimer{}
			}
			inner, err := policy.New(t.inner, o)
			if err != nil {
				return nil, err
			}
			return &timedPolicy{inner: inner, t: t}, nil
		})
}

// timedPolicy wraps a policy and times every call the driver makes into
// it. It changes no decision, so the simulation stays bit-identical.
type timedPolicy struct {
	inner policy.Policy
	t     *policyTimer
}

// tidKernels is the trace row of the per-kernel host-time spans.
const tidKernels = 100

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) KernelLaunch(id corr.ExecID) {
	t0 := time.Now()
	p.inner.KernelLaunch(id)
	p.t.self += time.Since(t0)
	p.t.launchAt, p.t.launched = t0, true
}

func (p *timedPolicy) KernelComplete(id corr.ExecID) {
	t0 := time.Now()
	p.inner.KernelComplete(id)
	p.t.self += time.Since(t0)
	if p.t.launched {
		p.t.tr.add("kernel", "engine", p.t.launchAt, t0, 0, tidKernels)
		p.t.launched = false
	}
}

func (p *timedPolicy) OnFault(b um.BlockID) bool {
	t0 := time.Now()
	restart := p.inner.OnFault(b)
	p.t.self += time.Since(t0)
	p.t.onFaultCalls++
	return restart
}

func (p *timedPolicy) Next() policy.Step {
	t0 := time.Now()
	st := p.inner.Next()
	d := time.Since(t0)
	p.t.self += d
	p.t.nextTime += d
	p.t.nextCalls++
	if st.Out == policy.Emit {
		p.t.emits++
	}
	return st
}

func (p *timedPolicy) NoteEviction(b um.BlockID) {
	t0 := time.Now()
	p.inner.NoteEviction(b)
	p.t.self += time.Since(t0)
}

func (p *timedPolicy) Discard() {
	t0 := time.Now()
	p.inner.Discard()
	p.t.self += time.Since(t0)
}

func (p *timedPolicy) SetGate(g policy.Gate)  { p.inner.SetGate(g) }
func (p *timedPolicy) SizeBytes() int64       { return p.inner.SizeBytes() }
func (p *timedPolicy) Save(w io.Writer) error { return p.inner.Save(w) }

// Tables forwards the wrapped chaser's correlation tables, so the engine
// reports them exactly as it does for the undecorated policy.
func (p *timedPolicy) Tables() *corr.Tables {
	if tp, ok := p.inner.(interface{ Tables() *corr.Tables }); ok {
		return tp.Tables()
	}
	return nil
}
