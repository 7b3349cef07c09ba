package metrics

import (
	"fmt"
	"strings"
)

// StateTransition records one state-machine transition with the virtual
// timestamp (nanoseconds of simulated time) at which it happened. The engine's
// prefetch circuit breaker logs its closed/open/half-open transitions here so
// a degraded run can be audited after the fact.
type StateTransition struct {
	At     int64 // virtual nanoseconds since run start
	From   string
	To     string
	Reason string
}

// String renders the transition for logs and CLI output.
func (t StateTransition) String() string {
	return fmt.Sprintf("%dns %s->%s (%s)", t.At, t.From, t.To, t.Reason)
}

// TransitionLog accumulates state transitions in occurrence order. The zero
// value is ready to use; it is not safe for concurrent use (the discrete-event
// engine is single-threaded).
type TransitionLog struct {
	transitions []StateTransition
}

// Record appends one transition.
func (l *TransitionLog) Record(at int64, from, to, reason string) {
	l.transitions = append(l.transitions, StateTransition{At: at, From: from, To: to, Reason: reason})
}

// Transitions returns the recorded transitions in order. The slice is shared;
// callers must not modify it.
func (l *TransitionLog) Transitions() []StateTransition {
	if l == nil {
		return nil
	}
	return l.transitions
}

// Len returns how many transitions were recorded.
func (l *TransitionLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.transitions)
}

// Count returns how many recorded transitions went from `from` to `to`; an
// empty string matches any state on that side.
func (l *TransitionLog) Count(from, to string) int64 {
	if l == nil {
		return 0
	}
	var n int64
	for _, t := range l.transitions {
		if (from == "" || t.From == from) && (to == "" || t.To == to) {
			n++
		}
	}
	return n
}

// String renders the full log, one transition per line.
func (l *TransitionLog) String() string {
	if l == nil || len(l.transitions) == 0 {
		return "(no transitions)"
	}
	var b strings.Builder
	for _, t := range l.transitions {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
