package metrics

import (
	"strings"
	"testing"
)

func TestTransitionLogRecordAndCount(t *testing.T) {
	var l TransitionLog
	if l.Len() != 0 || l.Transitions() != nil || l.Count("", "") != 0 {
		t.Fatal("zero-value log not empty")
	}
	l.Record(100, "closed", "open", "8 consecutive failures")
	l.Record(600, "open", "half-open", "cooldown elapsed")
	l.Record(650, "half-open", "open", "probe failed")
	l.Record(1200, "open", "half-open", "cooldown elapsed")
	l.Record(1250, "half-open", "closed", "probe delivered")

	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
	tr := l.Transitions()
	for i := 1; i < len(tr); i++ {
		if tr[i].At < tr[i-1].At {
			t.Fatalf("transitions out of order at %d: %v", i, tr)
		}
	}
	if got := l.Count("", "open"); got != 2 {
		t.Fatalf("Count(any->open) = %d, want 2", got)
	}
	if got := l.Count("half-open", ""); got != 2 {
		t.Fatalf("Count(half-open->any) = %d, want 2", got)
	}
	if got := l.Count("closed", "open"); got != 1 {
		t.Fatalf("Count(closed->open) = %d, want 1", got)
	}
	if got := l.Count("open", "closed"); got != 0 {
		t.Fatalf("Count(open->closed) = %d, want 0", got)
	}
}

func TestTransitionLogNilSafe(t *testing.T) {
	var l *TransitionLog
	if l.Len() != 0 || l.Transitions() != nil || l.Count("a", "b") != 0 {
		t.Fatal("nil log reads are not inert")
	}
	if l.String() != "(no transitions)" {
		t.Fatalf("nil String = %q", l.String())
	}
}

func TestTransitionLogString(t *testing.T) {
	var l TransitionLog
	if l.String() != "(no transitions)" {
		t.Fatalf("empty String = %q", l.String())
	}
	l.Record(42, "closed", "open", "link wedged")
	s := l.String()
	for _, want := range []string{"42ns", "closed->open", "link wedged"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}
