package sim

import (
	"fmt"
	"slices"
)

// Timeline accumulates busy time of a resource as a sum of possibly
// overlapping intervals, merging on the fly. It is the integration substrate
// for the energy meter: total busy duration within [0, end) is what the
// power model multiplies by the resource's active draw.
//
// Intervals arrive mostly in nondecreasing start order (the link serializes
// reservations), so the merge is amortized O(1) per Add with a small sorted
// tail for out-of-order inserts. A Duplex seals its timeline as it goes:
// the intervals no later reservation can reach are folded into one busy
// sum, so only the recent ones are kept.
type Timeline struct {
	intervals []interval // sorted by start, non-overlapping; [head:] are kept
	head      int        // intervals[:head] are folded into sealed
	busy      Duration   // sealed plus the kept intervals' lengths
	sealed    Duration   // busy time of the folded intervals
	sealedTo  Time       // no Add may start before it
	// beforeSeal counts Adds that started before sealedTo, which Validate
	// reports: such an interval may overlap folded ones and be counted
	// twice.
	beforeSeal int
}

type interval struct{ start, end Time }

// Add records the busy interval [start, end). Empty or inverted intervals
// are ignored.
func (t *Timeline) Add(start, end Time) {
	if end <= start {
		return
	}
	if start < t.sealedTo {
		t.beforeSeal++
	}
	kept := t.intervals[t.head:]
	n := len(kept)
	if n == 0 || start > kept[n-1].end {
		t.intervals = append(t.intervals, interval{start, end})
		t.busy += end.Sub(start)
		return
	}
	if start == kept[n-1].end {
		kept[n-1].end = end
		t.busy += end.Sub(start)
		return
	}
	// Overlaps or precedes the tail: find insertion point from the back.
	i := n
	for i > 0 && kept[i-1].start > start {
		i--
	}
	// Merge [start,end) with everything it touches from position i-1 on.
	lo := i
	if lo > 0 && kept[lo-1].end >= start {
		lo--
	}
	mergedStart, mergedEnd := start, end
	hi := lo
	for hi < n && kept[hi].start <= mergedEnd {
		if kept[hi].start < mergedStart {
			mergedStart = kept[hi].start
		}
		if kept[hi].end > mergedEnd {
			mergedEnd = kept[hi].end
		}
		hi++
	}
	// Recompute busy time over the replaced span.
	var removed Duration
	for j := lo; j < hi; j++ {
		removed += kept[j].end.Sub(kept[j].start)
	}
	t.busy += mergedEnd.Sub(mergedStart) - removed
	t.intervals = slices.Replace(t.intervals, t.head+lo, t.head+hi, interval{mergedStart, mergedEnd})
}

// seal folds every kept interval that ends at or before the given time
// into the sealed sum. The caller promises that no later Add starts before
// it; Validate reports an Add that broke the promise. Busy is unchanged:
// a later interval starting exactly at the bound only touches a folded one,
// and touching intervals add their lengths either way. Each interval is
// folded once, and the folded prefix is dropped once it is at least half
// the slice, so seal is amortized O(1).
func (t *Timeline) seal(before Time) {
	t.sealedTo = max(t.sealedTo, before)
	for t.head < len(t.intervals) && t.intervals[t.head].end <= before {
		iv := t.intervals[t.head]
		t.sealed += iv.end.Sub(iv.start)
		t.head++
	}
	if t.head > 0 && 2*t.head >= len(t.intervals) {
		t.intervals = t.intervals[:copy(t.intervals, t.intervals[t.head:])]
		t.head = 0
	}
}

// Busy returns the total non-overlapping busy duration recorded so far.
func (t *Timeline) Busy() Duration { return t.busy }

// Len returns the number of merged intervals not yet sealed (useful in
// tests).
func (t *Timeline) Len() int { return len(t.intervals) - t.head }

// Reset discards all recorded intervals.
func (t *Timeline) Reset() {
	*t = Timeline{intervals: t.intervals[:0]}
}

// Validate checks the timeline's structural invariants: kept intervals
// sorted by start, strictly disjoint (touching intervals are merged on
// Add), each non-empty, no Add before the sealed bound, and the busy
// counter equal to the sealed sum plus the kept intervals' lengths. The
// invariant checker runs it under every chaos scenario — a racy or
// double-booked reservation would surface here.
func (t *Timeline) Validate() error {
	if t.beforeSeal > 0 {
		return fmt.Errorf("sim: %d timeline intervals started before the sealed bound %d", t.beforeSeal, t.sealedTo)
	}
	kept := t.intervals[t.head:]
	sum := t.sealed
	for i, iv := range kept {
		if iv.end <= iv.start {
			return fmt.Errorf("sim: timeline interval %d is empty or inverted [%d,%d)", i, iv.start, iv.end)
		}
		if i > 0 && iv.start <= kept[i-1].end {
			return fmt.Errorf("sim: timeline intervals %d and %d overlap or are unmerged ([%d,%d) then [%d,%d))",
				i-1, i, kept[i-1].start, kept[i-1].end, iv.start, iv.end)
		}
		sum += iv.end.Sub(iv.start)
	}
	if sum != t.busy {
		return fmt.Errorf("sim: timeline busy counter %v does not match sealed %v plus interval sum %v", t.busy, t.sealed, sum-t.sealed)
	}
	return nil
}
