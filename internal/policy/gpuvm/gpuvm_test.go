package gpuvm

import (
	"testing"

	"deepum/internal/policy"
	"deepum/internal/um"
)

// TestWindowSkipsResidentBlocks: a window emits what it emits without a
// residency, less the resident blocks. A resident block whose eviction
// cool-down has expired still leaves the cool-down map on the way, while
// one still cooling down stays in it.
func TestWindowSkipsResidentBlocks(t *testing.T) {
	res := um.NewResidency(um.NewSpace(0), 1<<40)
	for _, b := range []um.BlockID{102, 103, 105, 109, 116} {
		res.Insert(b, 1, 0, 0)
	}
	open := func(resident *um.Bitmap) (*Window, []um.BlockID) {
		p, err := New(policy.Options{Prefetch: true, Resident: resident})
		if err != nil {
			t.Fatal(err)
		}
		w := p.(*Window)
		w.NoteEviction(105) // expires after evictCooldown faults
		for i := 0; i <= evictCooldown; i++ {
			w.OnFault(100) // the same block: the window keeps its size
		}
		w.NoteEviction(109) // still cooling down
		var out []um.BlockID
		for {
			st := w.Next()
			if st.Out != policy.Emit {
				if st.Out != policy.Pause {
					t.Fatalf("a window ended %v, want Pause", st.Out)
				}
				return w, out
			}
			out = append(out, st.Cmd.Block)
		}
	}
	_, all := open(nil)
	w, got := open(res.Bitmap())
	var want []um.BlockID
	for _, b := range all {
		if !res.Resident(b) {
			want = append(want, b)
		}
	}
	if len(all) != windowInit-1 || len(got) != len(want) {
		t.Fatalf("windows emitted %v unfiltered, %v filtered; want %d blocks, then %v", all, got, windowInit-1, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("filtered window emitted %v, want %v", got, want)
		}
	}
	if _, cooling := w.evicted[105]; cooling {
		t.Fatal("a resident block's expired cool-down was kept")
	}
	if _, cooling := w.evicted[109]; !cooling {
		t.Fatal("a block still cooling down left the cool-down map")
	}
}
