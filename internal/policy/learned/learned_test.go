package learned

import (
	"testing"

	"deepum/internal/correlation"
	"deepum/internal/policy"
	"deepum/internal/um"
)

// TestLearnedSkipsResidentBlocks feeds one launch/fault stream to a learned
// policy without a residency and to one with it. After every fault the
// filtered prediction must be the unfiltered one less its resident blocks,
// ending the same way: a replay that chains into the next kernel, and an
// extrapolation from a block no sequence holds.
func TestLearnedSkipsResidentBlocks(t *testing.T) {
	res := um.NewResidency(um.NewSpace(0), 1<<40)
	for _, b := range []um.BlockID{11, 13, 20, 23, 52, 56} {
		res.Insert(b, 1, 0, 0)
	}
	var pols [2]policy.Policy
	for i, resident := range []*um.Bitmap{nil, res.Bitmap()} {
		p, err := New(policy.Options{Prefetch: true, Degree: 2, Resident: resident})
		if err != nil {
			t.Fatal(err)
		}
		pols[i] = p
	}
	drain := func(p policy.Policy) ([]um.BlockID, policy.Outcome) {
		var out []um.BlockID
		for {
			st := p.Next()
			if st.Out != policy.Emit {
				return out, st.Out
			}
			out = append(out, st.Cmd.Block)
		}
	}
	// Kernels 0 and 1 alternate; kernel 0 faults on 10..15 and kernel 1 on
	// 20..25, both with delta 1.
	faults := map[correlation.ExecID][]um.BlockID{
		0: {10, 11, 12, 13, 14, 15},
		1: {20, 21, 22, 23, 24, 25},
	}
	checked := 0
	for iter := 0; iter < 3; iter++ {
		for k := correlation.ExecID(0); k < 2; k++ {
			seq := faults[k]
			if iter == 2 && k == 0 {
				seq = append(seq, 50) // unseen: extrapolate 51, 52, ...
			}
			for _, p := range pols {
				p.KernelLaunch(k)
			}
			for _, b := range seq {
				var all, got []um.BlockID
				var endAll, endGot policy.Outcome
				for i, p := range pols {
					p.OnFault(b)
					out, end := drain(p)
					if i == 0 {
						all, endAll = out, end
					} else {
						got, endGot = out, end
					}
				}
				var want []um.BlockID
				for _, c := range all {
					if !res.Resident(c) {
						want = append(want, c)
					}
				}
				if endGot != endAll || len(got) != len(want) {
					t.Fatalf("iteration %d fault %d: filtered %v then %v, unfiltered %v then %v", iter, b, got, endGot, all, endAll)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("iteration %d fault %d: filtered %v, want %v", iter, b, got, want)
					}
				}
				if len(want) < len(all) {
					checked++
				}
			}
			for _, p := range pols {
				p.KernelComplete(k)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no prediction held a resident block; the stream tests nothing")
	}
}
