package correlation

import (
	"testing"

	corr "deepum/internal/correlation"
	"deepum/internal/policy"
	"deepum/internal/um"
)

// drain pulls Next until the chain pauses or dies and returns how many
// commands it emitted.
func drain(p policy.Policy) int {
	n := 0
	for p.Next().Out == policy.Emit {
		n++
	}
	return n
}

// TestChaserRestartAllocatesNothing: once the tables are warm, a fault
// restart and the chain walk it triggers — across kernel transitions up to
// the degree boundary — allocate nothing, whether or not the walk skips
// resident blocks.
func TestChaserRestartAllocatesNothing(t *testing.T) {
	const kernels, blocks, degree = 6, 16, 4
	// Every other block of every kernel is resident in the filtered case.
	res := um.NewResidency(um.NewSpace(0), 1<<40)
	for b := um.BlockID(0); b < kernels*blocks; b += 2 {
		res.Insert(b, 1, 0, 0)
	}
	for _, tc := range []struct {
		name     string
		resident *um.Bitmap
		minEmits int // a restart's emits when the chain reaches degree kernels ahead
	}{
		{"unfiltered", nil, degree * blocks / 2},
		{"filtered", res.Bitmap(), degree * blocks / 4},
	} {
		p, err := New(policy.Options{Prefetch: true, Degree: degree, Resident: tc.resident})
		if err != nil {
			t.Fatal(err)
		}
		// Three iterations of the same launch/fault stream warm the tables.
		for iter := 0; iter < 3; iter++ {
			for k := 0; k < kernels; k++ {
				p.KernelLaunch(corr.ExecID(k))
				for j := 0; j < blocks; j++ {
					p.OnFault(um.BlockID(k*blocks + j))
					drain(p)
				}
				p.KernelComplete(corr.ExecID(k))
			}
		}
		p.KernelLaunch(0)
		// Fault on kernel 0's blocks in turn. Two passes first, so every miss
		// pair of the cycle is already in the table.
		j := 0
		restart := func() int {
			p.OnFault(um.BlockID(j % blocks))
			j++
			return drain(p)
		}
		for i := 0; i < 2*blocks; i++ {
			if n := restart(); n <= tc.minEmits {
				t.Fatalf("%s: restart %d emitted %d commands; the chain should reach %d kernels ahead", tc.name, i, n, degree)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { restart() }); allocs != 0 {
			t.Fatalf("%s: a warm fault restart and its chain walk allocate %.1f times, want 0", tc.name, allocs)
		}
	}
}
