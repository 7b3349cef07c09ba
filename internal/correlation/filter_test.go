package correlation

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"deepum/internal/um"
)

// emit is one block a walk handed out, with the kernel it was predicted for
// and how many kernels ahead the chain stood.
type emit struct {
	b       um.BlockID
	e       ExecID
	kernels int
}

// walk stop reasons.
const (
	paused = "paused"
	died   = "died"
	cut    = "cut"
	failed = "failed" // chase reported an error
)

// chase drives c the way the correlation policy and the driver do: before
// every Next it pauses once the chain is lead kernels ahead, and it stops
// after limit emits, as a new fault cuts a walk short. Unfiltered, c hands
// out resident blocks and chase drops them, as the driver did before the
// policy filtered; filtered, c must skip them itself. crossed counts the
// times a filtered Next came back empty from entering a kernel, and
// pausedAfterCross whether the walk paused right after one. It reports
// errors without stopping the test, so it may run on another goroutine.
func chase(t *testing.T, c *ChainCursor, res *um.Bitmap, filter bool, lead, limit int) (out []emit, why string, crossed int, pausedAfterCross bool) {
	var pass *um.Bitmap
	if filter {
		pass = res
	}
	justCrossed := false
	for len(out) < limit {
		if c.Kernels() >= lead {
			return out, paused, crossed, justCrossed
		}
		justCrossed = false
		b, e := c.Next(pass)
		if b == um.NoBlock {
			if c.DeathCause != Alive {
				return out, died, crossed, false
			}
			if !filter {
				t.Error("an unfiltered walk came back empty without dying")
				return out, failed, crossed, false
			}
			crossed++
			justCrossed = true
			continue
		}
		if res.Has(b) {
			if filter {
				t.Errorf("the filtered walk handed out resident block %d", b)
				return out, failed, crossed, false
			}
			continue
		}
		out = append(out, emit{b, e, c.Kernels()})
	}
	return out, cut, crossed, false
}

// TestFilteredWalkPausesOnResidentCycle: two kernels predict each other
// forever and every block they touch is resident. Skipping across kernel
// transitions would spin through the cycle for ever; the walk must instead
// come back at each transition and pause at the degree boundary, having
// emitted nothing.
func TestFilteredWalkPausesOnResidentCycle(t *testing.T) {
	ts := NewTables(DefaultBlockTableConfig())
	res := um.NewResidency(um.NewSpace(0), 1<<40)
	for k := ExecID(0); k < 2; k++ {
		bt := ts.Block(k)
		for b := um.BlockID(10 * (k + 1)); b < um.BlockID(10*(k+1)+4); b++ {
			bt.RecordMiss(b)
			res.Insert(b, 1, 0, 0)
		}
	}
	none := [HistoryLen]ExecID{NoExec, NoExec, NoExec}
	ts.Exec.Record(0, none, 1)
	ts.Exec.Record(1, none, 0)
	const degree = 4
	done := make(chan struct{})
	var out []emit
	var why string
	var c ChainCursor
	go func() {
		defer close(done)
		c.Reset(ts, 0, none, 10)
		out, why, _, _ = chase(t, &c, res.Bitmap(), true, degree, 1000)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the filtered walk over an all-resident cycle did not return")
	}
	if why != paused || len(out) != 0 || c.Kernels() != degree {
		t.Fatalf("walk %s after %d emits at %d kernels; want paused with none at %d", why, len(out), c.Kernels(), degree)
	}
}

// TestFilteredWalkMatchesUnfiltered restarts a filtered and an unfiltered
// cursor over two copies of the same random tables, with the same resident
// set, seed and degree. On every walk the filtered stream must equal the
// unfiltered one without its resident blocks, and both must pause, die or
// be cut at the same point; after every walk the two table copies must
// encode to the same bytes, so the skip left the walk's MRU reordering as
// it was. Tables learn misses and blocks come and go between walks.
func TestFilteredWalkMatchesUnfiltered(t *testing.T) {
	cover := map[string]int{}
	for trial := int64(0); trial < 300; trial++ {
		rng := rand.New(rand.NewSource(trial))
		execs := []ExecID{0, 1, 2, 3}
		for len(execs) < 4+rng.Intn(6) {
			execs = append(execs, ExecID(rng.Int31()))
		}
		// A few blocks no residency can hold (negative and huge IDs), and
		// many small ones it can.
		blocks := randomBlocks(rng, 5)
		span := 8 + rng.Intn(40)
		for b := 0; b < span; b++ {
			blocks = append(blocks, um.BlockID(b))
		}
		res := um.NewResidency(um.NewSpace(0), 1<<40)
		share := rng.Float64() // of the small blocks, resident
		if trial%10 == 0 {
			share = 1
		}
		for b := 0; b < span; b++ {
			if rng.Float64() < share {
				res.Insert(um.BlockID(b), 1, 0, 0)
			}
		}
		unf := randomTables(rng, execs, blocks)
		fil, err := DecodeTables(EncodeTables(unf))
		if err != nil {
			t.Fatal(err)
		}
		var cu, cf ChainCursor
		for restart := 0; restart < 40; restart++ {
			exec := execs[rng.Intn(len(execs))]
			var hist [HistoryLen]ExecID
			for k := range hist {
				hist[k] = execs[rng.Intn(len(execs))]
			}
			seed := blocks[rng.Intn(len(blocks))]
			cu.Reset(unf, exec, hist, seed)
			cf.Reset(fil, exec, hist, seed)
			lead := 1 + rng.Intn(4)
			limit := 1 + rng.Intn(200)
			// Each pause is followed by one more kernel of lead, as a kernel
			// completing resumes the policy, until the walk dies or is cut.
			for round := 0; round < 6; round++ {
				want, whyU, _, _ := chase(t, &cu, res.Bitmap(), false, lead, limit)
				got, whyF, crossed, pausedAfterCross := chase(t, &cf, res.Bitmap(), true, lead, limit)
				if whyU != whyF || len(got) != len(want) || cu.Kernels() != cf.Kernels() || cu.DeathCause != cf.DeathCause {
					t.Fatalf("trial %d restart %d round %d: filtered walk %s after %d emits at %d kernels (cause %d), unfiltered %s after %d at %d (cause %d)",
						trial, restart, round, whyF, len(got), cf.Kernels(), cf.DeathCause, whyU, len(want), cu.Kernels(), cu.DeathCause)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d restart %d round %d: emit %d is %+v filtered, %+v unfiltered", trial, restart, round, i, got[i], want[i])
					}
				}
				cover[whyF]++
				if crossed > 0 {
					cover["kernel entered on a resident block"]++
				}
				if pausedAfterCross {
					cover["paused right after such an entry"]++
				}
				if whyF != paused {
					break
				}
				lead++
				limit += 1 + rng.Intn(50)
			}
			if !bytes.Equal(EncodeTables(unf), EncodeTables(fil)) {
				t.Fatalf("trial %d restart %d: tables diverged: the filtered walk reordered entries differently", trial, restart)
			}
			// Learning and residency change between faults.
			if rng.Intn(3) == 0 {
				id, b := execs[rng.Intn(len(execs))], blocks[rng.Intn(len(blocks))]
				unf.Block(id).RecordMiss(b)
				fil.Block(id).RecordMiss(b)
			}
			if b := um.BlockID(rng.Intn(span)); rng.Intn(2) == 0 {
				res.Insert(b, 1, 0, 0)
			} else {
				res.Remove(b)
			}
		}
	}
	for _, k := range []string{paused, died, cut, "kernel entered on a resident block", "paused right after such an entry"} {
		if cover[k] == 0 {
			t.Errorf("no walk covered %q (covered %v)", k, cover)
		}
	}
	t.Logf("covered %v", cover)
}
