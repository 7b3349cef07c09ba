package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"deepum"
	"deepum/internal/admission"
	"deepum/internal/obs"
	"deepum/internal/sim"
	"deepum/internal/store"
	"deepum/internal/supervisor/journal"
	"deepum/internal/um"
)

// Microbenchmarks time one layer's exported entry point in isolation, with
// inputs shaped like the workload's: its fault-batch size, its run spec,
// its idempotency keys and its real checkpoint blobs.

// microReps is how many timed repetitions each microbenchmark takes; the
// median is reported.
const microReps = 5

// perOp times fn(n) for growing n until one call lasts at least target and
// returns nanoseconds per operation, the median of microReps repetitions.
func perOp(target time.Duration, fn func(n int)) float64 {
	var reps []float64
	for r := 0; r < microReps; r++ {
		n := 1
		for {
			t0 := time.Now()
			fn(n)
			d := time.Since(t0)
			if d >= target || n >= 1<<30 {
				reps = append(reps, float64(d)/float64(n))
				break
			}
			n *= 4
		}
	}
	return median(reps)
}

// handleGroupsNs is the host cost of one fault-handling cycle that migrates
// k populated blocks (the workload's mean blocks per fault batch).
func handleGroupsNs(k int) (float64, error) {
	if k < 1 {
		k = 1
	}
	p := sim.DefaultParams()
	p.GPUMemory = int64(k+1) * sim.BlockSize
	s := um.NewSpace(0)
	h := &um.Handler{
		Params:      p,
		Space:       s,
		Res:         um.NewResidency(s, p.GPUMemory),
		Link:        sim.NewDuplex(p, nil),
		Policy:      um.LRMPolicy{},
		Invalidator: um.NoInvalidate{},
	}
	groups := make([]um.FaultGroup, k)
	for i := range groups {
		a, err := s.Malloc(sim.BlockSize)
		if err != nil {
			return 0, err
		}
		blk := um.BlockOf(a)
		s.Block(blk).HostPopulated = true
		groups[i] = um.FaultGroup{Block: blk, Count: sim.PagesPerBlock}
	}
	now := h.HandleGroups(0, groups)
	return perOp(20*time.Millisecond, func(n int) {
		for i := 0; i < n; i++ {
			for _, g := range groups {
				h.Res.Remove(g.Block)
			}
			now = h.HandleGroups(now, groups)
		}
	}), nil
}

// reserveNs is the host cost of one block-sized link reservation.
func reserveNs() float64 {
	d := sim.NewDuplex(sim.DefaultParams(), nil)
	var at sim.Time
	return perOp(10*time.Millisecond, func(n int) {
		for i := 0; i < n; i++ {
			_, end := d.Reserve(at, sim.BlockSize, sim.HostToDevice)
			at = end
		}
	})
}

// recordNs is the host cost of recording one event into an observer ring.
func recordNs() float64 {
	r := obs.NewRecorder(1 << 16)
	return perOp(10*time.Millisecond, func(n int) {
		for i := 0; i < n; i++ {
			r.Record(obs.Event{TS: int64(i), Dur: 1, Kind: obs.KindFaultBatch, Track: obs.TrackFaultHandler, Block: int64(i)})
		}
	})
}

// keyTableNs is the host cost of binding a fresh idempotency key plus
// looking up an existing one, with keys shaped like the workload's.
func keyTableNs(keyOf func(i int) string) float64 {
	var keys []string
	for i := 0; i < 1<<14; i++ {
		keys = append(keys, keyOf(i))
	}
	return perOp(10*time.Millisecond, func(n int) {
		t := admission.NewKeyTable()
		for i := 0; i < n; i++ {
			k := keys[i%len(keys)]
			t.Bind(k, uint64(i))
			t.Lookup(keys[(i/2)%len(keys)])
		}
	})
}

// shedderNs is the host cost of one deadline admission decision plus the
// dequeue observation that feeds it.
func shedderNs() float64 {
	s := admission.NewShedder(admission.ShedOptions{Seed: 1})
	return perOp(10*time.Millisecond, func(n int) {
		for i := 0; i < n; i++ {
			s.ObserveStart(time.Millisecond)
			_ = s.Decide(i%8, time.Minute) // a minute-long deadline is always admitted
		}
	})
}

// journalAppendUs is the mean microseconds per Append of the submitted
// record a run of this spec writes, with or without the per-append fsync.
func journalAppendUs(dir string, spec deepum.RunSpec, sync bool) (float64, error) {
	data, err := json.Marshal(struct {
		Spec   deepum.RunSpec `json:"spec"`
		Demand int64          `json:"demand"`
	}{spec, 1 << 30})
	if err != nil {
		return 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("micro-%v.journal", sync))
	defer os.Remove(path)
	j, _, _, err := journal.OpenSync(path, sync)
	if err != nil {
		return 0, err
	}
	defer j.Close()
	target := time.Millisecond
	if sync {
		target = 50 * time.Millisecond
	}
	var appendErr error
	ns := perOp(target, func(n int) {
		for i := 0; i < n && appendErr == nil; i++ {
			appendErr = j.Append(journal.Record{Type: journal.RecSubmitted, RunID: uint64(i + 1), Data: data})
		}
	})
	return ns / 1e3, appendErr
}

// storePutGetMs is the median milliseconds of Put and of Get for the
// workload's distinct checkpoint blobs in a fresh two-replica store.
func storePutGetMs(dir string, blobs [][]byte) (put, get float64, err error) {
	path := filepath.Join(dir, "micro.store")
	defer os.Remove(path)
	st, _, err := store.Open(path, store.Options{Replicas: 2})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var puts, gets []float64
	for _, b := range blobs {
		t0 := time.Now()
		k, err := st.Put(b)
		if err != nil {
			return 0, 0, err
		}
		puts = append(puts, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := st.Get(k); err != nil {
			return 0, 0, err
		}
		gets = append(gets, ms(time.Since(t0)))
	}
	return median(puts), median(gets), nil
}

// ringLookupNs is the host cost of resolving a run's owning shard.
func ringLookupNs(fed *deepum.Federation) float64 {
	return perOp(10*time.Millisecond, func(n int) {
		for i := 0; i < n; i++ {
			fed.Owner(uint64(i + 1))
		}
	})
}

// runtimeSample reads the Go runtime's cumulative allocation and CPU
// counters; deltas around a call give its allocation and GC share.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2), idleCPU: val(3)}
}

// gcShare is the share of the CPU the process used between a and b that
// went to garbage collection.
func gcShare(a, b runtimeSample) float64 {
	used := (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU)
	if used <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / used
}

// adminMicro times the serving layers' entry points with this workload's
// spec, keys and checkpoint blobs: the admission key table and shedder,
// journal appends with and without fsync, store Put and Get, and the
// federation ring lookup.
func adminMicro(dir string, ls layerSet, spec deepum.RunSpec, blobs [][]byte) error {
	ls.set("admission.keytable_ns", keyTableNs(func(i int) string {
		return fmt.Sprintf("bench-%d-%d-%d", spec.Seed, i%clients, i)
	}))
	ls.set("admission.shedder_ns", shedderNs())
	for _, sync := range []bool{true, false} {
		us, err := journalAppendUs(dir, spec, sync)
		if err != nil {
			return err
		}
		if sync {
			ls.set("journal.append_sync_us", us)
		} else {
			ls.set("journal.append_nosync_us", us)
		}
	}
	if len(blobs) > 0 {
		put, get, err := storePutGetMs(dir, blobs)
		if err != nil {
			return err
		}
		ls.set("store.put_ms", put)
		ls.set("store.get_ms", get)
	}
	ringDir := filepath.Join(dir, "ring")
	if err := os.MkdirAll(ringDir, 0o755); err != nil {
		return err
	}
	fed, err := deepum.NewFederation(deepum.FederationOptions{Shards: 2, JournalDir: ringDir,
		Supervisor: deepum.SupervisorConfig{Workers: 1, Runner: deepum.RunnerFunc(
			func(context.Context, deepum.RunSpec, []byte, func([]byte)) (deepum.RunOutcome, error) {
				return deepum.RunOutcome{}, nil
			})}})
	if err != nil {
		return err
	}
	defer fed.Drain(context.Background())
	ls.set("federation.ring_lookup_ns", ringLookupNs(fed))
	return nil
}
