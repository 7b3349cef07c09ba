package supervisor

import "deepum/internal/store"

// Reference-counted checkpoint-store garbage collection. The store is
// append-only and content-addressed, so superseded checkpoints and the
// checkpoints of finished runs accumulate as garbage until something calls
// Compact with a liveness predicate. The supervisor derives that predicate
// from run retention: a key is live iff it is (or hashes to) the latest
// resume state of a non-terminal run — queued, running, or suspended.
// Terminal runs never resume, so their checkpoints are reclaimable.

// LiveCheckpointKeys returns the set of store keys any non-terminal run on
// this supervisor may still resume from. Inline resume payloads are hashed
// to the key their blob deduplicated into (content addressing makes the
// mapping exact). A federation unions these sets across its live shards
// before compacting a shared store.
func (s *Supervisor) LiveCheckpointKeys() map[store.Key]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := map[store.Key]bool{}
	for _, r := range s.runs {
		if r.info.State.Terminal() || len(r.resume) == 0 {
			continue
		}
		if k, ok := store.DecodeRef(r.resume); ok {
			live[k] = true
		} else {
			live[store.HashBytes(r.resume)] = true
		}
	}
	return live
}

// GarbageRatio reports the fraction of keys in st that live does not
// reference (0 for an empty store).
func GarbageRatio(st *store.Store, live map[store.Key]bool) float64 {
	keys := st.Keys()
	if len(keys) == 0 {
		return 0
	}
	dead := 0
	for _, k := range keys {
		if !live[k] {
			dead++
		}
	}
	return float64(dead) / float64(len(keys))
}

// maybeStoreGC kicks a background compaction when the garbage ratio
// exceeds Config.StoreGCThreshold. At most one compaction runs at a time;
// a trigger that arrives during one is recorded, and the running
// goroutine makes one more pass when it ends, so the last run to finish
// never leaves the store over the threshold. Callers may hold mu (the
// goroutine takes its own locks). Only wired when this supervisor solely
// owns the store (see Config.StoreGCThreshold).
func (s *Supervisor) maybeStoreGC() {
	if s.cfg.Checkpoints == nil || s.cfg.StoreGCThreshold <= 0 {
		return
	}
	s.gcPending.Store(true)
	if !s.gcBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		for {
			for s.gcPending.Swap(false) {
				s.storeGCPass()
			}
			s.gcBusy.Store(false)
			// A trigger that landed after the last Swap saw the GC busy and
			// left its pass to this goroutine.
			if !s.gcPending.Load() || !s.gcBusy.CompareAndSwap(false, true) {
				return
			}
		}
	}()
}

// storeGCPass compacts the store down to the live keys when the garbage
// ratio exceeds the threshold.
func (s *Supervisor) storeGCPass() {
	live := s.LiveCheckpointKeys()
	if GarbageRatio(s.cfg.Checkpoints, live) <= s.cfg.StoreGCThreshold {
		return
	}
	st, err := s.cfg.Checkpoints.Compact(func(k store.Key) bool { return live[k] })
	if err != nil {
		// Compaction failure never loses data (the old file stays the
		// truth); count it in Stats and move on.
		s.gcFailures.Add(1)
		return
	}
	// Reclaimed before runs: a reader that sees the compaction counted
	// also sees what it reclaimed.
	if d := st.BytesBefore - st.BytesAfter; d > 0 {
		s.gcReclaimed.Add(d)
	}
	s.gcRuns.Add(1)
}
