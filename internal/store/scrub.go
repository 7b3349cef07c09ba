package store

import (
	"fmt"
	"time"
)

// The scrubber is the store's bit-rot defense: it re-reads the whole file
// and re-verifies every frame (CRC and content hash) against the live
// index, catching damage that arrived after Open's scan — a flipped bit
// under the page cache, a torn sector, a lying disk. For every damaged
// key it makes one of two moves, and only these two:
//
//   - REPAIR: at least one replica still verifies → append fresh replicas
//     from the surviving copy until the configured replication factor is
//     restored. The key keeps resolving; the dead frames become garbage
//     for the next compaction.
//   - DEGRADE: every replica is damaged → the key is dropped from the
//     index and reported Lost. A caller holding a reference observes
//     *NotFoundError and falls back to a cold restart — the run is slower,
//     never lost, and never resumed from corrupt state.
//
// The scrubber never invents data and never rewrites a frame in place;
// the file stays append-only.

// ScrubReport describes one scrub pass.
type ScrubReport struct {
	// Frames is the number of frames that verified clean; Keys the
	// distinct keys they cover.
	Frames int `json:"frames"`
	Keys   int `json:"keys"`
	// CorruptFrames counts frames that failed verification this pass
	// (including frames already known-dead from Open's scan).
	CorruptFrames int `json:"corrupt_frames"`
	// Repaired counts keys whose replication was restored from a
	// surviving replica.
	Repaired int `json:"repaired"`
	// Lost lists keys with no surviving replica, now dropped from the
	// index. Callers degrade those runs to cold restarts.
	Lost []Key `json:"lost,omitempty"`
	// TornBytes counts trailing bytes dropped because the tail no longer
	// parsed (damage landed after the last intact frame).
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// BytesScanned is the file size the pass covered.
	BytesScanned int64 `json:"bytes_scanned"`
}

// Scrub re-verifies every frame and repairs or degrades damaged keys (see
// the package comment above). It holds the store's write lock for the
// duration — scrubbing a multi-GiB store pauses Puts; size the interval
// accordingly.
func (s *Store) Scrub() (ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep ScrubReport
	if s.closed {
		return rep, errClosed
	}
	data, err := readAll(s.out.f)
	if err != nil {
		return rep, fmt.Errorf("store: scrub read: %w", err)
	}
	rep.BytesScanned = int64(len(data))
	if err := checkHeader(data); err != nil {
		// The header itself rotted. Nothing in the file is addressable
		// anymore; this is beyond scrub's repair power.
		return rep, fmt.Errorf("store: scrub: %w", err)
	}
	res := scanFrames(data)
	rep.Frames = len(res.frames)
	rep.CorruptFrames = len(res.corrupt)
	if res.torn >= 0 {
		// Tail damage: every intact frame precedes it (scan already tried
		// to resync). Truncate so future appends extend a clean file.
		rep.TornBytes = int64(len(data)) - res.torn
		if err := s.out.Truncate(res.torn); err != nil {
			return rep, fmt.Errorf("store: scrub truncating torn tail at %d: %w", res.torn, err)
		}
	}

	// Rebuild the intact view and diff it against the index: repair what
	// has a surviving replica, degrade what does not.
	intact := map[Key][]frameRef{}
	for _, fr := range res.frames {
		intact[fr.key] = append(intact[fr.key], fr)
	}
	rep.Keys = len(intact)

	lostSet := map[Key]bool{}
	for _, key := range s.sortedKeysLocked() {
		refs := intact[key]
		if len(refs) == 0 {
			// DEGRADE: no surviving replica anywhere in the file.
			delete(s.index, key)
			lostSet[key] = true
			rep.Lost = append(rep.Lost, key)
			continue
		}
		if len(refs) >= s.opts.Replicas {
			// Healthy (or over-replicated from an earlier repair); adopt
			// the freshly verified view.
			s.index[key] = refs
			continue
		}
		// REPAIR: fewer intact replicas than configured. Re-append from a
		// surviving copy — the store stays append-only.
		blob, err := s.readGoodLocked(key, refs)
		if err != nil {
			// The replica rotted between the scan and this read; degrade.
			delete(s.index, key)
			lostSet[key] = true
			rep.Lost = append(rep.Lost, key)
			continue
		}
		s.index[key] = refs
		if err := s.appendLocked(key, blob, s.opts.Replicas-len(refs)); err != nil {
			return rep, fmt.Errorf("store: scrub repairing key %s: %w", key, err)
		}
		rep.Repaired++
	}
	if len(lostSet) > 0 {
		live := s.order[:0]
		for _, k := range s.order {
			if !lostSet[k] {
				live = append(live, k)
			}
		}
		s.order = live
	}
	return rep, nil
}

// scrubLoop is the background scrubber started by Open when
// Options.ScrubEvery is positive; Close stops it.
func (s *Store) scrubLoop(every time.Duration) {
	defer close(s.scrubDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.scrubStop:
			return
		case <-tick.C:
			rep, err := s.Scrub()
			if s.opts.OnScrub != nil {
				s.opts.OnScrub(rep, err)
			}
		}
	}
}
