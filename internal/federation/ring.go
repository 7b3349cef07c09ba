package federation

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Consistent-hash ring over shard ordinals. Each live shard contributes
// ringReplicas virtual points; a run ID is owned by the first point
// clockwise from its hash. The construction is the standard one: removing
// a shard moves only the keys that hashed to its points (onto their
// clockwise successors), so a shard death redistributes the dead shard's
// runs across the survivors without reshuffling anything else.

// ringReplicas is the virtual-node count per shard. 64 points keep the
// expected per-shard load imbalance within a few percent for small fleets
// while the ring stays tiny (a few KiB).
const ringReplicas = 64

type ringPoint struct {
	hash  uint64
	shard int
}

type ring struct {
	points []ringPoint
}

// buildRing places ringReplicas virtual points per shard on the ring.
// Deterministic: the same shard set always yields the same ring, so two
// front-ends (or a restart) agree on placement without coordination.
func buildRing(shards []int) *ring {
	points := make([]ringPoint, 0, len(shards)*ringReplicas)
	for _, s := range shards {
		for v := 0; v < ringReplicas; v++ {
			points = append(points, ringPoint{
				hash:  hashString(fmt.Sprintf("shard-%d/vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// A full 64-bit collision between vnode labels is vanishingly
		// unlikely; break the tie deterministically anyway.
		return points[i].shard < points[j].shard
	})
	return &ring{points: points}
}

// owner returns the shard owning the given run ID.
func (r *ring) owner(id uint64) int {
	h := hashID(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].shard
}

// shards returns the distinct shard ordinals on the ring, ascending.
func (r *ring) shards() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range r.points {
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	sort.Ints(out)
	return out
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64.
// Both ring inputs need it. Raw FNV-1a barely avalanches its final bytes,
// so the vnode labels — which differ only in their trailing digits — hash
// ~2^40 apart and each shard's 64 points collapse into one or two
// contiguous ring blocks; sequential run IDs cluster the same way. The
// observable failure was gross ownership skew (one shard under 10% of the
// keys) and a dead shard's runs all adopted by a single successor instead
// of spreading across the survivors.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

func hashID(id uint64) uint64 {
	return mix64(id + 0x9E3779B97F4A7C15)
}
