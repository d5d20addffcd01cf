// Package shard is the distributed compile tier's router: a resolver
// behind the same edge a reticle-serve runs (server.NewRouting). It
// consistent-hashes each kernel's text key (pipeline.TextKeyFor: the IR
// text as sent, under the family config's fingerprint — the router never
// parses) across N backend reticle-serve processes, dedupes /batch
// kernels and keys its router-local persistent disk cache by the same
// key, health-checks the backends, and re-hashes requests off dead ones.
// Alpha-renamed or re-spaced copies of one kernel are different text, so
// they may land on different backends; each backend's canonical artifact
// key still compiles it once there.
//
// The routing invariant the golden ring test pins: a key always lands on
// the same backend for a given backend set, so every backend's in-memory
// LRU stays hot for its slice of the key space, and adding a backend
// moves only the keys that now belong to it.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per backend on the router's
// ring: enough points that key ownership splits evenly (a few
// percent skew) without making ring construction noticeable.
const DefaultReplicas = 64

// ringPoint is one virtual node: a hash position owned by a backend.
type ringPoint struct {
	hash uint64
	idx  int // backend index
}

// Ring is an immutable consistent-hash ring over a fixed backend list.
// Build with NewRing; Pick is safe for concurrent use.
type Ring struct {
	points   []ringPoint
	backends int
}

// ringHash positions a string on the ring: the first 8 bytes of its
// SHA-256, big-endian. SHA-256 keeps the ring aligned with the cache
// key schema (also SHA-256) and is stable across processes, platforms,
// and Go versions — the golden assignment test depends on that.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring with `replicas` virtual nodes per backend
// (DefaultReplicas if <= 0). Backend identity is positional: the ring
// hashes "index#replica" rather than the backend URL, so renaming or
// re-addressing a backend (same position in the -backends list) keeps
// its key slice, and the golden test is not coupled to test-server port
// numbers.
func NewRing(backends int, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{
		points:   make([]ringPoint, 0, backends*replicas),
		backends: backends,
	}
	for b := 0; b < backends; b++ {
		prefix := strconv.Itoa(b) + "#"
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(prefix + strconv.Itoa(v)), idx: b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break by backend index so the
		// ring is deterministic regardless of sort stability.
		return r.points[i].idx < r.points[j].idx
	})
	return r
}

// Pick returns every backend index in preference order for key: the
// owner first (the first virtual node at or after the key's hash,
// wrapping), then each distinct backend encountered walking clockwise.
// The full order is what failover re-hashing walks when backends are
// down, so two routers with the same backend list always agree on both
// the owner and the fallback sequence.
func (r *Ring) Pick(key string) []int {
	if r.backends == 0 || len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	order := make([]int, 0, r.backends)
	seen := make([]bool, r.backends)
	for i := 0; i < len(r.points) && len(order) < r.backends; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			order = append(order, p.idx)
		}
	}
	return order
}

// Owner returns just the first-choice backend for key.
func (r *Ring) Owner(key string) int {
	order := r.Pick(key)
	if len(order) == 0 {
		return -1
	}
	return order[0]
}
