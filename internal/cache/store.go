// Store is the two-level store every cache tier of the service is an
// instance of: a bounded LRU with singleflight (Cache) over an optional
// checksummed disk level (Disk). It owns the policy the tiers share —
// look in memory, then on disk, and promote a disk hit; write memory and
// disk together; never store a value the namespace's Keep rejects;
// degrade every failure of its own to a miss or a dropped write — so a
// namespace supplies only what differs: its key schema (the caller's),
// its codec, its fault points, and its counters (the caller's, fed by
// the booleans Lookup and Put return).
package cache

import (
	"context"

	"reticle/internal/faults"
)

// Namespace is what one instance of the store supplies.
type Namespace[V any] struct {
	// Encode renders a value as the payload the disk level frames. An
	// empty payload skips the persist. A store without a disk level
	// never calls Encode or Decode, so a memory-only namespace leaves
	// both nil.
	Encode func(v V) []byte
	// Decode rebuilds a value from a checksum-verified payload; ok=false
	// (a payload this build cannot use) is a miss.
	Decode func(payload []byte) (v V, ok bool)
	// Keep reports whether a value may be stored at all; a rejected value
	// reaches neither level. Nil keeps every value.
	Keep func(v V) bool
	// LookupFault and StoreFault are the namespace's own chaos points,
	// fired inside Lookup's and Put's panic containment: armed, a lookup
	// is a miss and a write is dropped. Empty means none.
	LookupFault, StoreFault faults.Point
}

// Store is one namespace's two-level store. All methods are safe for
// concurrent use. Values handed to Put or returned by a compute function
// must not be mutated afterwards: the memory level shares them with
// later lookups.
type Store[V any] struct {
	ns   Namespace[V]
	mem  *Cache[V]
	disk *Disk // nil when memory-only
}

// NewStore returns a store whose memory level is bounded to maxEntries
// values (DefaultEntries if maxEntries <= 0), over disk when non-nil.
func NewStore[V any](maxEntries int, disk *Disk, ns Namespace[V]) *Store[V] {
	return &Store[V]{ns: ns, mem: New[V](maxEntries), disk: disk}
}

func (s *Store[V]) keeps(v V) bool { return s.ns.Keep == nil || s.ns.Keep(v) }

// fromDisk is the second-level read: a frame that is missing, fails its
// checksum (Disk quarantines it), or does not decode is a miss.
func (s *Store[V]) fromDisk(ctx context.Context, key Key) (v V, ok bool) {
	if s.disk == nil {
		return v, false
	}
	payload, ok := s.disk.Get(ctx, key)
	if !ok {
		return v, false
	}
	return s.ns.Decode(payload)
}

// toDisk is the write-through. A failed persist (disk full, injected
// write fault) is counted inside Disk and costs only restart warmth: the
// value is already in memory or on its way to the caller.
func (s *Store[V]) toDisk(ctx context.Context, key Key, v V) {
	if s.disk == nil {
		return
	}
	if payload := s.ns.Encode(v); len(payload) > 0 {
		_ = s.disk.Put(ctx, key, payload)
	}
}

// Peek is the memory level alone, for hot paths that fall through to
// Resolve on a miss (see Cache.Peek).
func (s *Store[V]) Peek(key Key) (V, bool) { return s.mem.Peek(key) }

// Lookup returns the value stored under key, consulting memory then disk
// and promoting a disk hit into memory. Every failure — an armed fault,
// a corrupt frame, a panic in the codec — is a miss: the caller
// recomputes what it would have recomputed anyway. A memory miss is not
// counted (like Cache.Peek), so a caller that falls through to Resolve
// lands each logical lookup on one counter.
func (s *Store[V]) Lookup(ctx context.Context, key Key) (v V, ok bool) {
	defer func() {
		if recover() != nil {
			var zero V
			v, ok = zero, false
		}
	}()
	if s.ns.LookupFault.Fire(ctx) != nil {
		return v, false
	}
	if v, ok := s.mem.Peek(key); ok {
		return v, true
	}
	if v, ok := s.fromDisk(ctx, key); ok {
		s.mem.Add(key, v)
		return v, true
	}
	return v, false
}

// Put stores v under key in memory and, best-effort, on disk, reporting
// whether the value was accepted. A value Keep rejects, an armed store
// fault, and a panic on the way all degrade to a dropped write.
func (s *Store[V]) Put(ctx context.Context, key Key, v V) (stored bool) {
	defer func() { recover() }()
	if !s.keeps(v) || s.ns.StoreFault.Fire(ctx) != nil {
		return false
	}
	s.mem.Add(key, v)
	stored = true
	s.toDisk(ctx, key, v)
	return stored
}

// Resolve returns the value for key, computing it at most once across
// concurrent callers (Cache.GetOrComputeKeep: errors are never stored, a
// panic in compute or the codec becomes a typed error for the leader and
// every waiter). The leader looks on disk before it computes, and writes
// a computed value through to both levels unless Keep rejects it — such
// a value goes to the leader and its coalesced waiters only. The level
// says what answered: Computed only for the caller whose compute ran,
// FromDisk for a leader that found the value there.
func (s *Store[V]) Resolve(ctx context.Context, key Key, compute func() (V, error)) (V, Level, error) {
	diskServed := false
	v, lvl, err := s.mem.resolve(ctx, key, func() (V, error) {
		if v, ok := s.fromDisk(ctx, key); ok {
			diskServed = true
			return v, nil
		}
		v, err := compute()
		if err == nil && s.keeps(v) {
			s.toDisk(ctx, key, v)
		}
		return v, err
	}, s.ns.Keep)
	if diskServed {
		lvl = FromDisk
	}
	return v, lvl, err
}

// Stats snapshots the memory level's counters.
func (s *Store[V]) Stats() Stats { return s.mem.Stats() }

// DiskStats snapshots the disk level's counters, nil when memory-only.
func (s *Store[V]) DiskStats() *DiskStats {
	if s.disk == nil {
		return nil
	}
	ds := s.disk.Stats()
	return &ds
}
