// Package stagecache is the cross-request per-stage compilation memo
// (DESIGN.md §15): the stage namespace of the two-level store
// (cache.Store, DESIGN.md §8), from content-addressed stage key
// (pipeline.SelectKeyFor and friends — stage tag + exact stage input
// text + stage-relevant config fingerprint slice) to the stage's
// serialized result.
//
// The store implements pipeline.StageCache. It is strictly an
// accelerator: cache.Store degrades Lookup to a miss on every internal
// failure (armed fault point, missing entry, disk error, corrupt frame,
// panic) and Store to a no-op, and the pipeline validates every payload
// before adopting it (asm parse, text-frame decode, place.Verify for
// placements), so nothing this package serves can change a compile's
// output — only how much of it had to be recomputed.
package stagecache

import (
	"context"
	"sync/atomic"

	"reticle/internal/cache"
	"reticle/internal/faults"
	"reticle/internal/pipeline"
)

// Fault points for the chaos suite and operational drills. An armed
// lookup plan turns every memo consult into a miss — the pipeline must
// recompute transparently with zero 5xx — and an armed store plan drops
// every memo write, so the cache never warms.
var (
	FaultLookup = faults.Register("stagecache/lookup", "stage cache lookup: degrade to a recompute")
	FaultStore  = faults.Register("stagecache/store", "stage cache store: drop the memo write")
)

// StageStats is one stage's counter snapshot, and its entry in the
// stage_cache section of GET /stats.
type StageStats struct {
	// Hits / Misses count Lookup outcomes (a disk promotion is a hit;
	// an armed stagecache/lookup fault is a miss).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Stores counts accepted Store calls; Bytes totals their payload
	// bytes (cumulative — LRU evictions do not subtract).
	Stores uint64 `json:"stores"`
	Bytes  int64  `json:"bytes"`
}

// counters is the internal atomic form of StageStats.
type counters struct {
	hits, misses, stores atomic.Uint64
	bytes                atomic.Int64
}

func (c *counters) snapshot() StageStats {
	return StageStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Stores: c.stores.Load(),
		Bytes:  c.bytes.Load(),
	}
}

// Store is the stage namespace of the two-level store (cache.Store):
// raw payload bytes under the pipeline's stage keys, plus one counter set
// per stage. All methods are safe for concurrent use; the zero value is
// not valid, use New or Open. Payloads handed to Store must not be
// mutated afterwards.
type Store struct {
	st *cache.Store[[]byte]

	// One counter set per pipeline stage. Stage keys embed the stage
	// tag in the hash, so the four stages share one LRU without
	// collisions; only the accounting is split.
	sel, cas, pl, out counters
	other             counters // unknown stage names, future-proofing
}

// namespace: payloads are their own disk form; an empty one is never
// stored or served — the pipeline never stores degraded stage results,
// and the guard keeps a buggy caller from poisoning the memo with
// entries Lookup would serve and the pipeline would reject.
var namespace = cache.Namespace[[]byte]{
	Encode:      func(p []byte) []byte { return p },
	Decode:      func(p []byte) ([]byte, bool) { return p, len(p) > 0 },
	Keep:        func(p []byte) bool { return len(p) > 0 },
	LookupFault: FaultLookup,
	StoreFault:  FaultStore,
	Shield:      true,
}

// New returns a memory-only store bounded to maxEntries stage payloads
// (cache.DefaultEntries if maxEntries <= 0). The four stages share the
// bound; payloads are small (kilobytes of assembly/Verilog text), so
// entry count is the natural unit.
func New(maxEntries int) *Store {
	return &Store{st: cache.NewStore(maxEntries, nil, namespace)}
}

// Open returns a default-sized store over a persistent level rooted at
// dir (created if needed), byte-bounded and checksummed like the
// artifact disk cache. Callers put it under the artifact cache root's
// "stages" subdirectory: cache.OpenDisk skips subdirectories when
// indexing, so the artifact, hint, and stage stores share one -disk tree
// without seeing each other's files.
func Open(dir string, maxBytes int64) (*Store, error) {
	d, err := cache.OpenDisk(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	return &Store{st: cache.NewStore(0, d, namespace)}, nil
}

// stage maps a pipeline stage name to its counter set.
func (s *Store) stage(name string) *counters {
	switch name {
	case pipeline.StageSelect:
		return &s.sel
	case pipeline.StageCascade:
		return &s.cas
	case pipeline.StagePlace:
		return &s.pl
	case pipeline.StageOutput:
		return &s.out
	}
	return &s.other
}

// Lookup returns the payload stored under (stage, key). Any failure is
// a miss: the caller recomputes the stage it would have recomputed
// anyway.
func (s *Store) Lookup(ctx context.Context, stage, key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	payload, ok := s.st.Lookup(ctx, cache.Key(key))
	if c := s.stage(stage); ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return payload, ok
}

// Store records a stage result under (stage, key).
func (s *Store) Store(ctx context.Context, stage, key string, payload []byte) {
	if s == nil || key == "" {
		return
	}
	if s.st.Put(ctx, cache.Key(key), payload) {
		c := s.stage(stage)
		c.stores.Add(1)
		c.bytes.Add(int64(len(payload)))
	}
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Entries / MaxEntries describe in-memory occupancy, shared by all
	// stages.
	Entries, MaxEntries int
	// Per-stage Lookup/Store counters.
	Select, Cascade, Place, Output StageStats
	// Disk snapshots the persistent level, nil when memory-only.
	Disk *cache.DiskStats
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	ms := s.st.Stats()
	return Stats{
		Entries:    ms.Entries,
		MaxEntries: ms.MaxEntries,
		Select:     s.sel.snapshot(),
		Cascade:    s.cas.snapshot(),
		Place:      s.pl.snapshot(),
		Output:     s.out.snapshot(),
		Disk:       s.st.DiskStats(),
	}
}
