// Package hintcache is the cross-request placement hint store: the
// hint namespace of the store (cache.Store, DESIGN.md §8), held in
// memory only, from structural key (pipeline.HintKeyFor — structural IR
// hash + config fingerprint) to the placement anchors of the most
// recent successful non-degraded compile with that structure.
//
// The store implements pipeline.HintCache. It is strictly an
// accelerator: cache.Store degrades Lookup to nil — a plain cold solve —
// on every internal failure (armed fault point, missing entry, panic),
// and adoption is signature-checked inside internal/place, so nothing
// this package serves can change a compile's output.
package hintcache

import (
	"context"
	"sync/atomic"

	"reticle/internal/cache"
	"reticle/internal/faults"
	"reticle/internal/place"
)

// FaultLookup fires at the top of Store.Lookup: an armed plan turns
// every hint lookup into a miss, which the chaos suite uses to prove a
// failing hint cache degrades to cold solves with zero 5xx.
var FaultLookup = faults.Register("hintcache/lookup", "hint cache lookup: degrade to a cold solve")

// Store is the hint namespace of the store (cache.Store): placement
// anchors under the pipeline's structural hint keys. All methods are
// safe for concurrent use; the zero value is not valid, use New.
type Store struct {
	st *cache.Store[*place.Anchors]

	hits, misses, records atomic.Uint64
}

// namespace: only an anchor set place could adopt is stored —
// the pipeline never records degraded placements, and the guard keeps a
// buggy caller from poisoning the store with entries Lookup would serve
// and place would reject.
var namespace = cache.Namespace[*place.Anchors]{
	Keep: func(a *place.Anchors) bool {
		return a != nil && len(a.Sol) > 0 && a.Signature != ""
	},
	LookupFault: FaultLookup,
}

// New returns a store bounded to maxEntries anchor sets
// (cache.DefaultEntries if maxEntries <= 0).
func New(maxEntries int) *Store {
	return &Store{st: cache.NewStore(maxEntries, nil, namespace)}
}

// Lookup returns the anchors recorded under key, nil on any failure: the
// caller runs the cold solve it would have run anyway.
func (s *Store) Lookup(ctx context.Context, key string) *place.Anchors {
	if s == nil {
		return nil
	}
	a, ok := s.st.Lookup(ctx, cache.Key(key))
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return a
}

// Record stores the anchors of a successful non-degraded placement under
// key.
func (s *Store) Record(ctx context.Context, key string, a *place.Anchors) {
	if s != nil && s.st.Put(ctx, cache.Key(key), a) {
		s.records.Add(1)
	}
}

// Stats is a point-in-time snapshot of the store's counters, and the
// hint_cache section of GET /stats. Lookups happen only on artifact-cache
// misses, so Hits + Misses tracks compiled kernels, not requests.
type Stats struct {
	// Entries / MaxEntries describe in-memory occupancy.
	Entries    int `json:"entries"`
	MaxEntries int `json:"max_entries"`
	// Hits / Misses count Lookup outcomes (an armed hintcache/lookup
	// fault is a miss).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Records counts accepted Record calls.
	Records uint64 `json:"records"`
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
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Records:    s.records.Load(),
	}
}
