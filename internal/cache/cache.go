// Package cache is the content-addressed artifact cache that sits in
// front of the compilation pipeline: a bounded in-memory LRU keyed by
// the canonical content hash of (normalized IR function, pipeline config
// fingerprint), with singleflight de-duplication so concurrent requests
// for the same kernel compile it exactly once.
//
// The cache sits *above* instruction selection on purpose: everything
// below (pattern library, cascade metadata, device layout) is shared
// read-only state already, so the unit of reuse is the whole artifact —
// placed assembly, Verilog, utilization, timing. A hit costs one map
// lookup and a list splice; a miss costs one pipeline run, shared by
// every request that arrives while it is in flight.
//
// Keys must be computed with KeyFor. The key schema is pinned by golden
// tests (cache_test.go): changing ir.CanonicalHash or the config
// fingerprint pipeline.ArtifactKeyFor renders shows up as a golden diff,
// not as a silent mass cache miss (or worse, a stale hit) in production.
package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"reticle/internal/faults"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
)

// FaultFill fires on the leader's fill path of GetOrComputeKeep, after the
// flight is registered but before the compute function runs — the spot
// where a real compile failure (or crash) would land, so chaos tests can
// prove waiters are released and errors are never cached.
var FaultFill = faults.Register("cache/fill", "cache leader fill path, before compute runs")

// Key is a content-addressed cache key; build it with KeyFor.
type Key string

// KeyFor computes the cache key for compiling f under cfg: a SHA-256
// over the kernel's canonical hash (alpha-normalized, see
// ir.CanonicalHash) and the config fingerprint (family + device +
// flags, see pipeline.ArtifactKeyFor).
func KeyFor(cfg *pipeline.Config, f *ir.Func) Key {
	return Key(pipeline.ArtifactKeyFor(cfg, f))
}

// DefaultEntries bounds the LRU when New is given a non-positive size.
const DefaultEntries = 512

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	// Entries / MaxEntries describe occupancy.
	Entries, MaxEntries int
	// Hits counts lookups served from a completed entry; Misses counts
	// lookups that ran the compute function (or failed doing so).
	Hits, Misses uint64
	// Coalesced counts lookups that piggybacked on an in-flight compute
	// for the same key instead of starting their own (singleflight).
	Coalesced uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Computes counts compute-function invocations; the singleflight
	// suites assert this stays at 1 under concurrent identical requests.
	Computes uint64
	// InFlight is the number of keys currently being computed.
	InFlight int
}

// HitRate is Hits over all completed lookups (coalesced waiters count as
// hits: they were served without a compile of their own).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Coalesced + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// flight is one in-progress compute, shared by the leader and any
// coalesced waiters. done is closed exactly once, after val/err are set.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// entry is one resident value.
type entry[V any] struct {
	key Key
	val V
}

// Cache is a bounded LRU with singleflight de-duplication, generic over
// the stored value: the memory level of every Store, and on its own the
// facade's artifact cache and the server's exact-text memo. All methods
// are safe for concurrent use.
type Cache[V any] struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	inflight map[Key]*flight[V]

	hits, misses, coalesced, evictions, computes uint64
}

// New returns a cache bounded to maxEntries artifacts (DefaultEntries if
// maxEntries <= 0).
func New[V any](maxEntries int) *Cache[V] {
	if maxEntries <= 0 {
		maxEntries = DefaultEntries
	}
	return &Cache[V]{
		max:      maxEntries,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		inflight: make(map[Key]*flight[V]),
	}
}

// Get returns the cached value for key, if resident, marking it most
// recently used.
func (c *Cache[V]) Get(key Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*entry[V]).val, true
}

// Peek is Get for fast paths that fall through to GetOrComputeKeep on a
// miss: a found entry is refreshed and counted as a hit, but a miss is
// not counted (GetOrComputeKeep will account for the lookup), so each
// logical request lands on exactly one counter.
func (c *Cache[V]) Peek(key Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*entry[V]).val, true
}

// Add inserts a value under key (replacing any existing entry) and
// evicts from the LRU tail as needed.
func (c *Cache[V]) Add(key Key, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, val)
}

func (c *Cache[V]) insertLocked(key Key, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry[V]).key)
		c.evictions++
	}
}

// GetOrComputeKeep returns the value for key, computing it with compute
// on a miss. Concurrent calls for the same key share one compute: the
// first caller becomes the leader and runs it; the rest wait for the
// leader's result (or their own context's cancellation, whichever comes
// first). hit reports whether this call was served without running a
// compile of its own — false only for the leader.
//
// Errors are never cached: a failed compute is reported to the leader
// and every waiter, and the next request for the key starts fresh. A
// panic inside compute is converted to an error (so waiters cannot hang)
// and propagated the same way, mirroring the batch tier's per-kernel
// recovery semantics.
//
// A successfully computed value for which keep returns false is returned
// to the leader and any waiters coalesced onto the same flight, but is
// never published to the LRU, so later requests cannot be served it as a
// cache hit. The service tier uses it to keep degraded (fallback-placed
// or shrink-truncated) artifacts out of the cache — publishing and then
// removing them would leave a window in which concurrent requests replay
// the degraded answer. A nil keep publishes every successful value.
func (c *Cache[V]) GetOrComputeKeep(ctx context.Context, key Key, compute func() (V, error), keep func(V) bool) (val V, hit bool, err error) {
	val, lvl, err := c.resolve(ctx, key, compute, keep)
	return val, lvl != Computed, err
}

// Level names what answered a lookup that may compute: the caller's own
// compute, or one of the ways it was served without one.
type Level uint8

const (
	// Computed: this caller's compute ran (the singleflight leader).
	Computed Level = iota
	// FromMemory: a resident entry.
	FromMemory
	// FromDisk: the store's leader found the value on disk (Store.Resolve).
	FromDisk
	// Coalesced: another caller's compute, in flight when this one asked.
	Coalesced
)

var levelNames = [...]string{"computed", "memory", "disk", "coalesced"}

func (l Level) String() string { return levelNames[l] }

// resolve is GetOrComputeKeep reporting which level answered.
func (c *Cache[V]) resolve(ctx context.Context, key Key, compute func() (V, error), keep func(V) bool) (val V, lvl Level, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*entry[V]).val, FromMemory, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.val, Coalesced, fl.err
		case <-ctx.Done():
			var zero V
			return zero, Coalesced, ctx.Err()
		}
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses++
	c.computes++
	c.mu.Unlock()

	val, err = func() (v V, e error) {
		defer func() {
			if r := recover(); r != nil {
				short := key
				if len(short) > 12 {
					short = short[:12] + "…"
				}
				var zero V
				v, e = zero, rerr.Wrap(rerr.Permanent, "internal_panic",
					"internal panic during compile",
					fmt.Errorf("cache: compute for key %s: panic: %v", short, r))
			}
		}()
		if ferr := FaultFill.Fire(ctx); ferr != nil {
			var zero V
			return zero, ferr
		}
		return compute()
	}()

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil && (keep == nil || keep(val)) {
		c.insertLocked(key, val)
	}
	c.mu.Unlock()
	fl.val, fl.err = val, err
	close(fl.done)
	return val, Computed, err
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:    c.ll.Len(),
		MaxEntries: c.max,
		Hits:       c.hits,
		Misses:     c.misses,
		Coalesced:  c.coalesced,
		Evictions:  c.evictions,
		Computes:   c.computes,
		InFlight:   len(c.inflight),
	}
}
