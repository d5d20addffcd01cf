package cache_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"reticle/internal/cache"
	"reticle/internal/faults"
	"reticle/internal/place"
	"reticle/internal/rerr"
)

// The two-level store's contract, run once per shape of namespace: raw
// bytes and a pointer value under a JSON codec (the values of the stage
// memo and the hint store, which the service keeps in memory only), and
// pre-rendered wire bytes with a parsed summary and a keep predicate that
// reads it (the artifact tier, the one namespace the service gives a disk
// level). The packages that own those namespaces test only what they add
// on top: key schema, counters, fault-point names, /stats JSON.

var (
	testLookupFault = faults.Register("cachetest/lookup", "contract suite: a namespace's own lookup point")
	testStoreFault  = faults.Register("cachetest/store", "contract suite: a namespace's own store point")
)

// contract is one namespace under test plus the values to drive it with.
type contract[V any] struct {
	ns    cache.Namespace[V]
	good  func(i int) V    // distinct values Keep accepts
	bad   V                // a value Keep rejects
	bytes func(v V) []byte // canonical form, for byte-identity checks
}

// rendered mirrors the artifact tier's value: wire bytes that are their
// own disk payload, and a summary parsed back out of them on decode.
type rendered struct {
	wire     []byte
	degraded bool
}

func renderedOf(verilog string, degraded bool) rendered {
	wire, _ := json.Marshal(map[string]any{"verilog": verilog, "degraded": degraded})
	return rendered{wire: wire, degraded: degraded}
}

func key(i int) cache.Key { return cache.Key(fmt.Sprintf("%064x", i+1)) }

func openStore[V any](t *testing.T, dir string, ns cache.Namespace[V]) *cache.Store[V] {
	t.Helper()
	d, err := cache.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cache.NewStore(8, d, ns)
}

func armed(inj faults.Injection, points ...faults.Point) (context.Context, *faults.Plan) {
	m := map[faults.Point]faults.Injection{}
	for _, p := range points {
		m[p] = inj
	}
	plan := faults.NewPlan(m)
	return faults.WithPlan(context.Background(), plan), plan
}

func TestStoreContract(t *testing.T) {
	t.Run("raw-bytes", func(t *testing.T) {
		runContract(t, contract[[]byte]{
			ns: cache.Namespace[[]byte]{
				Encode:      func(p []byte) []byte { return p },
				Decode:      func(p []byte) ([]byte, bool) { return p, len(p) > 0 },
				Keep:        func(p []byte) bool { return len(p) > 0 },
				LookupFault: testLookupFault,
				StoreFault:  testStoreFault,
			},
			good:  func(i int) []byte { return []byte(fmt.Sprintf("def f%d() {}", i)) },
			bad:   nil,
			bytes: func(p []byte) []byte { return p },
		})
	})
	t.Run("anchors-json", func(t *testing.T) {
		enc := func(a *place.Anchors) []byte {
			raw, _ := json.Marshal(a)
			return raw
		}
		runContract(t, contract[*place.Anchors]{
			ns: cache.Namespace[*place.Anchors]{
				Encode: enc,
				Decode: func(raw []byte) (*place.Anchors, bool) {
					a := new(place.Anchors)
					if json.Unmarshal(raw, a) != nil || len(a.Sol) == 0 {
						return nil, false
					}
					return a, true
				},
				Keep:        func(a *place.Anchors) bool { return a != nil && len(a.Sol) > 0 && a.Signature != "" },
				LookupFault: testLookupFault,
			},
			good:  func(i int) *place.Anchors { return &place.Anchors{Signature: "sig", Sol: []int{i, 7}, ColdSteps: 42} },
			bad:   &place.Anchors{Signature: "sig"},
			bytes: enc,
		})
	})
	t.Run("rendered-artifact", func(t *testing.T) {
		runContract(t, contract[rendered]{
			ns: cache.Namespace[rendered]{
				Encode: func(r rendered) []byte { return r.wire },
				Decode: func(wire []byte) (rendered, bool) {
					var sum struct {
						Degraded bool `json:"degraded"`
					}
					err := json.Unmarshal(wire, &sum)
					return rendered{wire: wire, degraded: sum.Degraded}, err == nil
				},
				Keep: func(r rendered) bool { return !r.degraded },
			},
			good:  func(i int) rendered { return renderedOf(fmt.Sprintf("module m%d; endmodule", i), false) },
			bad:   renderedOf("module fallback; endmodule", true),
			bytes: func(r rendered) []byte { return r.wire },
		})
	})
}

func runContract[V any](t *testing.T, c contract[V]) {
	bg := context.Background()
	same := func(t *testing.T, got, want V) {
		t.Helper()
		if !bytes.Equal(c.bytes(got), c.bytes(want)) {
			t.Fatalf("served %q, want %q", c.bytes(got), c.bytes(want))
		}
	}
	noCompute := func() (V, error) {
		t.Error("compute ran for a stored key")
		return c.good(0), nil
	}

	t.Run("memory-hit", func(t *testing.T) {
		s := cache.NewStore(8, nil, c.ns)
		if _, ok := s.Lookup(bg, key(0)); ok {
			t.Fatal("empty store reported a hit")
		}
		if !s.Put(bg, key(0), c.good(0)) {
			t.Fatal("Put rejected a keepable value")
		}
		v, ok := s.Lookup(bg, key(0))
		if !ok {
			t.Fatal("stored value not found")
		}
		same(t, v, c.good(0))
		v, lvl, err := s.Resolve(bg, key(0), noCompute)
		if err != nil || lvl != cache.FromMemory {
			t.Fatalf("Resolve of a resident key: level=%v err=%v", lvl, err)
		}
		same(t, v, c.good(0))
		if s.DiskStats() != nil {
			t.Error("memory-only store reports disk stats")
		}
	})

	t.Run("disk-hit-promotes", func(t *testing.T) {
		dir := t.TempDir()
		openStore(t, dir, c.ns).Put(bg, key(0), c.good(0))
		for name, read := range map[string]func(s *cache.Store[V]) (V, bool){
			"Lookup": func(s *cache.Store[V]) (V, bool) { return s.Lookup(bg, key(0)) },
			"Resolve": func(s *cache.Store[V]) (V, bool) {
				v, lvl, err := s.Resolve(bg, key(0), noCompute)
				return v, lvl == cache.FromDisk && err == nil
			},
		} {
			s := openStore(t, dir, c.ns)
			v, ok := read(s)
			if !ok {
				t.Fatalf("%s: persisted value not served", name)
			}
			same(t, v, c.good(0))
			if _, ok := s.Peek(key(0)); !ok {
				t.Errorf("%s: disk hit not promoted into memory", name)
			}
			if ds := s.DiskStats(); ds.Hits != 1 {
				t.Errorf("%s: disk stats %+v, want one hit", name, ds)
			}
		}
	})

	t.Run("corrupt-frame-heals", func(t *testing.T) {
		dir := t.TempDir()
		openStore(t, dir, c.ns).Put(bg, key(0), c.good(0))
		// One Put made one record in one segment, so the segment's last
		// byte is the record's.
		segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
		if len(segs) != 1 {
			t.Fatalf("segments %v after one Put, want one", segs)
		}
		path := segs[0]
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x01 // a payload bit only the checksum can catch
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir, c.ns)
		if v, ok := s.Lookup(bg, key(0)); ok {
			t.Fatalf("corrupt frame served: %q", c.bytes(v))
		}
		if ds := s.DiskStats(); ds.Quarantined != 1 || ds.Entries != 0 {
			t.Fatalf("corrupt frame not quarantined: %+v", ds)
		}
		// The recompute's store heals the slot, for this process and the next.
		v, lvl, err := s.Resolve(bg, key(0), func() (V, error) { return c.good(0), nil })
		if err != nil || lvl != cache.Computed {
			t.Fatalf("Resolve after quarantine: level=%v err=%v, want a compute", lvl, err)
		}
		same(t, v, c.good(0))
		v, ok := openStore(t, dir, c.ns).Lookup(bg, key(0))
		if !ok {
			t.Fatal("healed slot not served after reopen")
		}
		same(t, v, c.good(0))
	})

	t.Run("faults-degrade", func(t *testing.T) {
		once := faults.Injection{Class: rerr.Transient, Times: 1}
		dir := t.TempDir()
		s := openStore(t, dir, c.ns)
		ctx, _ := armed(once, cache.FaultDiskWrite)
		v, lvl, err := s.Resolve(ctx, key(0), func() (V, error) { return c.good(0), nil })
		if err != nil || lvl != cache.Computed {
			t.Fatalf("write fault failed the compute that fed it: level=%v err=%v", lvl, err)
		}
		same(t, v, c.good(0))
		if ds := s.DiskStats(); ds.Writes != 0 || ds.WriteErrors != 1 || ds.Entries != 0 {
			t.Fatalf("write fault accounting: %+v", ds)
		}
		if _, ok := s.Peek(key(0)); !ok {
			t.Error("dropped persist also dropped the memory level")
		}
		s.Put(bg, key(1), c.good(1))
		s = openStore(t, dir, c.ns)
		ctx, _ = armed(once, cache.FaultDiskRead)
		if _, ok := s.Lookup(ctx, key(1)); ok {
			t.Fatal("armed read fault still served")
		}
		if ds := s.DiskStats(); ds.ReadErrors != 1 {
			t.Fatalf("read fault accounting: %+v", ds)
		}
		ctx, _ = armed(once, cache.FaultDiskRead)
		ran := false
		_, lvl, err = s.Resolve(ctx, key(1), func() (V, error) { ran = true; return c.good(1), nil })
		if err != nil || lvl != cache.Computed || !ran {
			t.Fatalf("read fault under Resolve: ran=%v level=%v err=%v, want a plain recompute", ran, lvl, err)
		}
		// The namespace's own points: an armed lookup is a miss that loses
		// nothing, an armed store is a dropped write.
		if c.ns.LookupFault != "" {
			ctx, _ = armed(once, c.ns.LookupFault)
			if _, ok := s.Lookup(ctx, key(1)); ok {
				t.Error("armed lookup fault still served")
			}
			if _, ok := s.Lookup(bg, key(1)); !ok {
				t.Error("value lost to a faulted lookup")
			}
		}
		if c.ns.StoreFault != "" {
			ctx, _ = armed(once, c.ns.StoreFault)
			if s.Put(ctx, key(2), c.good(2)) {
				t.Error("armed store fault still stored")
			}
			if _, ok := s.Lookup(bg, key(2)); ok {
				t.Error("dropped write is servable")
			}
		}
	})

	t.Run("panics-contained", func(t *testing.T) {
		dir := t.TempDir()
		openStore(t, dir, c.ns).Put(bg, key(0), c.good(0))
		sick := c.ns
		sick.Decode = func([]byte) (V, bool) { panic("codec went sideways") }
		sick.Encode = func(V) []byte { panic("codec went sideways") }
		s := openStore(t, dir, sick)
		if _, ok := s.Lookup(bg, key(0)); ok {
			t.Error("panicking decode reported a hit")
		}
		if !s.Put(bg, key(1), c.good(1)) {
			t.Error("panicking persist lost the memory level's accept")
		}
		if _, ok := s.Peek(key(1)); !ok {
			t.Error("panicking persist dropped the memory level")
		}
		// Under Resolve a panic — the codec's or compute's — is the typed
		// error the leader and its waiters see, and nothing is stored.
		for k, compute := range map[cache.Key]func() (V, error){
			key(0): func() (V, error) { return c.good(0), nil }, // decode panics first
			key(2): func() (V, error) { panic("solver went sideways") },
		} {
			_, _, err := s.Resolve(bg, k, compute)
			if rerr.CodeOf(err) != "internal_panic" || !strings.Contains(err.Error(), "panic") {
				t.Errorf("Resolve(%s…) err = %v, want the typed internal_panic", k[60:], err)
			}
			if _, ok := s.Peek(k); ok {
				t.Errorf("panicked fill of %s… was stored", k[60:])
			}
		}
	})

	t.Run("keep-rejects-both-levels", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir, c.ns)
		if s.Put(bg, key(0), c.bad) {
			t.Error("Put accepted a value Keep rejects")
		}
		// Resolve hands the rejected value to the leader and to a waiter
		// coalesced onto its flight, and to nobody after them.
		release := make(chan struct{})
		started := make(chan struct{})
		leader := make(chan V, 1)
		go func() {
			v, _, _ := s.Resolve(bg, key(0), func() (V, error) {
				close(started)
				<-release
				return c.bad, nil
			})
			leader <- v
		}()
		<-started
		waiter := make(chan V, 1)
		go func() {
			v, _, _ := s.Resolve(bg, key(0), noCompute)
			waiter <- v
		}()
		for s.Stats().Coalesced < 1 {
			runtime.Gosched() // until the waiter is parked on the flight
		}
		close(release)
		same(t, <-leader, c.bad)
		same(t, <-waiter, c.bad)
		if _, ok := s.Lookup(bg, key(0)); ok {
			t.Error("rejected value is servable")
		}
		if ds := s.DiskStats(); ds.Writes != 0 || ds.Entries != 0 || s.Stats().Entries != 0 {
			t.Errorf("rejected value reached a level: mem %+v disk %+v", s.Stats(), ds)
		}
		ran := false
		s.Resolve(bg, key(0), func() (V, error) { ran = true; return c.good(0), nil })
		if !ran {
			t.Error("request after a rejected value did not recompute")
		}
	})

	t.Run("restart-byte-identical", func(t *testing.T) {
		dir := t.TempDir()
		first := openStore(t, dir, c.ns)
		const n = 5
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				first.Put(bg, key(i), c.good(i))
			} else {
				first.Resolve(bg, key(i), func() (V, error) { return c.good(i), nil })
			}
		}
		// No close exists or is needed: abandoning the store models a kill.
		second := openStore(t, dir, c.ns)
		for i := 0; i < n; i++ {
			v, lvl, err := second.Resolve(bg, key(i), noCompute)
			if err != nil || lvl != cache.FromDisk {
				t.Fatalf("key %d after restart: level=%v err=%v", i, lvl, err)
			}
			same(t, v, c.good(i))
		}
		if ds := second.DiskStats(); ds.Hits != n || ds.Misses != 0 {
			t.Errorf("restart disk stats %+v, want %d hits", ds, n)
		}
	})
}
