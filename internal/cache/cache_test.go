package cache_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"reticle/internal/cache"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
)

var update = flag.Bool("update", false, "rewrite the golden cache-key file under testdata/")

// families are the key-schema dimensions the golden test pins: one
// minimal config per bundled family (the fingerprint reads only names
// and flags, so no pattern library is needed to compute keys).
func families() map[string]*pipeline.Config {
	return map[string]*pipeline.Config{
		"ultrascale": {Target: ultrascale.Target(), Device: ultrascale.Device()},
		"agilex":     {Target: agilex.Target(), Device: agilex.Device()},
	}
}

func art() *pipeline.Artifact { return &pipeline.Artifact{} }

// TestGoldenCacheKeys pins the cache key for every bundled example
// program on both families. The key schema is the cache's on-the-wire
// contract — ir.CanonicalHash plus pipeline.ArtifactKeyFor's fingerprint — and
// any drift (a renamed field, a new hash input, a reordered rendering)
// invalidates every deployed cache, so it must show up as an explicit
// golden diff. Regenerate deliberately with:
//
//	go test -run TestGoldenCacheKeys -update ./internal/cache/
func TestGoldenCacheKeys(t *testing.T) {
	pattern := filepath.Join("..", "..", "examples", "programs", "*.ret")
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs under %s: %v", pattern, err)
	}
	sort.Strings(paths)

	var lines []string
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		fams := families()
		names := make([]string, 0, len(fams))
		for name := range fams {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, fam := range names {
			key := cache.KeyFor(fams[fam], f)
			lines = append(lines, fmt.Sprintf("%s %s %s", filepath.Base(path), fam, key))
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	goldenPath := filepath.Join("testdata", "keys.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("cache key schema drifted from %s — this invalidates every deployed cache; "+
			"rerun with -update only if the change is intentional\ngot:\n%swant:\n%s",
			goldenPath, got, want)
	}
}

// TestKeyForSeparatesConfigs: the same kernel under different families,
// devices, or flags gets different keys, so one shared cache can serve
// many configs without cross-talk.
func TestKeyForSeparatesConfigs(t *testing.T) {
	f, err := ir.Parse(`def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }`)
	if err != nil {
		t.Fatal(err)
	}
	us := &pipeline.Config{Target: ultrascale.Target(), Device: ultrascale.Device()}
	ag := &pipeline.Config{Target: agilex.Target(), Device: agilex.Device()}
	shrink := &pipeline.Config{Target: ultrascale.Target(), Device: ultrascale.Device(), Shrink: true}
	greedy := &pipeline.Config{Target: ultrascale.Target(), Device: ultrascale.Device(), Greedy: true}

	keys := map[cache.Key]string{}
	for name, cfg := range map[string]*pipeline.Config{
		"us": us, "ag": ag, "shrink": shrink, "greedy": greedy,
	} {
		k := cache.KeyFor(cfg, f)
		if prev, dup := keys[k]; dup {
			t.Errorf("configs %s and %s share a cache key", prev, name)
		}
		keys[k] = name
	}
	if k1, k2 := cache.KeyFor(us, f), cache.KeyFor(us, f); k1 != k2 {
		t.Error("KeyFor is not deterministic")
	}
}

// TestCacheLRUEviction: the cache is bounded; the least recently used
// entry is evicted first and a Get refreshes recency.
func TestCacheLRUEviction(t *testing.T) {
	c := cache.New[*pipeline.Artifact](2)
	a, b, d := art(), art(), art()
	c.Add("a", a)
	c.Add("b", b)
	if _, ok := c.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.Add("d", d) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (was LRU)")
	}
	if got, ok := c.Get("a"); !ok || got != a {
		t.Error("a should have survived eviction")
	}
	if got, ok := c.Get("d"); !ok || got != d {
		t.Error("d should be resident")
	}
	st := c.Stats()
	if st.Entries != 2 || st.MaxEntries != 2 {
		t.Errorf("entries = %d/%d, want 2/2", st.Entries, st.MaxEntries)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// TestGetOrComputeCachesSuccess: a miss computes and populates; the next
// call hits without computing; counters track it all.
func TestGetOrComputeCachesSuccess(t *testing.T) {
	c := cache.New[*pipeline.Artifact](8)
	ctx := context.Background()
	want := art()
	calls := 0
	compute := func() (*pipeline.Artifact, error) { calls++; return want, nil }

	got, hit, err := c.GetOrComputeKeep(ctx, "k", compute, nil)
	if err != nil || hit || got != want {
		t.Fatalf("first call: got=%p hit=%v err=%v", got, hit, err)
	}
	got, hit, err = c.GetOrComputeKeep(ctx, "k", compute, nil)
	if err != nil || !hit || got != want {
		t.Fatalf("second call: got=%p hit=%v err=%v", got, hit, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Computes != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 compute", st)
	}
}

// TestGetOrComputeErrorNotCached: failed computes are reported but never
// cached; the next request starts fresh and can succeed.
func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := cache.New[*pipeline.Artifact](8)
	ctx := context.Background()
	boom := fmt.Errorf("no placement")
	if _, hit, err := c.GetOrComputeKeep(ctx, "k", func() (*pipeline.Artifact, error) {
		return nil, boom
	}, nil); err != boom || hit {
		t.Fatalf("got hit=%v err=%v, want the compute error", hit, err)
	}
	if c.Stats().Entries != 0 {
		t.Fatal("error was cached")
	}
	want := art()
	got, hit, err := c.GetOrComputeKeep(ctx, "k", func() (*pipeline.Artifact, error) { return want, nil }, nil)
	if err != nil || hit || got != want {
		t.Fatalf("retry after error: got=%p hit=%v err=%v", got, hit, err)
	}
}

// TestGetOrComputePanicIsolated: a panicking compute becomes an error —
// for the leader and for any waiters — and is never cached, mirroring
// the batch tier's per-kernel recovery.
func TestGetOrComputePanicIsolated(t *testing.T) {
	c := cache.New[*pipeline.Artifact](8)
	_, _, err := c.GetOrComputeKeep(context.Background(), "k", func() (*pipeline.Artifact, error) {
		panic("solver went sideways")
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want panic-derived error", err)
	}
	if c.Stats().Entries != 0 {
		t.Fatal("panic result was cached")
	}
}

// TestSingleflightComputesOnce: 32 concurrent requests for one key run
// the compute function exactly once; every caller gets the same
// artifact, and the stragglers are accounted as coalesced.
func TestSingleflightComputesOnce(t *testing.T) {
	c := cache.New[*pipeline.Artifact](8)
	want := art()
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() (*pipeline.Artifact, error) {
		close(started)
		<-release
		return want, nil
	}

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	arts := make([]*pipeline.Artifact, n)
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		arts[0], _, errs[0] = c.GetOrComputeKeep(context.Background(), "k", compute, nil)
	}()
	<-started // leader is inside compute; everyone else must coalesce
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], _, errs[i] = c.GetOrComputeKeep(context.Background(), "k", func() (*pipeline.Artifact, error) {
				t.Error("second compute ran despite in-flight leader")
				return art(), nil
			}, nil)
		}(i)
	}
	// Wait until all 31 stragglers are registered as coalesced, then
	// release the leader.
	for c.Stats().Coalesced < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if arts[i] != want {
			t.Fatalf("caller %d got a different artifact", i)
		}
	}
	st := c.Stats()
	if st.Computes != 1 {
		t.Errorf("computes = %d, want 1", st.Computes)
	}
	if st.Coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d after completion, want 0", st.InFlight)
	}
}

// TestWaiterHonorsContext: a coalesced waiter whose context expires
// stops waiting and reports the context error; the leader is unaffected.
func TestWaiterHonorsContext(t *testing.T) {
	c := cache.New[*pipeline.Artifact](8)
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrComputeKeep(context.Background(), "k", func() (*pipeline.Artifact, error) {
			close(started)
			<-release
			return art(), nil
		}, nil)
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrComputeKeep(ctx, "k", func() (*pipeline.Artifact, error) { return art(), nil }, nil)
		waiterDone <- err
	}()
	// The waiter must be coalesced before we cancel, or it would race to
	// become a second leader.
	for c.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-waiterDone; err != context.Canceled {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
}

// TestKeepPredicateNeverPublishes: a computed value rejected by the keep
// predicate is returned to the leader but never becomes resident, so the
// next request recomputes — the degraded-never-cached contract without
// an add-then-remove window.
func TestKeepPredicateNeverPublishes(t *testing.T) {
	c := cache.New[*pipeline.Artifact](8)
	ctx := context.Background()
	degraded := &pipeline.Artifact{Degraded: true}
	keep := func(a *pipeline.Artifact) bool { return !a.Degraded }

	got, hit, err := c.GetOrComputeKeep(ctx, "k", func() (*pipeline.Artifact, error) {
		return degraded, nil
	}, keep)
	if err != nil || hit || got != degraded {
		t.Fatalf("leader: got=%p hit=%v err=%v", got, hit, err)
	}
	if c.Stats().Entries != 0 {
		t.Fatal("rejected value became resident")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("rejected value served as a hit")
	}

	// The next request runs its own compute; a kept value is published.
	want := art()
	got, hit, err = c.GetOrComputeKeep(ctx, "k", func() (*pipeline.Artifact, error) {
		return want, nil
	}, keep)
	if err != nil || hit || got != want {
		t.Fatalf("recompute: got=%p hit=%v err=%v", got, hit, err)
	}
	if _, ok := c.Get("k"); !ok {
		t.Fatal("kept value not resident")
	}
	if st := c.Stats(); st.Computes != 2 {
		t.Errorf("computes = %d, want 2", st.Computes)
	}
}

// TestKeepPredicateCoalesced: waiters coalesced onto a flight whose value
// the keep predicate rejects still receive that value (they share the
// leader's compile), but no concurrent or later request can ever observe
// it as a resident cache entry.
func TestKeepPredicateCoalesced(t *testing.T) {
	c := cache.New[*pipeline.Artifact](8)
	degraded := &pipeline.Artifact{Degraded: true}
	keep := func(a *pipeline.Artifact) bool { return !a.Degraded }
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrComputeKeep(context.Background(), "k", func() (*pipeline.Artifact, error) {
			close(started)
			<-release
			return degraded, nil
		}, keep)
		leaderDone <- err
	}()
	<-started

	waiterDone := make(chan *pipeline.Artifact, 1)
	go func() {
		got, _, _ := c.GetOrComputeKeep(context.Background(), "k", func() (*pipeline.Artifact, error) {
			t.Error("waiter ran its own compute")
			return art(), nil
		}, keep)
		waiterDone <- got
	}()
	for c.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	if got := <-waiterDone; got != degraded {
		t.Errorf("waiter got %p, want the shared flight value", got)
	}
	if c.Stats().Entries != 0 {
		t.Fatal("rejected value resident after flight completed")
	}
}

// TestHitRate: the stats expose a usable hit rate (coalesced waiters
// count as hits — they were served without their own compile).
func TestHitRate(t *testing.T) {
	c := cache.New[*pipeline.Artifact](8)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		c.GetOrComputeKeep(ctx, "k", func() (*pipeline.Artifact, error) { return art(), nil }, nil)
	}
	if got, want := c.Stats().HitRate(), 0.75; got != want {
		t.Errorf("hit rate = %v, want %v", got, want)
	}
	if (cache.Stats{}).HitRate() != 0 {
		t.Error("empty stats should report rate 0")
	}
}
