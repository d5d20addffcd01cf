package stagecache

import (
	"context"
	"strings"
	"testing"

	"reticle/internal/faults"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
)

const testKey = "ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34"

// The store mechanics (LRU bound, keep guard, panic containment) are
// pinned once for every namespace by the contract suite in
// internal/cache/store_test.go; the tests here cover what the stage
// namespace adds: its key guard, its fault points, its per-stage
// counters.

func TestMemoryRoundTrip(t *testing.T) {
	ctx := context.Background()
	s := New(8)
	if _, ok := s.Lookup(ctx, pipeline.StageSelect, testKey); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Store(ctx, pipeline.StageSelect, testKey, []byte("def f() {}"))
	got, ok := s.Lookup(ctx, pipeline.StageSelect, testKey)
	if !ok || string(got) != "def f() {}" {
		t.Fatalf("Lookup = %q, %v; want the stored payload", got, ok)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Select.Hits != 1 || st.Select.Misses != 1 || st.Select.Stores != 1 {
		t.Errorf("stats = %+v, want 1 entry / 1 hit / 1 miss / 1 store on select", st)
	}
	if st.Select.Bytes != int64(len("def f() {}")) {
		t.Errorf("Select.Bytes = %d, want payload length", st.Select.Bytes)
	}
	if st.Cascade != (StageStats{}) || st.Place != (StageStats{}) || st.Output != (StageStats{}) {
		t.Errorf("select traffic leaked into other stages: %+v", st)
	}
}

func TestStoreGuards(t *testing.T) {
	ctx := context.Background()
	s := New(8)
	s.Store(ctx, pipeline.StagePlace, "", []byte("x")) // empty key
	s.Store(ctx, pipeline.StagePlace, testKey, nil)    // empty payload
	if st := s.Stats(); st.Place.Stores != 0 || st.Entries != 0 {
		t.Errorf("invalid stores were accepted: %+v", st)
	}
	if _, ok := s.Lookup(ctx, pipeline.StagePlace, testKey); ok {
		t.Error("guarded store is servable")
	}
}

func TestBounded(t *testing.T) {
	ctx := context.Background()
	s := New(2)
	keys := []string{
		strings.Repeat("aa", 32),
		strings.Repeat("bb", 32),
		strings.Repeat("cc", 32),
	}
	for _, k := range keys {
		s.Store(ctx, pipeline.StageSelect, k, []byte("payload "+k))
	}
	st := s.Stats()
	if st.Entries != 2 || st.MaxEntries != 2 {
		t.Fatalf("stats = %+v, want the bound respected", st)
	}
	if _, ok := s.Lookup(ctx, pipeline.StageSelect, keys[0]); ok {
		t.Error("oldest entry survived past the bound")
	}
	if _, ok := s.Lookup(ctx, pipeline.StageSelect, keys[2]); !ok {
		t.Error("newest entry evicted")
	}
}

// TestStagesShareOneLRUWithoutCollisions: the stage tag is hashed into
// the key by the pipeline, so distinct stages never collide; here we
// confirm the store itself keys purely on the string and the per-stage
// split is accounting only.
func TestStagesShareOneLRUWithoutCollisions(t *testing.T) {
	ctx := context.Background()
	s := New(8)
	s.Store(ctx, pipeline.StageSelect, strings.Repeat("aa", 32), []byte("sel"))
	s.Store(ctx, pipeline.StageOutput, strings.Repeat("bb", 32), []byte("out"))
	if got, ok := s.Lookup(ctx, pipeline.StageSelect, strings.Repeat("aa", 32)); !ok || string(got) != "sel" {
		t.Errorf("select entry = %q, %v", got, ok)
	}
	if got, ok := s.Lookup(ctx, pipeline.StageOutput, strings.Repeat("bb", 32)); !ok || string(got) != "out" {
		t.Errorf("output entry = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Select.Stores != 1 || st.Output.Stores != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want one store per stage, two entries", st)
	}
}

func TestUnknownStageDoesNotPanicOrPollute(t *testing.T) {
	ctx := context.Background()
	s := New(8)
	s.Store(ctx, "mystery", testKey, []byte("x"))
	if _, ok := s.Lookup(ctx, "mystery", testKey); !ok {
		t.Error("unknown-stage entry not servable")
	}
	st := s.Stats()
	if st.Select.Stores+st.Cascade.Stores+st.Place.Stores+st.Output.Stores != 0 {
		t.Errorf("unknown stage polluted a named stage's counters: %+v", st)
	}
}

func TestLookupFaultDegradesToMiss(t *testing.T) {
	s := New(8)
	s.Store(context.Background(), pipeline.StageSelect, testKey, []byte("asm"))
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		FaultLookup: {Class: rerr.Transient},
	})
	ctx := faults.WithPlan(context.Background(), plan)
	if _, ok := s.Lookup(ctx, pipeline.StageSelect, testKey); ok {
		t.Fatal("armed stagecache/lookup still served")
	}
	if st := s.Stats(); st.Select.Misses != 1 || st.Select.Hits != 0 {
		t.Errorf("stats = %+v, want the faulted lookup counted as a miss", st.Select)
	}
	// Unarmed context: the entry is still there, the fault consumed
	// nothing permanent.
	if _, ok := s.Lookup(context.Background(), pipeline.StageSelect, testKey); !ok {
		t.Error("entry lost after a faulted lookup")
	}
}

func TestStoreFaultDropsWrite(t *testing.T) {
	s := New(8)
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		FaultStore: {Class: rerr.Transient},
	})
	ctx := faults.WithPlan(context.Background(), plan)
	s.Store(ctx, pipeline.StageSelect, testKey, []byte("asm"))
	if st := s.Stats(); st.Select.Stores != 0 || st.Entries != 0 {
		t.Errorf("armed stagecache/store still recorded: %+v", st)
	}
	if _, ok := s.Lookup(context.Background(), pipeline.StageSelect, testKey); ok {
		t.Error("dropped write is servable")
	}
}

func TestNilStoreSafe(t *testing.T) {
	var s *Store
	ctx := context.Background()
	if _, ok := s.Lookup(ctx, pipeline.StageSelect, testKey); ok {
		t.Error("nil store reported a hit")
	}
	s.Store(ctx, pipeline.StageSelect, testKey, []byte("x")) // must not panic
	if st := s.Stats(); st.Entries != 0 || st.Select != (StageStats{}) {
		t.Errorf("nil store stats = %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	ctx := context.Background()
	s := New(0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			hex := "0123456789abcdef"
			for i := 0; i < 50; i++ {
				k := strings.Repeat(string(hex[(g+i)%16]), 64)
				s.Store(ctx, pipeline.StageSelect, k, []byte("payload"))
				s.Lookup(ctx, pipeline.StageSelect, k)
				s.Stats()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
