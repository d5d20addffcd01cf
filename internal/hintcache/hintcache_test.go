package hintcache

import (
	"context"
	"strings"
	"testing"

	"reticle/internal/faults"
	"reticle/internal/place"
	"reticle/internal/rerr"
)

const testKey = "ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34"

// The store mechanics (LRU bound, keep guard, panic containment) are
// pinned once for every namespace by the contract suite in
// internal/cache/store_test.go; the tests here cover what the hint
// namespace adds: anchor validation, its fault point, its counters.

func anchors(sig string, sol ...int) *place.Anchors {
	return &place.Anchors{
		Signature: sig,
		Sol:       sol,
		ColdSteps: 42,
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	ctx := context.Background()
	s := New(8)
	if got := s.Lookup(ctx, testKey); got != nil {
		t.Fatalf("empty store returned %+v", got)
	}
	a := anchors("sig", 3, 1, 4)
	s.Record(ctx, testKey, a)
	got := s.Lookup(ctx, testKey)
	if got == nil || got.Signature != "sig" || len(got.Sol) != 3 {
		t.Fatalf("Lookup = %+v, want the recorded anchors", got)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Records != 1 {
		t.Errorf("stats = %+v, want 1 entry / 1 hit / 1 miss / 1 record", st)
	}
}

func TestRecordGuards(t *testing.T) {
	ctx := context.Background()
	s := New(8)
	s.Record(ctx, testKey, nil)                           // nil anchors
	s.Record(ctx, testKey, anchors("sig"))                // empty solution
	s.Record(ctx, testKey, &place.Anchors{Sol: []int{1}}) // empty signature
	if st := s.Stats(); st.Records != 0 || st.Entries != 0 {
		t.Errorf("invalid records were accepted: %+v", st)
	}
	if got := s.Lookup(ctx, testKey); got != nil {
		t.Errorf("guarded record is servable: %+v", got)
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
	for i, k := range keys {
		s.Record(ctx, k, anchors("sig", i))
	}
	st := s.Stats()
	if st.Entries != 2 || st.MaxEntries != 2 {
		t.Fatalf("stats = %+v, want the bound respected", st)
	}
	if got := s.Lookup(ctx, keys[0]); got != nil {
		t.Error("oldest entry survived past the bound")
	}
	if got := s.Lookup(ctx, keys[2]); got == nil {
		t.Error("newest entry evicted")
	}
}

func TestLookupFaultDegradesToMiss(t *testing.T) {
	s := New(8)
	s.Record(context.Background(), testKey, anchors("sig", 1))
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		FaultLookup: {Class: rerr.Transient},
	})
	ctx := faults.WithPlan(context.Background(), plan)
	if got := s.Lookup(ctx, testKey); got != nil {
		t.Fatalf("armed hintcache/lookup still served %+v", got)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want the faulted lookup counted as a miss", st)
	}
	// Unarmed context: the entry is still there, the fault consumed
	// nothing permanent.
	if got := s.Lookup(context.Background(), testKey); got == nil {
		t.Error("entry lost after a faulted lookup")
	}
}

func TestNilStoreSafe(t *testing.T) {
	var s *Store
	ctx := context.Background()
	if got := s.Lookup(ctx, testKey); got != nil {
		t.Error("nil store lookup returned anchors")
	}
	s.Record(ctx, testKey, anchors("sig", 1)) // must not panic
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil store stats = %+v", st)
	}
}
