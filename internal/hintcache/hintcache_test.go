package hintcache

import (
	"context"
	"strings"
	"testing"

	"reticle/internal/cache"
	"reticle/internal/faults"
	"reticle/internal/place"
	"reticle/internal/rerr"
)

const testKey = "ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34"

// The two-level mechanics (promotion, quarantine, write-through, panic
// containment) are pinned once for every namespace by the contract suite
// in internal/cache/store_test.go; the disk tests here cover what the
// hint namespace adds: anchor validation on both sides of the codec, its
// shield, its counters.
func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

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
	if st.Disk != nil {
		t.Error("memory-only store reports disk stats")
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

func TestDiskPersistsAcrossReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	mustOpen(t, dir).Record(ctx, testKey, anchors("sig", 7, 2))

	// A fresh store over the same directory — the restart case.
	s2 := mustOpen(t, dir)
	got := s2.Lookup(ctx, testKey)
	if got == nil || got.Signature != "sig" || len(got.Sol) != 2 || got.ColdSteps != 42 {
		t.Fatalf("reopened Lookup = %+v, want the persisted anchors", got)
	}
	if st := s2.Stats(); st.Hits != 1 || st.Disk == nil || st.Disk.Hits != 1 {
		t.Errorf("disk promotion not counted as a hit: %+v", st)
	}
}

// TestCorruptDiskEntryIsAMiss: an intact frame whose payload is not an
// adoptable anchor set (another build's schema, an empty solution) is
// rejected by the codec, not handed to place.
func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	ctx := context.Background()
	for label, payload := range map[string]string{
		"not-json":  "{corrupt",
		"empty-sol": `{"signature":"sig","prims":[],"sol":[],"cold_steps":0}`,
	} {
		dir := t.TempDir()
		d, err := cache.OpenDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Put(ctx, testKey, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir)
		if got := s.Lookup(ctx, testKey); got != nil {
			t.Errorf("%s: unusable disk entry served: %+v", label, got)
		}
		if st := s.Stats(); st.Misses != 1 || st.Entries != 0 {
			t.Errorf("%s: unusable entry not a miss, or promoted: %+v", label, st)
		}
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

// TestDiskFaultsShielded: the hint store's inner disk I/O must not
// consume cache/disk-read / cache/disk-write injections aimed at the
// artifact disk cache — the two tiers share those fault points, and a
// Times-capped artifact injection being eaten by a hint persist would
// make the artifact chaos tests order-dependent.
func TestDiskFaultsShielded(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		cache.FaultDiskWrite: {Class: rerr.Transient, Times: 1},
		cache.FaultDiskRead:  {Class: rerr.Transient, Times: 1},
	})
	ctx := faults.WithPlan(context.Background(), plan)
	s.Record(ctx, testKey, anchors("sig", 5))

	s2 := mustOpen(t, dir)
	if got := s2.Lookup(ctx, testKey); got == nil {
		t.Fatal("hint disk read consumed an artifact-tier fault injection")
	}
	if ds := s.Stats().Disk; ds == nil || ds.WriteErrors != 0 {
		t.Errorf("hint disk write consumed an artifact-tier fault injection: %+v", ds)
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
