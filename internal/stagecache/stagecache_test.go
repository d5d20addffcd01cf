package stagecache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reticle/internal/bench"
	"reticle/internal/cache"
	"reticle/internal/faults"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
	"reticle/internal/target/ultrascale"
)

const testKey = "ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34ab12cd34"

// The two-level mechanics (promotion, quarantine, write-through, panic
// containment) are pinned once for every namespace by the contract suite
// in internal/cache/store_test.go; the disk tests here cover what the
// stage namespace adds: its codec guard, its shield, its per-stage
// counters.
func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

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
	if st.Disk != nil {
		t.Error("memory-only store reports disk stats")
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

func TestSkipsArithmetic(t *testing.T) {
	st := Stats{
		Select:  StageStats{Hits: 3},
		Cascade: StageStats{Hits: 2},
		Place:   StageStats{Hits: 1},
		Output:  StageStats{Hits: 4},
	}
	// Output hits count double: one memo entry skips codegen AND timing.
	if got := st.Skips(); got != 3+2+1+2*4 {
		t.Errorf("Skips() = %d, want 14", got)
	}
}

func TestDiskPersistsAcrossReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	mustOpen(t, dir).Store(ctx, pipeline.StagePlace, testKey, []byte("placed asm"))

	// A fresh store over the same directory — the restart case.
	s2 := mustOpen(t, dir)
	got, ok := s2.Lookup(ctx, pipeline.StagePlace, testKey)
	if !ok || string(got) != "placed asm" {
		t.Fatalf("reopened Lookup = %q, %v; want the persisted payload", got, ok)
	}
	if st := s2.Stats(); st.Place.Hits != 1 || st.Disk == nil || st.Disk.Hits != 1 {
		t.Errorf("disk promotion not counted as a place hit: %+v", st)
	}
}

func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	mustOpen(t, dir).Store(ctx, pipeline.StageOutput, testKey, []byte(`{"verilog":"module m; endmodule"}`))
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("expected one persisted entry, got %d", len(ents))
	}
	if err := os.WriteFile(filepath.Join(dir, ents[0].Name()), []byte("RTD"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	if got, ok := s2.Lookup(ctx, pipeline.StageOutput, testKey); ok {
		t.Errorf("corrupt disk entry served: %q", got)
	}
	if st := s2.Stats(); st.Output.Misses != 1 || st.Disk.Quarantined != 1 {
		t.Errorf("corrupt entry not counted as an output miss and quarantined: %+v", st)
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

// TestDiskFaultsShielded: the stage store's inner disk I/O must not
// consume cache/disk-read / cache/disk-write injections aimed at the
// artifact disk cache — the tiers share those fault points, and a
// Times-capped artifact injection being eaten by a stage persist would
// make the artifact chaos tests order-dependent.
func TestDiskFaultsShielded(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		cache.FaultDiskWrite: {Class: rerr.Transient, Times: 1},
		cache.FaultDiskRead:  {Class: rerr.Transient, Times: 1},
	})
	ctx := faults.WithPlan(context.Background(), plan)
	s.Store(ctx, pipeline.StageCascade, testKey, []byte("cascaded"))

	s2 := mustOpen(t, dir)
	if _, ok := s2.Lookup(ctx, pipeline.StageCascade, testKey); !ok {
		t.Fatal("stage disk read consumed an artifact-tier fault injection")
	}
	if ds := s.Stats().Disk; ds == nil || ds.WriteErrors != 0 {
		t.Errorf("stage disk write consumed an artifact-tier fault injection: %+v", ds)
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
	s := mustOpen(t, t.TempDir())
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

// keyRecorder is a store that remembers the key each stage stored under.
type keyRecorder struct {
	s    *Store
	keys map[string]string
}

func (r keyRecorder) Lookup(ctx context.Context, stage, key string) ([]byte, bool) {
	return r.s.Lookup(ctx, stage, key)
}

func (r keyRecorder) Store(ctx context.Context, stage, key string, payload []byte) {
	r.keys[stage] = key
	r.s.Store(ctx, stage, key, payload)
}

// TestOldFormatDiskEntriesHeal: a DIR/stages written by a build whose
// cascade and output rows stored JSON is served after a restart as two
// misses that the recompute overwrites on disk; the artifact equals a
// cold one, and the next restart hits every row.
func TestOldFormatDiskEntriesHeal(t *testing.T) {
	ctx := context.Background()
	target := ultrascale.Target()
	lib, err := isel.NewLibrary(target)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &pipeline.Config{Target: target, Device: ultrascale.Device(), Lib: lib, Cascades: ultrascale.Cascades()}
	f, err := bench.TensorDot(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	compile := func(sc pipeline.StageCache) *pipeline.Artifact {
		t.Helper()
		c := *cfg
		c.StageCache = sc
		art, err := pipeline.Compile(ctx, &c, f)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	surface := func(a *pipeline.Artifact) string {
		return fmt.Sprintf("%s\n%s\n%s\n%d %d %d %d %g %g %d %v", a.AsmText, a.PlacedText, a.Verilog,
			a.LUTs, a.DSPs, a.FFs, a.Carries, a.CriticalNs, a.FMaxMHz, a.CascadeChains, a.CriticalPath)
	}
	cold := compile(nil)
	if cold.CascadeChains == 0 {
		t.Fatal("test kernel has no cascade chains: the cascade row is not exercised")
	}

	// Fill DIR/stages, then overwrite the two rows with the old JSON.
	dir := t.TempDir()
	rec := keyRecorder{mustOpen(t, dir), map[string]string{}}
	compile(rec)
	oldCascade, _ := json.Marshal(struct {
		Asm    string `json:"asm"`
		Chains int    `json:"chains"`
	}{cold.AsmText, cold.CascadeChains})
	oldOutput, _ := json.Marshal(struct {
		Verilog      string   `json:"verilog"`
		LUTs         int      `json:"luts"`
		DSPs         int      `json:"dsps"`
		FFs          int      `json:"ffs"`
		Carries      int      `json:"carries"`
		CriticalNs   float64  `json:"critical_ns"`
		FMaxMHz      float64  `json:"fmax_mhz"`
		CriticalPath []string `json:"critical_path,omitempty"`
	}{cold.Verilog, cold.LUTs, cold.DSPs, cold.FFs, cold.Carries, cold.CriticalNs, cold.FMaxMHz, cold.CriticalPath})
	old := map[string][]byte{pipeline.StageCascade: oldCascade, pipeline.StageOutput: oldOutput}
	for stage, payload := range old {
		rec.s.Store(ctx, stage, rec.keys[stage], payload)
	}

	// Restart over the old-format directory.
	s := mustOpen(t, dir)
	for stage, payload := range old {
		if got, ok := s.Lookup(ctx, stage, rec.keys[stage]); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%s: the old-format entry did not persist", stage)
		}
	}
	s = mustOpen(t, dir)
	healed := compile(s)
	if surface(healed) != surface(cold) {
		t.Error("artifact over old-format entries differs from cold")
	}
	if healed.StagesSkipped != 2 {
		t.Errorf("skipped %d stages over old-format entries, want 2 (select and place)", healed.StagesSkipped)
	}
	if st := s.Stats(); st.Cascade.Stores != 1 || st.Output.Stores != 1 || st.Select.Stores != 0 || st.Place.Stores != 0 {
		t.Errorf("recompute stored %+v, want one cascade and one output entry", st)
	}

	// The next restart finds the healed entries on disk.
	s = mustOpen(t, dir)
	for stage, payload := range old {
		if got, ok := s.Lookup(ctx, stage, rec.keys[stage]); !ok || bytes.Equal(got, payload) {
			t.Errorf("%s: entry not overwritten on disk", stage)
		}
	}
	warm := compile(mustOpen(t, dir))
	if surface(warm) != surface(cold) || warm.StagesSkipped != 5 {
		t.Errorf("after healing: skipped %d stages, artifact equal to cold %v", warm.StagesSkipped, surface(warm) == surface(cold))
	}
}
