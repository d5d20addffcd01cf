package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/faults"
	"reticle/internal/rerr"
	"reticle/internal/server"
	"reticle/internal/stagecache"
)

// The stage-cache chaos suite pins the memo's blast-radius contract,
// which is stricter than the generic sweep's: the stage cache is pure
// acceleration, so ANY failure inside it — armed lookup faults, armed
// store faults, panics — must produce a 200 with an artifact byte-identical to an unfaulted cold
// compile. Zero 5xx, zero degraded output, zero wrong answers.

// exploreSweep posts one jobs:1 /explore (sequential, so in-sweep stage
// sharing is deterministic: nocascade variants reuse their base
// variant's selection) with an optional fault plan, requiring 200.
func exploreSweep(t *testing.T, s *server.Server, plan *faults.Plan) *httptest.ResponseRecorder {
	t.Helper()
	w := chaosPost(t, s, "/explore", server.ExploreRequest{IR: maccSrc, Jobs: 1}, plan)
	if w.Code != http.StatusOK {
		t.Fatalf("explore under stage-cache chaos: status %d (want 200 — the memo must never fail a request)\n%s",
			w.Code, w.Body.String())
	}
	return w
}

// TestStageCacheChaosTransparent arms each stage-cache fault point in
// every failure mode, uncapped (every evaluation fires), and sweeps the
// macc lattice: the response must be byte-identical to a clean sweep on
// a fresh server.
func TestStageCacheChaosTransparent(t *testing.T) {
	clean := newTestServer(t, reticle.ServerOptions{})
	want := exploreDeterministic(t, exploreSweep(t, clean, nil).Body.Bytes())

	points := []faults.Point{stagecache.FaultLookup, stagecache.FaultStore}
	modes := []struct {
		name string
		inj  faults.Injection
	}{
		{"transient", faults.Injection{Class: rerr.Transient}},
		{"exhausted", faults.Injection{Class: rerr.Exhausted}},
		{"panic", faults.Injection{Panic: true}},
	}
	for _, point := range points {
		for _, mode := range modes {
			t.Run(string(point)+"/"+mode.name, func(t *testing.T) {
				s := newTestServer(t, reticle.ServerOptions{})
				plan := faults.NewPlan(map[faults.Point]faults.Injection{point: mode.inj})
				// Two sweeps with the fault held armed: the first compiles
				// everything, the second re-compiles (store faults mean the
				// artifact tier still serves it; lookup faults mean the stage
				// tier recomputes) — both must match the clean sweep exactly.
				for pass := 0; pass < 2; pass++ {
					got := exploreDeterministic(t, exploreSweep(t, s, plan).Body.Bytes())
					if got != want {
						t.Fatalf("pass %d: faulted sweep diverged from clean sweep:\n--- faulted\n%s\n--- clean\n%s", pass, got, want)
					}
				}
			})
		}
	}
}

// TestStageCacheChaosLookupStillCountsNothingSkipped: with lookups
// permanently faulted the memo can never answer, so the server's
// stages_skipped accumulator must stay zero — the counter reports real
// skips, not attempts.
func TestStageCacheChaosLookupStillCountsNothingSkipped(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		stagecache.FaultLookup: {Class: rerr.Transient},
	})
	exploreSweep(t, s, plan)
	exploreSweep(t, s, plan)
	var st server.StatsResponse
	if code := get(t, s, "/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.StageCache == nil {
		t.Fatal("stats missing stage_cache section")
	}
	if st.StageCache.StagesSkipped != 0 {
		t.Errorf("stages_skipped = %d with lookups faulted, want 0", st.StageCache.StagesSkipped)
	}
	if tot := st.StageCache.Totals(); tot.Hits != 0 {
		t.Errorf("store reported %d hits with lookups faulted", tot.Hits)
	}
}

// TestStageCacheStatsSection pins the /stats wire shape: the section is
// present, and a repeat jobs:1 sweep drives stages_skipped and per-stage
// hits above zero.
func TestStageCacheStatsSection(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	exploreSweep(t, s, nil)
	exploreSweep(t, s, nil)

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/stats", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["stage_cache"]; !ok {
		t.Fatal("stats body missing stage_cache")
	}
	if _, ok := raw["mem"]; !ok {
		t.Fatal("stats body missing mem")
	}
	var st server.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	sc := st.StageCache
	if sc == nil {
		t.Fatal("stats missing stage_cache section")
	}
	if sc.StagesSkipped == 0 {
		t.Error("repeat sweep reported zero stages_skipped")
	}
	if tot := sc.Totals(); tot.Hits == 0 || tot.Stores == 0 || tot.Bytes == 0 {
		t.Errorf("degenerate stage totals: %+v", tot)
	}
	if sc.Select.Hits == 0 {
		t.Errorf("select stage never hit across a repeat sweep: %+v", sc.Select)
	}
	if st.Mem.HeapAllocBytes == 0 || st.Mem.Goroutines == 0 {
		t.Errorf("degenerate mem snapshot: %+v", st.Mem)
	}
}

// TestStageCacheDegradedNeverStored: a budget-degraded compile's stage
// results must not enter the memo — otherwise one degraded placement
// would be adopted by every later structurally-identical compile.
func TestStageCacheDegradedNeverStored(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		"place/solver-budget": {Class: rerr.Exhausted, Times: 1},
	})
	w := chaosPost(t, s, "/compile", server.CompileRequest{IR: maccSrc}, plan)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded compile: status %d\n%s", w.Code, w.Body.String())
	}
	var first server.CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if !first.Artifact.Degraded {
		t.Fatal("first response not degraded under solver-budget fault")
	}
	var st server.StatsResponse
	if code := get(t, s, "/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.StageCache == nil {
		t.Fatal("stats missing stage_cache section")
	}
	// Selection and cascade run before the solver degrades and stay
	// non-degraded, so they may store; the placement and fused output
	// stages of a degraded compile must not.
	if st.StageCache.Place.Stores != 0 || st.StageCache.Output.Stores != 0 {
		t.Errorf("degraded compile stored place/output stages: place=%+v output=%+v",
			st.StageCache.Place, st.StageCache.Output)
	}

	// The recompile (no fault) must run the solver itself, not adopt
	// anything, and produce a clean artifact.
	var second server.CompileResponse
	if code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &second); code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	if second.Artifact.Degraded {
		t.Error("second request degraded without a fault armed")
	}
	if strings.Contains(second.Artifact.WarmStart, "stage") {
		t.Errorf("second compile warm-started %q from a degraded compile's stages", second.Artifact.WarmStart)
	}
}
