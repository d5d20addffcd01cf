package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/bench"
	"reticle/internal/faults"
	"reticle/internal/hintcache"
	"reticle/internal/place"
	"reticle/internal/rerr"
	"reticle/internal/server"
)

// The edit-replay suite replays a realistic edit loop against a live
// service: a warm full compile of the tensordot 5x36 benchmark kernel,
// then the three canonical edits — a constant tweak (same structure:
// hint adoption, near-zero solver work), a wire rename (same canonical
// hash: full artifact-cache hit, no hint involvement), and a one-op
// insertion (new structure: cold solve, new hint recording). Throughout,
// every served artifact must be byte-identical to a cold compile of the
// same source on a fresh server — the hint cache is an accelerator, not
// an input.

// tensordotSrc renders the tensordot 5x36 benchmark kernel as IR text.
func tensordotSrc(t testing.TB) string {
	t.Helper()
	f, err := bench.TensorDot(5, 36)
	if err != nil {
		t.Fatal(err)
	}
	return f.String()
}

var (
	tempName = regexp.MustCompile(`\bt(\d+)\b`)
	firstOut = regexp.MustCompile(`y0:i8 = id\((\w+)\);`)
)

// constTweakN changes constant and register-init values only: the edit
// the hint cache exists for. Structure (ops, widths, connectivity) is
// untouched, so the structural hash — and the placement problem — are
// unchanged. n picks the new values, so successive edits are distinct
// artifacts that all share one hint bucket.
func constTweakN(src string, n int) string {
	out := strings.ReplaceAll(src, "const[0]", fmt.Sprintf("const[%d]", n))
	return strings.ReplaceAll(out, "reg[0]", fmt.Sprintf("reg[%d]", n+1))
}

func constTweak(src string) string { return constTweakN(src, 3) }

// wireRename alpha-renames every temporary. The canonical hash is
// alpha-invariant, so this is not even a new artifact: the server must
// answer from the artifact cache without consulting the hint store.
func wireRename(src string) string {
	return tempName.ReplaceAllString(src, "w$1")
}

// opInsert adds one instruction on the first output: a genuinely new
// structure that must compile cold and record a fresh hint entry.
func opInsert(src string) string {
	return firstOut.ReplaceAllString(src, "extra:i8 = add($1, $1) @??;\n    y0:i8 = id(extra);")
}

func compileOK(t *testing.T, h http.Handler, src string) server.CompileResponse {
	t.Helper()
	var resp server.CompileResponse
	if code := post(t, h, "/compile", server.CompileRequest{IR: src}, &resp); code != http.StatusOK {
		t.Fatalf("compile: status %d", code)
	}
	return resp
}

func statsOf(t *testing.T, h http.Handler) server.StatsResponse {
	t.Helper()
	var st server.StatsResponse
	if code := get(t, h, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	return st
}

// detPayload strips the fields that legitimately differ between a cold
// and a hint-adopted compile of the same source (wall times, solver
// accounting, warm-start provenance), leaving exactly the deterministic
// artifact payload that must match byte for byte.
func detPayload(a server.ArtifactJSON) server.ArtifactJSON {
	a.CompileNS = 0
	a.Stages = server.StagesJSON{}
	a.SolverSteps = 0
	a.ShrinkProbes = 0
	a.ProbesSkipped = 0
	a.HintHits = 0
	a.HintTried = 0
	a.WarmStart = ""
	a.HintCacheHits = 0
	a.HintCacheStepsSaved = 0
	return a
}

func TestEditReplay(t *testing.T) {
	src := tensordotSrc(t)
	s := newTestServer(t, reticle.ServerOptions{})

	// Warm full compile.
	cold := compileOK(t, s, src)
	if cold.Cache != "miss" {
		t.Fatalf("first compile: cache %q, want miss", cold.Cache)
	}
	if cold.Artifact.WarmStart != "" || cold.Artifact.HintCacheHits != 0 {
		t.Fatalf("cold compile reports warm start %q / %d hint hits",
			cold.Artifact.WarmStart, cold.Artifact.HintCacheHits)
	}
	coldSteps := cold.Artifact.SolverSteps
	if coldSteps < 1 {
		t.Fatalf("cold tensordot compile spent %d solver steps, want >= 1", coldSteps)
	}
	st := statsOf(t, s)
	if st.HintCache == nil || st.HintCache.Records < 1 {
		t.Fatalf("warm compile recorded no hints: %+v", st.HintCache)
	}

	// Replaying the identical source is a full artifact-cache hit: the
	// pipeline does not run, so hint counters must not move (the
	// no-double-count contract).
	replay := compileOK(t, s, src)
	if replay.Cache != "hit" {
		t.Fatalf("replay: cache %q, want hit", replay.Cache)
	}
	if after := statsOf(t, s); after.Place.HintCacheHits != st.Place.HintCacheHits ||
		after.HintCache.Hits != st.HintCache.Hits {
		t.Fatalf("full cache hit moved hint counters: %+v -> %+v", st.Place, after.Place)
	}

	// Edit 1: constant tweak. New artifact, same structure — the hint
	// cache must adopt the recorded placement and skip the solver.
	tweaked := constTweak(src)
	if tweaked == src {
		t.Fatal("constTweak did not change the source")
	}
	hinted := compileOK(t, s, tweaked)
	if hinted.Cache != "miss" {
		t.Fatalf("tweaked compile: cache %q, want miss (new canonical hash)", hinted.Cache)
	}
	if hinted.Artifact.WarmStart != "adopted" {
		t.Fatalf("tweaked compile: warm_start %q, want adopted", hinted.Artifact.WarmStart)
	}
	if hinted.Artifact.HintCacheHits != 1 {
		t.Fatalf("tweaked compile: hint_cache_hits %d, want 1", hinted.Artifact.HintCacheHits)
	}
	if hinted.Artifact.HintCacheStepsSaved != coldSteps {
		t.Errorf("hint_cache_steps_saved = %d, want the cold cost %d",
			hinted.Artifact.HintCacheStepsSaved, coldSteps)
	}
	// The pinned budget: an adopted re-solve must spend under 1% of the
	// cold solver steps.
	if 100*hinted.Artifact.SolverSteps >= coldSteps {
		t.Errorf("hinted recompile spent %d solver steps, cold was %d — not under 1%%",
			hinted.Artifact.SolverSteps, coldSteps)
	}

	// Byte-identity: the hinted artifact must equal a cold compile of
	// the same edited source on a server that has never seen anything.
	fresh := newTestServer(t, reticle.ServerOptions{})
	ref := compileOK(t, fresh, tweaked)
	if ref.Artifact.WarmStart != "" {
		t.Fatalf("reference server used the hint cache: %q", ref.Artifact.WarmStart)
	}
	if detPayload(hinted.Artifact) != detPayload(ref.Artifact) {
		t.Errorf("hint-adopted artifact differs from cold compile of the same source:\n%+v\nvs\n%+v",
			detPayload(hinted.Artifact), detPayload(ref.Artifact))
	}
	if hinted.Key != ref.Key {
		t.Errorf("cache key diverged: %s vs %s", hinted.Key, ref.Key)
	}

	st = statsOf(t, s)
	if st.Place.HintCacheHits < 1 || st.Place.HintCacheStepsSaved < coldSteps {
		t.Errorf("stats after adoption: %+v, want >=1 hit and >=%d steps saved", st.Place, coldSteps)
	}
	if st.HintCache.Hits < 1 {
		t.Errorf("hint store reports %d hits after an adoption", st.HintCache.Hits)
	}

	// Edit 2: wire rename. Alpha-equivalent — a full artifact-cache hit
	// that must not touch the hint store at all.
	before := statsOf(t, s)
	renamed := compileOK(t, s, wireRename(tweaked))
	if renamed.Cache != "hit" {
		t.Fatalf("renamed compile: cache %q, want hit (alpha-invariant canonical hash)", renamed.Cache)
	}
	if renamed.Key != hinted.Key {
		t.Errorf("rename changed the cache key: %s vs %s", renamed.Key, hinted.Key)
	}
	if after := statsOf(t, s); after.Place.HintCacheHits != before.Place.HintCacheHits ||
		after.HintCache.Hits != before.HintCache.Hits ||
		after.HintCache.Records != before.HintCache.Records {
		t.Errorf("wire rename moved hint counters: %+v -> %+v", before.HintCache, after.HintCache)
	}

	// Edit 3: one-op insertion. New structure: cold solve, new recording.
	inserted := compileOK(t, s, opInsert(src))
	if inserted.Cache != "miss" {
		t.Fatalf("inserted-op compile: cache %q, want miss", inserted.Cache)
	}
	if inserted.Artifact.WarmStart == "adopted" {
		t.Fatal("structurally new program adopted a stale placement")
	}
	if inserted.Artifact.SolverSteps < 1 {
		t.Errorf("inserted-op compile reports %d solver steps, want a cold solve", inserted.Artifact.SolverSteps)
	}
	if after := statsOf(t, s); after.HintCache.Records != st.HintCache.Records+1 {
		t.Errorf("inserted-op compile: records %d -> %d, want one new hint entry",
			st.HintCache.Records, after.HintCache.Records)
	}
}

// TestEditReplayDegradedNeverSeeds: a budget-degraded compile must not
// record placement hints — otherwise one bad compile would make every
// structurally equal edit adopt the degraded layout forever.
func TestEditReplayDegradedNeverSeeds(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		place.FaultSolverBudget: {Class: rerr.Exhausted, Times: 1},
	})
	w := chaosPost(t, s, "/compile", server.CompileRequest{IR: maccSrc}, plan)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded compile: status %d\n%s", w.Code, w.Body.String())
	}
	var resp server.CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("degraded compile: %v", err)
	}
	if !resp.Artifact.Degraded {
		t.Fatal("armed solver-budget fault did not degrade the compile")
	}
	st := statsOf(t, s)
	if st.HintCache.Records != 0 {
		t.Fatalf("degraded compile recorded %d hint entries, want 0", st.HintCache.Records)
	}
	// The degraded artifact is not cached, so the same source compiles
	// again — cold, with no hint to adopt (nothing was recorded).
	clean := compileOK(t, s, maccSrc)
	if clean.Cache != "miss" {
		t.Fatalf("recompile after degradation: cache %q, want miss (degraded artifacts are never cached)", clean.Cache)
	}
	if clean.Artifact.WarmStart == "adopted" {
		t.Fatal("recompile after degradation adopted a hint that should not exist")
	}
	if clean.Artifact.Degraded {
		t.Fatal("clean recompile still degraded")
	}
}

// TestEditReplayCrashRestart: only artifacts outlive a restart. The
// kernel compiled before it is a disk hit with the same bytes; the
// structural near-miss edit finds no hint (the hint and stage memos live
// in memory) and compiles cold, to the artifact a server that never
// restarted compiles; and /stats shows no disk level under either memo.
func TestEditReplayCrashRestart(t *testing.T) {
	dir := t.TempDir()
	src := tensordotSrc(t)

	s1 := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	var first rawCompileResponse
	if code := post(t, s1, "/compile", server.CompileRequest{IR: src}, &first); code != http.StatusOK || first.Cache != "miss" {
		t.Fatalf("warm compile: status %d, cache %q", code, first.Cache)
	}

	// "Crash": the first server is dropped without ceremony; a new
	// process opens the same disk root.
	s2 := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	var again rawCompileResponse
	if code := post(t, s2, "/compile", server.CompileRequest{IR: src}, &again); code != http.StatusOK || again.Cache != "hit" {
		t.Fatalf("post-restart compile of the same kernel: status %d, cache %q, want a hit", code, again.Cache)
	}
	if string(again.Artifact) != string(first.Artifact) {
		t.Fatalf("artifact bytes changed across restart\ngot:  %s\nwant: %s", again.Artifact, first.Artifact)
	}
	if ds := s2.Disk().Stats(); ds.Hits != 1 {
		t.Fatalf("same kernel after restart not served by the disk level: %+v", ds)
	}

	edited := compileOK(t, s2, constTweak(src))
	if edited.Cache != "miss" {
		t.Fatalf("post-restart edited compile: cache %q, want miss", edited.Cache)
	}
	if edited.Artifact.WarmStart != "" || edited.Artifact.HintCacheHits != 0 {
		t.Fatalf("post-restart edited compile: warm_start %q, %d hint hits, want a cold solve",
			edited.Artifact.WarmStart, edited.Artifact.HintCacheHits)
	}
	ref := compileOK(t, newTestServer(t, reticle.ServerOptions{}), constTweak(src))
	if detPayload(edited.Artifact) != detPayload(ref.Artifact) || edited.Key != ref.Key {
		t.Errorf("post-restart edited artifact differs from a cold compile on a fresh server:\n%+v\nvs\n%+v",
			detPayload(edited.Artifact), detPayload(ref.Artifact))
	}

	var st map[string]json.RawMessage
	if code := get(t, s2, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	for _, section := range []string{"hint_cache", "stage_cache"} {
		var members map[string]json.RawMessage
		if err := json.Unmarshal(st[section], &members); err != nil || members == nil {
			t.Fatalf("/stats %s section: %s (%v)", section, st[section], err)
		}
		if _, ok := members["disk"]; ok {
			t.Errorf("/stats reports %s.disk: the memos have no disk level", section)
		}
	}
}

// TestEditReplayHintCacheFaultDegrades (satellite: chaos): an armed
// hintcache/lookup fault point turns the edit loop into plain cold
// solves — 200s with valid artifacts, zero 5xx, zero adoptions — and
// the server recovers the moment the fault clears.
func TestEditReplayHintCacheFaultDegrades(t *testing.T) {
	src := tensordotSrc(t)
	s := newTestServer(t, reticle.ServerOptions{})
	if first := compileOK(t, s, src); first.Cache != "miss" {
		t.Fatalf("warm compile: cache %q", first.Cache)
	}

	for i, mode := range chaosModes {
		inj := mode.inj
		inj.Times = 0 // every lookup faults for the whole request
		plan := faults.NewPlan(map[faults.Point]faults.Injection{
			hintcache.FaultLookup: inj,
		})
		// A distinct constant value per mode: each is a fresh artifact
		// (cache miss) in the same hint bucket, so the lookup runs.
		edited := constTweakN(src, 10+i)
		w := chaosPost(t, s, "/compile", server.CompileRequest{IR: edited}, plan)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: hint cache fault surfaced as %d — must degrade to a cold solve\n%s",
				mode.name, w.Code, w.Body.String())
		}
		var resp server.CompileResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if resp.Cache != "miss" {
			t.Fatalf("%s: cache %q, want miss (distinct artifact)", mode.name, resp.Cache)
		}
		if resp.Artifact.WarmStart == "adopted" {
			t.Fatalf("%s: lookup fault did not suppress adoption", mode.name)
		}
		if resp.Artifact.Degraded {
			t.Fatalf("%s: hint cache fault degraded the artifact", mode.name)
		}
	}

	// Fault cleared: the next edit adopts again (the recordings above
	// kept the store warm — lookups failed, recordings did not).
	final := compileOK(t, s, constTweakN(src, 99))
	if final.Cache != "miss" || final.Artifact.WarmStart != "adopted" {
		t.Fatalf("after the fault cleared: cache %q warm_start %q, want a fresh adoption",
			final.Cache, final.Artifact.WarmStart)
	}
}
