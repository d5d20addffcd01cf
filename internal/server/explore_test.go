package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/faults"
	"reticle/internal/rerr"
	"reticle/internal/server"
)

// maccLattice is the pinned variant lattice for maccSrc: bind=any
// dedupes against the unannotated base, everything else is distinct.
var maccLattice = []string{
	"base", "bind=lut", "bind=dsp", "nocascade", "bind=dsp+nocascade",
	"flip=t0", "flip=t1",
}

// exploreDeterministic extracts the sections of an /explore body that
// the determinism contract covers byte-for-byte: everything except
// stats, whose wall-time fields are measured, not derived.
func exploreDeterministic(t testing.TB, body []byte) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("explore body is not JSON: %v\n%s", err, body)
	}
	return string(m["name"]) + "\n" + string(m["family"]) + "\n" +
		string(m["variants"]) + "\n" + string(m["frontier"]) + "\n" + string(m["partial"])
}

// TestExploreSweep: one buffered sweep over the macc lattice — every
// variant compiles, the frontier is non-empty, drawn from the sweep,
// and the stats add up.
func TestExploreSweep(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	var resp server.ExploreResponse
	if code := post(t, s, "/explore", server.ExploreRequest{IR: maccSrc}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Name != "macc" || resp.Family != "ultrascale" {
		t.Fatalf("name/family = %q/%q", resp.Name, resp.Family)
	}
	if len(resp.Variants) != len(maccLattice) {
		t.Fatalf("%d variants, want %d: %+v", len(resp.Variants), len(maccLattice), resp.Variants)
	}
	ids := make(map[string]bool)
	for i, v := range resp.Variants {
		if v.ID != maccLattice[i] {
			t.Fatalf("variant %d id %q, want %q", i, v.ID, maccLattice[i])
		}
		if !v.OK || v.Metrics == nil {
			t.Fatalf("variant %q failed: %+v", v.ID, v)
		}
		if v.Metrics.CriticalNs <= 0 || v.Metrics.Luts+v.Metrics.Dsps == 0 {
			t.Fatalf("variant %q has degenerate metrics: %+v", v.ID, *v.Metrics)
		}
		ids[v.ID] = true
	}
	if len(resp.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, fp := range resp.Frontier {
		if !ids[fp.ID] {
			t.Fatalf("frontier point %q is not a sweep variant", fp.ID)
		}
	}
	if resp.Partial {
		t.Fatal("clean sweep marked partial")
	}
	st := resp.Stats
	if st.Variants != len(maccLattice) || st.Succeeded != len(maccLattice) || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestExploreDeterministicColdWarmParallel is the determinism
// satellite: a cold server, the same server fully cache-warm, a
// jobs=8 parallel sweep, and a second cold server all serve
// byte-identical variants, frontier, and partial sections.
func TestExploreDeterministicColdWarmParallel(t *testing.T) {
	s1 := newTestServer(t, reticle.ServerOptions{})
	cold := postBody(t, s1, "/explore", server.ExploreRequest{IR: maccSrc}, nil)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d: %s", cold.Code, cold.Body.String())
	}
	warm := postBody(t, s1, "/explore", server.ExploreRequest{IR: maccSrc}, nil)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: status %d: %s", warm.Code, warm.Body.String())
	}
	par := postBody(t, s1, "/explore", server.ExploreRequest{IR: maccSrc, Jobs: 8}, nil)
	if par.Code != http.StatusOK {
		t.Fatalf("parallel: status %d: %s", par.Code, par.Body.String())
	}
	s2 := newTestServer(t, reticle.ServerOptions{})
	cold2 := postBody(t, s2, "/explore", server.ExploreRequest{IR: maccSrc, Jobs: 8}, nil)
	if cold2.Code != http.StatusOK {
		t.Fatalf("second cold: status %d: %s", cold2.Code, cold2.Body.String())
	}

	want := exploreDeterministic(t, cold.Body.Bytes())
	for name, w := range map[string]*bytes.Buffer{
		"warm": warm.Body, "parallel": par.Body, "second cold server": cold2.Body,
	} {
		if got := exploreDeterministic(t, w.Bytes()); got != want {
			t.Fatalf("%s sweep differs from cold sweep\ncold:\n%s\n%s:\n%s", name, want, name, got)
		}
	}

	// The warm sweep was served entirely from the cache hierarchy; the
	// cache attribution lives in stats, outside the deterministic bytes.
	var ws server.ExploreResponse
	if err := json.Unmarshal(warm.Body.Bytes(), &ws); err != nil {
		t.Fatal(err)
	}
	if ws.Stats.CacheHits != ws.Stats.Variants {
		t.Fatalf("warm sweep: %d/%d cache hits", ws.Stats.CacheHits, ws.Stats.Variants)
	}
}

// TestExploreScoresFromDisk: after a restart every variant is decoded
// from the disk level, where the artifact namespace reads the scored
// counters back off the tail of the wire bytes. The sweep must score
// exactly as the compiles did, without one pipeline run.
func TestExploreScoresFromDisk(t *testing.T) {
	dir := t.TempDir()
	cold := postBody(t, newTestServer(t, reticle.ServerOptions{DiskDir: dir}),
		"/explore", server.ExploreRequest{IR: maccSrc}, nil)
	restarted := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	warm := postBody(t, restarted, "/explore", server.ExploreRequest{IR: maccSrc}, nil)
	if cold.Code != http.StatusOK || warm.Code != http.StatusOK {
		t.Fatalf("status cold %d, restarted %d: %s", cold.Code, warm.Code, warm.Body.String())
	}
	if got, want := exploreDeterministic(t, warm.Body.Bytes()), exploreDeterministic(t, cold.Body.Bytes()); got != want {
		t.Fatalf("sweep scored from disk differs from the cold sweep\ncold:\n%s\nrestarted:\n%s", want, got)
	}
	var ws server.ExploreResponse
	if err := json.Unmarshal(warm.Body.Bytes(), &ws); err != nil {
		t.Fatal(err)
	}
	var st server.StatsResponse
	get(t, restarted, "/stats", &st)
	if ws.Stats.CacheHits != ws.Stats.Variants || st.Kernels != 0 || st.Disk.Hits == 0 {
		t.Fatalf("restarted sweep: %d/%d cache hits, %d kernels compiled, disk %+v",
			ws.Stats.CacheHits, ws.Stats.Variants, st.Kernels, st.Disk)
	}
}

// TestExploreStreamSplicesToBuffered: on a warm server, the NDJSON
// stream carries one line per variant, byte-identical to the buffered
// body's variants elements, and the footer completes the splice
//
//	{"name":N,"family":F,"variants":[line1,...,lineN],"frontier":...,"partial":...,"stats":...}
//
// matching the buffered body byte-for-byte up to the stats value (the
// last field, whose wall-time members are measured per run).
func TestExploreStreamSplicesToBuffered(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	if w := postBody(t, s, "/explore", server.ExploreRequest{IR: maccSrc}, nil); w.Code != http.StatusOK {
		t.Fatalf("warm sweep: status %d: %s", w.Code, w.Body.String())
	}

	buffered := postBody(t, s, "/explore", server.ExploreRequest{IR: maccSrc}, nil)
	if buffered.Code != http.StatusOK {
		t.Fatalf("buffered: status %d: %s", buffered.Code, buffered.Body.String())
	}
	streamed := postBody(t, s, "/explore", server.ExploreRequest{IR: maccSrc, Stream: true}, nil)
	if streamed.Code != http.StatusOK {
		t.Fatalf("streamed: status %d: %s", streamed.Code, streamed.Body.String())
	}
	if ct := streamed.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type %q, want application/x-ndjson", ct)
	}

	lines, footer := streamLines(t, streamed.Body.String())
	if len(lines) != len(maccLattice) {
		t.Fatalf("stream has %d variant lines, want %d", len(lines), len(maccLattice))
	}
	var foot struct {
		Name     json.RawMessage `json:"name"`
		Family   json.RawMessage `json:"family"`
		Frontier json.RawMessage `json:"frontier"`
		Partial  json.RawMessage `json:"partial"`
		Stats    json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal([]byte(footer), &foot); err != nil {
		t.Fatalf("footer is not JSON: %v\n%s", err, footer)
	}

	var splice bytes.Buffer
	splice.WriteString(`{"name":`)
	splice.Write(foot.Name)
	splice.WriteString(`,"family":`)
	splice.Write(foot.Family)
	splice.WriteString(`,"variants":[`)
	splice.WriteString(strings.Join(lines, ","))
	splice.WriteString(`],"frontier":`)
	splice.Write(foot.Frontier)
	splice.WriteString(`,"partial":`)
	splice.Write(foot.Partial)
	splice.WriteString(`,"stats":`)

	const statsMark = `,"stats":`
	bufBody := buffered.Body.String()
	cut := strings.LastIndex(bufBody, statsMark)
	if cut < 0 {
		t.Fatalf("buffered body has no stats field:\n%s", bufBody)
	}
	if got, want := splice.String(), bufBody[:cut+len(statsMark)]; got != want {
		t.Fatalf("stream splice differs from buffered body\nstream splice:\n%s\nbuffered:\n%s", got, want)
	}

	// The stats counters agree too; only the wall-time fields may move.
	var bs server.ExploreResponse
	if err := json.Unmarshal(buffered.Body.Bytes(), &bs); err != nil {
		t.Fatal(err)
	}
	var ss server.ExploreStatsJSON
	if err := json.Unmarshal(foot.Stats, &ss); err != nil {
		t.Fatal(err)
	}
	ss.WallNS, ss.VariantsPerSec = bs.Stats.WallNS, bs.Stats.VariantsPerSec
	if ss != bs.Stats {
		t.Fatalf("stream stats %+v, buffered %+v", ss, bs.Stats)
	}
}

// TestExploreStreamAcceptHeader: the Accept header triggers streaming
// like Stream:true does.
func TestExploreStreamAcceptHeader(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	w := postBody(t, s, "/explore", server.ExploreRequest{IR: maccSrc},
		map[string]string{"Accept": "application/x-ndjson"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	lines, footer := streamLines(t, w.Body.String())
	if len(lines) != len(maccLattice) || !strings.Contains(footer, `"frontier"`) {
		t.Fatalf("stream shape: %d lines, footer %s", len(lines), footer)
	}
}

// TestChaosExploreVariantFaults is the chaos satellite: transient
// per-variant faults are retried inside the pool and leave a clean
// sweep; permanent faults fail exactly their variants while the
// frontier still covers the survivors, marked partial — never a 5xx.
func TestChaosExploreVariantFaults(t *testing.T) {
	t.Run("permanent", func(t *testing.T) {
		s := newTestServer(t, reticle.ServerOptions{})
		plan := faults.NewPlan(map[faults.Point]faults.Injection{
			"explore/variant": {Class: rerr.Permanent, Times: 2},
		})
		w := chaosPost(t, s, "/explore", server.ExploreRequest{IR: maccSrc}, plan)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp server.ExploreResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Partial {
			t.Fatal("faulted sweep not marked partial")
		}
		failed := make(map[string]bool)
		for _, v := range resp.Variants {
			if !v.OK {
				if v.ErrorCode != "fault_injected" {
					t.Fatalf("variant %q failed with code %q: %+v", v.ID, v.ErrorCode, v)
				}
				failed[v.ID] = true
			}
		}
		if len(failed) != 2 {
			t.Fatalf("%d variants failed, want 2", len(failed))
		}
		if len(resp.Frontier) == 0 {
			t.Fatal("no frontier over the survivors")
		}
		for _, fp := range resp.Frontier {
			if failed[fp.ID] {
				t.Fatalf("failed variant %q on the frontier", fp.ID)
			}
		}
		if resp.Stats.Failed != 2 || resp.Stats.Succeeded != len(maccLattice)-2 {
			t.Fatalf("stats %+v", resp.Stats)
		}
	})
	t.Run("transient", func(t *testing.T) {
		s := newTestServer(t, reticle.ServerOptions{})
		plan := faults.NewPlan(map[faults.Point]faults.Injection{
			"explore/variant": {Class: rerr.Transient, Times: 2},
		})
		w := chaosPost(t, s, "/explore", server.ExploreRequest{IR: maccSrc}, plan)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp server.ExploreResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Partial || resp.Stats.Failed != 0 {
			t.Fatalf("transient faults not absorbed by retries: %+v", resp.Stats)
		}
		if resp.Stats.Retried < 2 {
			t.Fatalf("retried %d, want >= 2", resp.Stats.Retried)
		}
	})
	t.Run("panic", func(t *testing.T) {
		s := newTestServer(t, reticle.ServerOptions{})
		plan := faults.NewPlan(map[faults.Point]faults.Injection{
			"explore/variant": {Panic: true, Times: 1},
		})
		w := chaosPost(t, s, "/explore", server.ExploreRequest{IR: maccSrc}, plan)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp server.ExploreResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Partial || resp.Stats.Failed != 1 {
			t.Fatalf("panic not contained to one variant: %+v", resp.Stats)
		}
		if strings.Contains(w.Body.String(), "goroutine") {
			t.Fatal("stack frames leaked to the wire")
		}
	})
	t.Run("handler", func(t *testing.T) {
		s := newTestServer(t, reticle.ServerOptions{})
		plan := faults.NewPlan(map[faults.Point]faults.Injection{
			"server/explore": {Class: rerr.Permanent, Times: 1},
		})
		w := chaosPost(t, s, "/explore", server.ExploreRequest{IR: maccSrc}, plan)
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422: %s", w.Code, w.Body.String())
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if er.ErrorCode != "fault_injected" {
			t.Fatalf("error code %q", er.ErrorCode)
		}
	})
}

// TestChaosExploreStreamFaults: a streamed sweep under permanent
// per-variant faults still emits every line plus a partial footer.
func TestChaosExploreStreamFaults(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		"explore/variant": {Class: rerr.Permanent, Times: 2},
	})
	data, err := json.Marshal(server.ExploreRequest{IR: maccSrc, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/explore", bytes.NewReader(data))
	req = req.WithContext(faults.WithPlan(req.Context(), plan))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	lines, footer := streamLines(t, w.Body.String())
	if len(lines) != len(maccLattice) {
		t.Fatalf("%d lines, want %d", len(lines), len(maccLattice))
	}
	failed := 0
	for _, line := range lines {
		var v server.ExploreVariant
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line is not JSON: %v\n%s", err, line)
		}
		if !v.OK {
			failed++
			if v.ErrorCode != "fault_injected" {
				t.Fatalf("variant %q failed with code %q", v.ID, v.ErrorCode)
			}
		}
	}
	if failed != 2 {
		t.Fatalf("%d failed lines, want 2", failed)
	}
	var foot struct {
		Partial  bool                          `json:"partial"`
		Frontier []server.ExploreFrontierPoint `json:"frontier"`
	}
	if err := json.Unmarshal([]byte(footer), &foot); err != nil {
		t.Fatalf("footer is not JSON: %v\n%s", err, footer)
	}
	if !foot.Partial || len(foot.Frontier) == 0 {
		t.Fatalf("footer %s", footer)
	}
}

// TestExploreStatsCounters: /stats carries the explore totals.
func TestExploreStatsCounters(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	var st server.StatsResponse
	get(t, s, "/stats", &st)
	if st.Explore.Sweeps != 0 || st.Explore.Variants != 0 {
		t.Fatalf("fresh server explore totals %+v", st.Explore)
	}

	if code := post(t, s, "/explore", server.ExploreRequest{IR: maccSrc}, nil); code != http.StatusOK {
		t.Fatalf("first sweep: status %d", code)
	}
	get(t, s, "/stats", &st)
	if st.Explore.Sweeps != 1 || st.Explore.Variants != int64(len(maccLattice)) || st.Explore.Partial != 0 {
		t.Fatalf("after one sweep: %+v", st.Explore)
	}
	if st.Kernels == 0 {
		t.Fatal("variant compiles did not count as kernels")
	}

	if code := post(t, s, "/explore", server.ExploreRequest{IR: maccSrc}, nil); code != http.StatusOK {
		t.Fatalf("second sweep: status %d", code)
	}
	get(t, s, "/stats", &st)
	if st.Explore.Sweeps != 2 || st.Explore.VariantCacheHits < int64(len(maccLattice)) {
		t.Fatalf("after warm sweep: %+v", st.Explore)
	}

	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		"explore/variant": {Class: rerr.Permanent, Times: 1},
	})
	if w := chaosPost(t, s, "/explore", server.ExploreRequest{IR: maccSrc}, plan); w.Code != http.StatusOK {
		t.Fatalf("faulted sweep: status %d: %s", w.Code, w.Body.String())
	}
	get(t, s, "/stats", &st)
	if st.Explore.Sweeps != 3 || st.Explore.Partial != 1 {
		t.Fatalf("after partial sweep: %+v", st.Explore)
	}
}

// TestExploreVariantCap: per-request max_variants truncates the lattice
// keeping the base first.
func TestExploreVariantCap(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	var resp server.ExploreResponse
	if code := post(t, s, "/explore", server.ExploreRequest{IR: maccSrc, MaxVariants: 3}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Variants) != 3 || resp.Variants[0].ID != "base" {
		t.Fatalf("capped sweep: %+v", resp.Variants)
	}
}

// TestExploreBadRequests: malformed sweeps are rejected with a 400
// before any compile starts.
func TestExploreBadRequests(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	cases := []struct {
		name string
		req  server.ExploreRequest
	}{
		{"negative jobs", server.ExploreRequest{IR: maccSrc, Jobs: -1}},
		{"negative max_variants", server.ExploreRequest{IR: maccSrc, MaxVariants: -1}},
		{"unknown family", server.ExploreRequest{IR: maccSrc, Family: "stratix"}},
		{"parse failure", server.ExploreRequest{IR: "def broken( {"}},
		{"empty ir", server.ExploreRequest{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := post(t, s, "/explore", tc.req, nil); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
		})
	}
	t.Run("unknown field", func(t *testing.T) {
		if code := postRaw(t, s, "/explore", []byte(`{"ir":"x","surprise":1}`), nil); code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})
}
