package shard_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/server"
)

// TestRouterCompileMatchesBackend: a /compile through the router is a
// backend's answer relayed verbatim — same key schema, same artifact,
// same wire shape — so clients cannot tell the tiers apart.
func TestRouterCompileMatchesBackend(t *testing.T) {
	_, urls := newBackends(t, 3)
	rt := newRouter(t, reticle.ShardOptions{Backends: urls})

	var viaRouter server.CompileResponse
	if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, &viaRouter); code != http.StatusOK {
		t.Fatalf("router compile: status %d", code)
	}
	if viaRouter.Cache != "miss" || viaRouter.Artifact.Verilog == "" {
		t.Fatalf("router compile: %+v", viaRouter)
	}

	direct, err := reticle.NewServer(reticle.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var viaBackend server.CompileResponse
	if code := post(t, direct, "/compile", server.CompileRequest{IR: maccSrc}, &viaBackend); code != http.StatusOK {
		t.Fatalf("direct compile: status %d", code)
	}
	if viaRouter.Artifact.Verilog != viaBackend.Artifact.Verilog {
		t.Fatal("routed artifact differs from a direct compile")
	}
	if viaRouter.Key != viaBackend.Key {
		t.Fatalf("routed key %s differs from direct key %s — the tiers disagree on the key schema",
			viaRouter.Key, viaBackend.Key)
	}

	// The second request for the same kernel lands on the same backend
	// (ring stability) and is served from its warm LRU.
	var again server.CompileResponse
	if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, &again); code != http.StatusOK {
		t.Fatalf("warm router compile: status %d", code)
	}
	if again.Cache != "hit" {
		t.Fatalf("second routed compile: cache %q, want hit (key must re-land on the owner)", again.Cache)
	}
}

// TestRouterRejectsBadRequests: malformed input is answered at the
// router — it never wastes a backend round trip.
func TestRouterRejectsBadRequests(t *testing.T) {
	backends, urls := newBackends(t, 2)
	rt := newRouter(t, reticle.ShardOptions{Backends: urls})

	var er server.ErrorResponse
	if code := post(t, rt, "/compile", server.CompileRequest{IR: "def broken( {"}, &er); code != http.StatusBadRequest {
		t.Fatalf("parse failure: status %d", code)
	}
	if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc, Family: "nope"}, &er); code != http.StatusBadRequest {
		t.Fatalf("unknown family: status %d", code)
	}
	if code := post(t, rt, "/batch", server.BatchRequest{}, &er); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if code := post(t, rt, "/batch", server.BatchRequest{Jobs: -1, Kernels: sweep(1)}, &er); code != http.StatusBadRequest {
		t.Fatalf("negative jobs: status %d", code)
	}
	// One request object per body, at the router as at a backend: a valid
	// kernel followed by anything but whitespace is refused, not compiled.
	good, _ := json.Marshal(server.CompileRequest{IR: maccSrc})
	for _, tail := range []string{`{"ir":"garbage"}`, ` trailing junk`, `}`} {
		req := httptest.NewRequest("POST", "/compile", strings.NewReader(string(good)+tail))
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("trailing %q: status %d, want 400", tail, w.Code)
		}
	}
	for _, b := range backends {
		// The stats poll itself counts as a request, so pin the compile
		// counters: no malformed kernel ever reached a backend pipeline.
		if st := backendStats(t, b.URL); st.Kernels != 0 || st.Cache.Misses != 0 {
			t.Fatalf("bad requests reached a backend: %+v", st)
		}
	}
}

// TestRouterBatch: a routed batch dedupes duplicate kernels onto one
// proxy round trip, reports parse failures inline (the router does not
// parse: the backend refuses the kernel, one round trip of its own), and
// aggregates footer stats across the fan-out.
func TestRouterBatch(t *testing.T) {
	_, urls := newBackends(t, 3)
	rt := newRouter(t, reticle.ShardOptions{Backends: urls})
	kernels := []server.BatchKernel{
		{IR: chainSrc("b1", 1)},
		{Name: "dup", IR: chainSrc("b1", 1)},
		{Name: "broken", IR: "def broken( {"},
		{IR: chainSrc("b2", 2)},
	}
	var br server.BatchResponse
	if code := post(t, rt, "/batch", server.BatchRequest{Kernels: kernels}, &br); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(br.Results) != 4 {
		t.Fatalf("%d results, want 4", len(br.Results))
	}
	if !br.Results[0].OK || !br.Results[1].OK || !br.Results[3].OK {
		t.Fatalf("valid kernels failed: %+v", br.Results)
	}
	if br.Results[1].Name != "dup" {
		t.Fatalf("duplicate kernel lost its name: %+v", br.Results[1])
	}
	if br.Results[0].Artifact.Verilog != br.Results[1].Artifact.Verilog {
		t.Fatal("duplicate kernels did not share one proxied compile")
	}
	if br.Results[2].OK || br.Results[2].ErrorCode != "parse_failed" {
		t.Fatalf("parse failure reported %+v", br.Results[2])
	}
	st := br.Stats
	if st.Kernels != 4 || st.Succeeded != 3 || st.Failed != 1 || st.Compiled != 2 {
		t.Fatalf("batch stats %+v", st)
	}

	var stats struct {
		Router struct {
			Proxied int64 `json:"proxied"`
		} `json:"router"`
	}
	if code := get(t, rt, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	if stats.Router.Proxied != 3 {
		t.Fatalf("proxied %d round trips for 2 unique kernels and one that does not parse", stats.Router.Proxied)
	}
}

// TestRouterStreamBatch: the router speaks the same NDJSON framing as
// its backends — one line per kernel in submission order, then a
// footer — selected by the body flag or the Accept header.
func TestRouterStreamBatch(t *testing.T) {
	_, urls := newBackends(t, 2)
	rt := newRouter(t, reticle.ShardOptions{Backends: urls})
	kernels := []server.BatchKernel{
		{IR: chainSrc("s1", 1)},
		{Name: "broken", IR: "def broken( {"},
		{IR: chainSrc("s2", 2)},
	}
	data, err := json.Marshal(server.BatchRequest{Kernels: kernels, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/batch", bytes.NewReader(data))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
	if len(lines) != len(kernels)+1 {
		t.Fatalf("%d stream lines, want %d results + footer", len(lines), len(kernels))
	}
	for i, line := range lines[:len(kernels)] {
		var res server.BatchKernelResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		if i == 1 {
			if res.OK || res.ErrorCode != "parse_failed" {
				t.Fatalf("parse-failure line: %+v", res)
			}
		} else if !res.OK || res.Artifact.Verilog == "" {
			t.Fatalf("kernel line %d: %+v", i, res)
		}
	}
	var foot struct {
		Family string                `json:"family"`
		Stats  server.BatchStatsJSON `json:"stats"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &foot); err != nil {
		t.Fatalf("footer: %v\n%s", err, lines[len(lines)-1])
	}
	if foot.Family != "ultrascale" || foot.Stats.Kernels != 3 || foot.Stats.Succeeded != 2 {
		t.Fatalf("footer %+v", foot)
	}
}

// TestRouterHealthz reports per-backend liveness on the router's
// /healthz; a backend's carries no backends member at all.
func TestRouterHealthz(t *testing.T) {
	backends, urls := newBackends(t, 3)
	rt := newRouter(t, reticle.ShardOptions{Backends: urls})
	var own map[string]json.RawMessage
	if code := get(t, backends[0].Config.Handler, "/healthz", &own); code != http.StatusOK {
		t.Fatalf("backend /healthz: %d", code)
	}
	if _, ok := own["backends"]; ok || own["status"] == nil {
		t.Fatalf("backend /healthz body %v: want status and no backends member", own)
	}
	var hr struct {
		Status   string `json:"status"`
		Backends []struct {
			URL   string `json:"url"`
			Alive bool   `json:"alive"`
		} `json:"backends"`
	}
	if code := get(t, rt, "/healthz", &hr); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	if hr.Status != "ok" || len(hr.Backends) != 3 {
		t.Fatalf("healthz %+v", hr)
	}
	for i, b := range hr.Backends {
		if b.URL != backends[i].URL || !b.Alive {
			t.Fatalf("backend %d health %+v", i, b)
		}
	}
}
