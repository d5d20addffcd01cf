package shard_test

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/server"
	"reticle/internal/shard"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
)

// TestShardStatsNoDoubleCount pins the /stats aggregation invariant: a
// request is served by exactly one tier, so backend cache hits and
// router-local disk hits are disjoint and TotalHits is their plain sum
// — a router disk hit must never also appear (or be folded) into the
// backend counters it kept traffic away from.
func TestShardStatsNoDoubleCount(t *testing.T) {
	_, urls := newBackends(t, 2)
	dir := t.TempDir()
	rt := newRouter(t, reticle.ShardOptions{Backends: urls, DiskDir: dir})

	// Cold: the kernel crosses the network once and the artifact is
	// written through to the router disk.
	var cold server.CompileResponse
	if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, &cold); code != http.StatusOK {
		t.Fatalf("cold compile: %d", code)
	}
	if cold.Cache != "miss" {
		t.Fatalf("cold compile cache %q", cold.Cache)
	}
	var st shard.StatsResponse
	if code := get(t, rt, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	agg := st.Aggregate
	if agg.Kernels != 1 || agg.BackendCacheMisses != 1 || agg.BackendCacheHits != 0 {
		t.Fatalf("cold aggregate %+v", agg)
	}
	if agg.DiskHits != 0 || agg.TotalHits != 0 {
		t.Fatalf("cold aggregate claims hits: %+v", agg)
	}
	if st.Router.Proxied != 1 {
		t.Fatalf("cold proxied %d, want 1", st.Router.Proxied)
	}
	if st.Router.Disk == nil || st.Router.Disk.Writes != 1 {
		t.Fatalf("cold router disk %+v", st.Router.Disk)
	}

	// Warm: the router disk answers; the request never reaches a
	// backend, so every backend counter is frozen.
	var warm server.CompileResponse
	if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, &warm); code != http.StatusOK {
		t.Fatalf("warm compile: %d", code)
	}
	if warm.Cache != "hit" {
		t.Fatalf("warm compile cache %q, want hit from the router disk", warm.Cache)
	}
	if code := get(t, rt, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	agg = st.Aggregate
	if agg.DiskHits != 1 {
		t.Fatalf("warm aggregate disk hits %d, want 1", agg.DiskHits)
	}
	if agg.BackendCacheHits != 0 || agg.BackendCacheMisses != 1 || agg.Kernels != 1 {
		// The regression this test exists for: a disk-served request that
		// still hit (or was counted against) a backend.
		t.Fatalf("router disk hit leaked into backend counters: %+v", agg)
	}
	if agg.TotalHits != agg.BackendCacheHits+agg.DiskHits {
		t.Fatalf("total hits %d != backend %d + disk %d", agg.TotalHits, agg.BackendCacheHits, agg.DiskHits)
	}
	if st.Router.Proxied != 1 {
		t.Fatalf("warm request proxied anyway: %d", st.Router.Proxied)
	}

	// A batch of three copies of the kernel: all served locally, still
	// zero new proxy traffic, and the sum stays consistent.
	kernels := []server.BatchKernel{{IR: maccSrc}, {IR: maccSrc}, {IR: maccSrc}}
	var br server.BatchResponse
	if code := post(t, rt, "/batch", server.BatchRequest{Kernels: kernels}, &br); code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}
	for i, res := range br.Results {
		if !res.OK || res.Cache != "hit" {
			t.Fatalf("batch kernel %d: %+v", i, res)
		}
	}
	if code := get(t, rt, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	agg = st.Aggregate
	if agg.DiskHits != 4 || agg.BackendCacheHits != 0 || agg.TotalHits != 4 {
		t.Fatalf("batch aggregate %+v", agg)
	}
	if st.Router.Proxied != 1 {
		t.Fatalf("disk-served batch proxied traffic: %d", st.Router.Proxied)
	}
}

// TestShardDiskSurvivesBackendLoss: the router's persistent cache is a
// real second tier — a fresh router over the same directory, fronting
// an entirely dead backend set, still serves every previously compiled
// kernel byte-for-byte.
func TestShardDiskSurvivesBackendLoss(t *testing.T) {
	backends, urls := newBackends(t, 2)
	dir := t.TempDir()
	rt := newRouter(t, reticle.ShardOptions{Backends: urls, DiskDir: dir})

	var first server.CompileResponse
	if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, &first); code != http.StatusOK {
		t.Fatalf("cold compile: %d", code)
	}

	// Router restart plus total backend loss.
	for _, b := range backends {
		b.Close()
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	fresh := newRouter(t, reticle.ShardOptions{Backends: urls, DiskDir: dir})
	var again server.CompileResponse
	if code := post(t, fresh, "/compile", server.CompileRequest{IR: maccSrc}, &again); code != http.StatusOK {
		t.Fatalf("compile over dead tier: %d", code)
	}
	if again.Cache != "hit" {
		t.Fatalf("restarted router cache %q, want hit with every backend dead", again.Cache)
	}
	if again.Artifact.Verilog != first.Artifact.Verilog || again.Key != first.Key {
		t.Fatal("artifact changed across router restart")
	}
}

// familyConfigs is one pipeline config per bundled family, as a router
// runs them.
func familyConfigs(t testing.TB) map[string]*pipeline.Config {
	t.Helper()
	out := map[string]*pipeline.Config{
		"ultrascale": {Target: ultrascale.Target(), Device: ultrascale.Device(), Cascades: ultrascale.Cascades()},
		"agilex":     {Target: agilex.Target(), Device: agilex.Device(), Cascades: agilex.Cascades()},
	}
	for _, cfg := range out {
		lib, err := isel.NewLibrary(cfg.Target)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Lib = lib
	}
	return out
}

// TestRouterDiskKeyCoversConfig: the router's disk tier keys a kernel by
// its text under its family's config. A router restarted over the same
// directory with the same configs answers from disk, the bytes of the
// compile that wrote the record bar the cache mark, without a backend
// request; the same text under the other family, or under a family
// whose config changed, misses and is forwarded. A record written for a
// kernel its client named holds no parsed name: it answers a named
// kernel, and an unnamed one is forwarded once to learn the name.
func TestRouterDiskKeyCoversConfig(t *testing.T) {
	backend, url := tapped(t)
	dir := t.TempDir()
	// start opens a router over dir once the last one has shut down: a
	// -disk directory belongs to one process at a time.
	var last *shard.Router
	start := func(configs map[string]*pipeline.Config) *shard.Router {
		t.Helper()
		if last != nil {
			if err := last.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		rt, err := shard.New(shard.Options{Backends: []string{url}, DiskDir: dir, DefaultFamily: "ultrascale"}, configs)
		if err != nil {
			t.Fatal(err)
		}
		last = rt
		return rt
	}
	body := `{"ir":` + quote(maccSrc) + `}`
	cold := send(start(familyConfigs(t)), "/compile", body, "")
	if cold.status != http.StatusOK || !bytes.Contains(cold.body, []byte(`"cache":"miss"`)) {
		t.Fatalf("cold compile: %d %.200s", cold.status, cold.body)
	}
	// sent reports how many requests reached the backend for one send.
	sent := func(rt http.Handler, body string) (answer, int) {
		t.Helper()
		posts := len(backend.posts())
		a := send(rt, "/compile", body, "")
		if a.status != http.StatusOK {
			t.Fatalf("status %d: %.200s", a.status, a.body)
		}
		return a, len(backend.posts()) - posts
	}

	same := start(familyConfigs(t))
	hit, posts := sent(same, body)
	if want := strings.Replace(string(cold.body), `"cache":"miss"`, `"cache":"hit"`, 1); posts != 0 || string(hit.body) != want {
		t.Errorf("same config: %d backend requests, answered %.200s\nwant %.200s", posts, hit.body, want)
	}
	if _, posts := sent(same, `{"family":"agilex","ir":`+quote(maccSrc)+`}`); posts != 1 {
		t.Errorf("the other family: %d backend requests, want the miss forwarded once", posts)
	}

	chain := quote(chainSrc("named", 2))
	for i, want := range []struct {
		body, name string
		posts      int
	}{
		{`{"name":"mine","ir":` + chain + `}`, "mine", 1},
		{`{"name":"yours","ir":` + chain + `}`, "yours", 0},
		{`{"ir":` + chain + `}`, "named", 1},
		{`{"ir":` + chain + `}`, "named", 0},
	} {
		a, posts := sent(same, want.body)
		if prefix := `{"name":"` + want.name + `",`; !bytes.HasPrefix(a.body, []byte(prefix)) || posts != want.posts {
			t.Errorf("named record, send %d: %.40s after %d backend requests, want %s after %d", i, a.body, posts, prefix, want.posts)
		}
	}

	changed := familyConfigs(t)
	changed["ultrascale"].MaxSolverSteps = 1 << 20
	if _, posts := sent(start(changed), body); posts != 1 {
		t.Errorf("changed config: %d backend requests, want the miss forwarded once", posts)
	}
}
