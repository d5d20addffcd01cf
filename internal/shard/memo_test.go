package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/cache"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/server"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
)

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

// memoCorpus is the bundled programs and n generated ones, each once.
func memoCorpus(t testing.TB, n int) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.ret"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled examples: %v", err)
	}
	var out []string
	seen := map[string]bool{}
	add := func(src string) {
		if !seen[src] {
			seen[src] = true
			out = append(out, src)
		}
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		add(string(src))
	}
	for seed := 0; seed < n; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		add(irgen.Generate(rng, irgen.Config{Instrs: 4 + seed%20, WithVectors: seed%2 == 0}).String())
	}
	return out
}

// admitKernels admits body for path through fs and returns its kernels.
func admitKernels(t *testing.T, fs server.FamilySet, path string, body []byte) []server.Kernel {
	t.Helper()
	q, err := fs.Admit(path, body, http.Header{}, maxBody)
	if err != nil {
		t.Fatalf("%s: refused: %v", path, err)
	}
	return q.Kernels
}

// TestRouterKernelMemo: what the router's kernel memo answers for a kernel
// it has admitted before — artifact key, route key and name — is what a
// fresh parse derives, on both families, across the bundled programs and
// generated ones; the same text under the other family is another entry;
// a kernel that does not parse is never memoized; and through a router, a
// repeat of a /compile, /batch or /explore answers the first answer's
// bytes and forwards the first send's bytes.
func TestRouterKernelMemo(t *testing.T) {
	programs := 64
	if testing.Short() {
		programs = 16
	}
	configs := familyConfigs(t)
	fs, err := server.NewFamilySet(configs, "ultrascale")
	if err != nil {
		t.Fatal(err)
	}
	fs.MemoizeKernels()
	corpus := memoCorpus(t, programs)
	for _, family := range []string{"ultrascale", "agilex"} {
		cfg := configs[family]
		for i, src := range corpus {
			body, _ := json.Marshal(server.CompileRequest{Family: family, IR: src})
			first := admitKernels(t, fs, "/compile", body)[0]
			again := admitKernels(t, fs, "/compile", body)[0]
			if first.Func == nil {
				t.Fatalf("%s program %d: first admission came from the memo", family, i)
			}
			if again.Func != nil {
				t.Fatalf("%s program %d: a repeat was parsed again", family, i)
			}
			f, err := ir.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			want := server.Kernel{Name: f.Name, Key: cache.KeyFor(cfg, f), Route: cache.Key(pipeline.HintKeyFor(cfg, f))}
			for _, got := range []server.Kernel{first, again} {
				if got.Name != want.Name || got.Key != want.Key || got.Route != want.Route || got.Err != nil {
					t.Fatalf("%s program %d: admitted %q %s %s %v, a fresh parse derives %q %s %s",
						family, i, got.Name, got.Key, got.Route, got.Err, want.Name, want.Key, want.Route)
				}
			}
			// A client's name wins over the memoized one.
			named, _ := json.Marshal(server.CompileRequest{Family: family, Name: "mine", IR: src})
			if k := admitKernels(t, fs, "/compile", named)[0]; k.Name != "mine" || k.Func != nil || k.Key != want.Key {
				t.Fatalf("%s program %d: named repeat admitted as %q (parsed %v)", family, i, k.Name, k.Func != nil)
			}
		}
	}

	broken, _ := json.Marshal(server.BatchRequest{Kernels: []server.BatchKernel{{IR: "def broken( {"}, {IR: maccSrc}}})
	for round := 0; round < 2; round++ {
		ks := admitKernels(t, fs, "/batch", broken)
		if ks[0].Err == nil || ks[0].Key != "" || ks[0].Route != "" {
			t.Fatalf("round %d: a kernel that does not parse was admitted as %+v", round, ks[0])
		}
		if _, err := fs.Admit("/compile", []byte(`{"ir":"def broken( {"}`), http.Header{}, maxBody); err == nil {
			t.Fatalf("round %d: a /compile that does not parse was admitted", round)
		}
	}

	batch, _ := json.Marshal(server.BatchRequest{Jobs: 1, Kernels: append(sweep(3),
		server.BatchKernel{Name: "dup", IR: chainSrc("sw0", 1)}, server.BatchKernel{IR: "def broken( {"})})
	for _, rq := range []struct{ path, body string }{
		{"/compile", `{"ir":` + quote(maccSrc) + `}`},
		{"/compile", `{"name":"mine","family":"agilex","ir":` + quote(maccSrc) + `}`},
		{"/batch", string(batch)},
		{"/explore", `{"ir":` + quote(maccSrc) + `,"jobs":1,"max_variants":2}`},
	} {
		backend, url := tapped(t)
		rt := newRouter(t, reticle.ShardOptions{Backends: []string{url}})
		send(backend, rq.path, rq.body, "") // resident, so both sends below are answered alike
		sent := len(backend.posts())
		first := send(rt, rq.path, rq.body, "")
		firstFwd := backend.posts()[sent:]
		second := send(rt, rq.path, rq.body, "")
		secondFwd := backend.posts()[sent+len(firstFwd):]
		if first.status != http.StatusOK || second.status != first.status || !bytes.Equal(second.body, first.body) {
			t.Errorf("%s: the repeat answered %d %.300s\nthe first %d %.300s", rq.path, second.status, second.body, first.status, first.body)
		}
		if strings.Join(secondFwd, "\n") != strings.Join(firstFwd, "\n") || len(firstFwd) == 0 {
			t.Errorf("%s: the repeat forwarded %d bodies, the first %d, and they differ", rq.path, len(secondFwd), len(firstFwd))
		}
	}
}

// lengthWriter is a ResponseWriter that keeps what it is written.
type lengthWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *lengthWriter) Header() http.Header         { return w.h }
func (w *lengthWriter) WriteHeader(code int)        { w.code = code }
func (w *lengthWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// wallStats are the /batch stats that time the tier that wrote them.
var wallStats = regexp.MustCompile(`"(wall_ns|kernels_per_sec)":[-+.eE0-9]+`)

// TestBufferedFrameByReference: a buffered frame that holds its artifacts
// by reference writes the bytes a frame that copies them does, and
// announces exactly the length it writes; over real sockets, a buffered
// /batch from a backend and from a router is the splice of the same
// tier's stream, announced at its length, and the two tiers answer the
// same bytes.
func TestBufferedFrameByReference(t *testing.T) {
	art := []byte(`{"asm":"a","placed":"p","verilog":"v","luts":1}`)
	items := []server.BatchKernelResultWire{
		{Name: "a", OK: true, Cache: "hit", Artifact: art},
		{Name: "b", Error: "parse: x", ErrorCode: "parse_failed"},
		{Name: "c<&>", OK: true, Cache: "miss", Artifact: art[: len(art)-1 : len(art)-1]},
		{Name: "d", OK: true, Cache: "hit", Artifact: []byte("{}")},
		// Larger than the frame's write buffer, so it crosses a flush.
		{Name: "e", OK: true, Cache: "hit", Artifact: []byte(`{"asm":"` + strings.Repeat("x", 150_000) + `"}`)},
	}
	frames := map[string][]byte{}
	for _, byRef := range []bool{false, true} {
		w := &lengthWriter{h: http.Header{}}
		f := server.NewFrame(w, false, "results", "family", "ultrascale")
		for i := range items {
			if byRef {
				f.Item(&items[i])
			} else {
				f.Item(items[i])
			}
		}
		f.Close("stats", server.BatchStatsJSON{Kernels: len(items)})
		if n, err := strconv.Atoi(w.h.Get("Content-Length")); err != nil || n != w.body.Len() || w.code != http.StatusOK {
			t.Fatalf("by reference %v: status %d, Content-Length %q for %d bytes written", byRef, w.code, w.h.Get("Content-Length"), w.body.Len())
		}
		frames[strconv.FormatBool(byRef)] = w.body.Bytes()
	}
	if !bytes.Equal(frames["true"], frames["false"]) {
		t.Fatalf("by reference:\n%s\nby copy:\n%s", frames["true"], frames["false"])
	}

	backends, urls := newBackends(t, 1)
	rt := newRouter(t, reticle.ShardOptions{Backends: urls})
	router := httptest.NewServer(rt)
	t.Cleanup(router.Close)
	kernels := append(sweep(4), server.BatchKernel{Name: "dup", IR: chainSrc("sw0", 1)},
		server.BatchKernel{Name: "broken", IR: "def broken( {"}, server.BatchKernel{IR: maccSrc})
	buffered, _ := json.Marshal(server.BatchRequest{Kernels: kernels})
	streamed, _ := json.Marshal(server.BatchRequest{Kernels: kernels, Stream: true})
	postRaw := func(url string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, read %v: %s", url, resp.StatusCode, err, b)
		}
		return resp, b
	}
	postRaw(router.URL, buffered) // warm: every valid kernel is a hit below, on both tiers
	tiers := map[string][]byte{}
	for name, url := range map[string]string{"backend": backends[0].URL, "router": router.URL} {
		resp, body := postRaw(url, buffered)
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: announced %d bytes, wrote %d", name, resp.ContentLength, len(body))
		}
		_, stream := postRaw(url, streamed)
		lines := strings.Split(strings.TrimSuffix(string(stream), "\n"), "\n")
		var foot struct {
			Family json.RawMessage `json:"family"`
			Stats  json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &foot); err != nil {
			t.Fatalf("%s: stream footer: %v", name, err)
		}
		splice := fmt.Sprintf(`{"family":%s,"results":[%s],"stats":%s}`+"\n",
			foot.Family, strings.Join(lines[:len(lines)-1], ","), foot.Stats)
		body = wallStats.ReplaceAll(body, nil)
		if want := wallStats.ReplaceAll([]byte(splice), nil); !bytes.Equal(body, want) {
			t.Errorf("%s: buffered body is not the splice of its stream\n got %.400s\nwant %.400s", name, body, want)
		}
		tiers[name] = body
	}
	if !bytes.Equal(tiers["router"], tiers["backend"]) {
		t.Errorf("the router's buffered /batch differs from the backend's\nrouter  %.400s\nbackend %.400s", tiers["router"], tiers["backend"])
	}
}
