package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"reticle"
	"reticle/internal/cache"
	"reticle/internal/server"
)

const maccSrc = `
def macc(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[0](t1, en) @??;
}`

// newTestServer builds a service over both bundled families with
// test-friendly bounds.
func newTestServer(t testing.TB, opts reticle.ServerOptions) *server.Server {
	t.Helper()
	s, err := reticle.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post sends a JSON body and decodes the response into out, returning
// the status code.
func post(t testing.TB, h http.Handler, path string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, h, path, data, out)
}

func postRaw(t testing.TB, h http.Handler, path string, data []byte, out any) int {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: content-type %q, want application/json", path, ct)
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: response is not JSON: %v\n%s", path, err, w.Body.String())
		}
	}
	return w.Code
}

func get(t testing.TB, h http.Handler, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: response is not JSON: %v\n%s", path, err, w.Body.String())
		}
	}
	return w.Code
}

// TestCompileMatchesDirectCompile: for every bundled example program on
// both families, the service response — uncached and cached — carries
// artifact bytes identical to a direct reticle.Compile.
func TestCompileMatchesDirectCompile(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	compilers := map[string]*reticle.Compiler{}
	for fam, opts := range map[string]reticle.Options{
		"ultrascale": {},
		"agilex":     {Target: reticle.Agilex(), Device: reticle.AGF014()},
	} {
		c, err := reticle.NewCompilerWith(opts)
		if err != nil {
			t.Fatal(err)
		}
		compilers[fam] = c
	}

	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.ret"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for fam, c := range compilers {
			want, err := c.CompileString(string(src))
			if err != nil {
				t.Fatalf("%s/%s: direct compile: %v", path, fam, err)
			}
			for round, wantCache := range []string{"miss", "hit"} {
				var resp server.CompileResponse
				code := post(t, s, "/compile", server.CompileRequest{IR: string(src), Family: fam}, &resp)
				if code != http.StatusOK {
					t.Fatalf("%s/%s: status %d", path, fam, code)
				}
				if resp.Cache != wantCache {
					t.Errorf("%s/%s round %d: cache=%q, want %q", path, fam, round, resp.Cache, wantCache)
				}
				if resp.Artifact.Verilog != want.Verilog {
					t.Errorf("%s/%s round %d: Verilog differs from direct compile", path, fam, round)
				}
				if resp.Artifact.Asm != want.Asm.String() || resp.Artifact.Placed != want.Placed.String() {
					t.Errorf("%s/%s round %d: assembly differs from direct compile", path, fam, round)
				}
				if resp.Artifact.LUTs != want.LUTs || resp.Artifact.DSPs != want.DSPs ||
					resp.Artifact.FMaxMHz != want.FMaxMHz {
					t.Errorf("%s/%s round %d: stats differ from direct compile", path, fam, round)
				}
				if resp.Family != fam {
					t.Errorf("family = %q, want %q", resp.Family, fam)
				}
			}
		}
	}
}

// TestCompileCacheSecondRequestHits is the acceptance criterion verbatim:
// POST /compile twice with the same kernel — the second response says
// "cache":"hit" and carries byte-identical artifact fields, and an
// alpha-renamed variant of the kernel hits too (canonical hashing).
func TestCompileCacheSecondRequestHits(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	var first, second, renamed server.CompileResponse
	if code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &first); code != http.StatusOK {
		t.Fatalf("first: status %d", code)
	}
	if code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &second); code != http.StatusOK {
		t.Fatalf("second: status %d", code)
	}
	if first.Cache != "miss" || second.Cache != "hit" {
		t.Errorf("cache fields = %q, %q; want miss, hit", first.Cache, second.Cache)
	}
	if first.Key != second.Key {
		t.Errorf("keys differ: %s vs %s", first.Key, second.Key)
	}
	a, b := first.Artifact, second.Artifact
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Errorf("artifact bytes differ between miss and hit:\n%s\nvs\n%s", ab, bb)
	}

	alpha := strings.NewReplacer("t0", "prod", "t1", "sum").Replace(maccSrc)
	if code := post(t, s, "/compile", server.CompileRequest{IR: alpha}, &renamed); code != http.StatusOK {
		t.Fatalf("renamed: status %d", code)
	}
	if renamed.Cache != "hit" || renamed.Key != first.Key {
		t.Errorf("alpha-renamed kernel missed the cache (cache=%q)", renamed.Cache)
	}
}

// TestSingleflight32Clients: 32 concurrent clients posting the same
// kernel compile it exactly once — asserted through the /stats computes
// counter — and all receive identical Verilog.
func TestSingleflight32Clients(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	const n = 32
	var wg sync.WaitGroup
	resps := make([]server.CompileResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &resps[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if resps[i].Artifact.Verilog != resps[0].Artifact.Verilog {
			t.Fatalf("client %d received different Verilog", i)
		}
	}
	var st server.StatsResponse
	if code := get(t, s, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	if st.Cache.Computes != 1 {
		t.Errorf("computes = %d after 32 concurrent identical requests, want 1", st.Cache.Computes)
	}
	if got := st.Cache.Hits + st.Cache.Coalesced + st.Cache.Misses; got != n {
		t.Errorf("lookups = %d, want %d", got, n)
	}
	if st.InFlightKernels != 0 {
		t.Errorf("in-flight kernels = %d after completion", st.InFlightKernels)
	}
}

// TestErrorPaths: malformed JSON, malformed IR, unknown family, bad
// timeouts, and semantic compile failures all return structured JSON
// errors with the right status family — and the server keeps serving.
func TestErrorPaths(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed-json", `{"ir": `, http.StatusBadRequest},
		{"unknown-field", `{"ir": "x", "bogus": 1}`, http.StatusBadRequest},
		{"empty-body", ``, http.StatusBadRequest},
		{"second-object", `{"ir": "def f(a:i8) -> (y:i8) { y:i8 = id(a); }"}{"ir": "garbage"}`, http.StatusBadRequest},
		{"trailing-junk", `{"ir": "def f(a:i8) -> (y:i8) { y:i8 = id(a); }"} trailing junk`, http.StatusBadRequest},
		{"stray-brace", `{"ir": "def f(a:i8) -> (y:i8) { y:i8 = id(a); }"}}`, http.StatusBadRequest},
		{"malformed-ir", `{"ir": "def broken("}`, http.StatusBadRequest},
		// Either would compile to a Verilog module declaring one port twice.
		{"duplicate-output", `{"ir": "def f(x:i8, en:bool) -> (y:i8, y:i8) { y:i8 = reg[0](x, en) @??; }"}`, http.StatusBadRequest},
		{"output-names-input", `{"ir": "def f(a:i8, en:bool) -> (a:i8) {}"}`, http.StatusBadRequest},
		{"undefined-output-of-empty-function", `{"ir": "def f() -> (y:i8) {}"}`, http.StatusBadRequest},
		{"unknown-family", `{"ir": "def f(a:i8) -> (y:i8) { y:i8 = id(a); }", "family": "ice40"}`, http.StatusBadRequest},
		{"negative-timeout", `{"ir": "def f(a:i8) -> (y:i8) { y:i8 = id(a); }", "timeout_ms": -5}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var errResp server.ErrorResponse
		code := postRaw(t, s, "/compile", []byte(tc.body), &errResp)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.code, errResp.Error)
		}
		if errResp.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
		if errResp.Code != code {
			t.Errorf("%s: body code %d != status %d", tc.name, errResp.Code, code)
		}
	}

	// Whitespace after the request object is not trailing data.
	if code := postRaw(t, s, "/compile", []byte(`{"ir": "def f(a:i8) -> (y:i8) { y:i8 = id(a); }"}`+" \r\n\t"), nil); code != http.StatusOK {
		t.Errorf("trailing whitespace: status %d, want 200", code)
	}

	// A kernel that parses but cannot compile (vector width capacity) is
	// an unprocessable entity, not a 500.
	var errResp server.ErrorResponse
	big := `def f(a:i64<64>, b:i64<64>) -> (y:i64<64>) { y:i64<64> = mul(a, b) @dsp; }`
	code := post(t, s, "/compile", server.CompileRequest{IR: big}, &errResp)
	if code != http.StatusUnprocessableEntity && code != http.StatusOK {
		t.Errorf("semantic failure: status %d, want 422 (err %q)", code, errResp.Error)
	}

	// The server must still be healthy after the error barrage.
	var h server.HealthResponse
	if code := get(t, s, "/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz after errors: %d %+v", code, h)
	}
}

// TestOversizedBody: a body one byte past the body limit is a structured
// 413, not a dropped connection, and does not kill the server.
func TestOversizedBody(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	empty, _ := json.Marshal(server.CompileRequest{})
	big, _ := json.Marshal(server.CompileRequest{IR: strings.Repeat("x", server.MaxBodyBytes+1-len(empty))})
	if len(big) != server.MaxBodyBytes+1 {
		t.Fatalf("body is %d bytes, want %d", len(big), server.MaxBodyBytes+1)
	}
	var errResp server.ErrorResponse
	if code := postRaw(t, s, "/compile", big, &errResp); code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413 (%s)", code, errResp.Error)
	}
	var resp server.CompileResponse
	if code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &resp); code != http.StatusOK {
		t.Errorf("server unusable after oversized body: %d", code)
	}
}

// TestExpiredDeadline: a request deadline that cannot be met surfaces as
// a 504 with a structured error, propagated from the pipeline's
// stage-boundary context checks. The pipeline-entry hook holds the
// kernel until the 1 ms deadline has certainly expired, so the check at
// the selection boundary fires deterministically.
func TestExpiredDeadline(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	server.SetOnCompileStart(func() { time.Sleep(20 * time.Millisecond) })
	defer server.SetOnCompileStart(nil)

	var errResp server.ErrorResponse
	code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc, TimeoutMS: 1}, &errResp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, errResp.Error)
	}
	if !strings.Contains(errResp.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", errResp.Error)
	}

	// The failed compile was not cached: once the hook is gone the same
	// kernel compiles fine.
	server.SetOnCompileStart(nil)
	var resp server.CompileResponse
	if code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &resp); code != http.StatusOK {
		t.Fatalf("compile after expired deadline: %d", code)
	}
	if resp.Cache != "miss" {
		t.Errorf("cache = %q, want miss (timeouts must not be cached)", resp.Cache)
	}
}

// TestBatchEndpoint: mixed batches keep per-kernel isolation (a parse
// failure never fails the batch), duplicate kernels compile once, and
// artifacts populate the shared cache so /compile hits afterwards.
func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	add := `def addk(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }`
	var resp server.BatchResponse
	code := post(t, s, "/batch", server.BatchRequest{
		Jobs: 4,
		Kernels: []server.BatchKernel{
			{Name: "k0", IR: maccSrc},
			{Name: "k1", IR: `def broken(`},
			{Name: "k2", IR: add},
			{Name: "k3", IR: maccSrc}, // duplicate of k0: must not compile twice
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	r := resp.Results
	if len(r) != 4 {
		t.Fatalf("got %d results", len(r))
	}
	if !r[0].OK || r[1].OK || !r[2].OK || !r[3].OK {
		t.Fatalf("ok flags = %v %v %v %v", r[0].OK, r[1].OK, r[2].OK, r[3].OK)
	}
	if !strings.Contains(r[1].Error, "parse") {
		t.Errorf("k1 error %q should be a parse error", r[1].Error)
	}
	if r[0].Artifact.Verilog != r[3].Artifact.Verilog {
		t.Error("duplicate kernels produced different Verilog")
	}
	if resp.Stats.Compiled != 2 {
		t.Errorf("compiled = %d, want 2 (dedup + parse failure)", resp.Stats.Compiled)
	}
	if resp.Stats.Succeeded != 3 || resp.Stats.Failed != 1 {
		t.Errorf("stats = %+v", resp.Stats)
	}

	// The batch populated the shared cache: /compile now hits.
	var c server.CompileResponse
	if code := post(t, s, "/compile", server.CompileRequest{IR: add}, &c); code != http.StatusOK {
		t.Fatalf("/compile after batch: %d", code)
	}
	if c.Cache != "hit" {
		t.Errorf("cache = %q after /batch populated it, want hit", c.Cache)
	}

	// A second identical batch is all hits: zero compiles.
	var again server.BatchResponse
	post(t, s, "/batch", server.BatchRequest{Kernels: []server.BatchKernel{
		{IR: maccSrc}, {IR: add},
	}}, &again)
	if again.Stats.Compiled != 0 {
		t.Errorf("second batch compiled %d kernels, want 0", again.Stats.Compiled)
	}
	for _, kr := range again.Results {
		if kr.Cache != "hit" {
			t.Errorf("second batch kernel %s: cache=%q", kr.Name, kr.Cache)
		}
	}

	// Validation failures surface as 400s with the batch tier's typed
	// error text.
	var errResp server.ErrorResponse
	if code := post(t, s, "/batch", server.BatchRequest{
		Jobs:    -1,
		Kernels: []server.BatchKernel{{IR: add}},
	}, &errResp); code != http.StatusBadRequest {
		t.Errorf("jobs=-1: status %d, want 400", code)
	}
	if code := post(t, s, "/batch", server.BatchRequest{
		TimeoutMS: -1,
		Kernels:   []server.BatchKernel{{IR: add}},
	}, &errResp); code != http.StatusBadRequest {
		t.Errorf("timeout=-1: status %d, want 400", code)
	}
	if code := post(t, s, "/batch", server.BatchRequest{}, &errResp); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
}

// TestBatchCoalescesWithCompile: a /batch miss goes through the same
// singleflight as /compile. With a /compile leader held inside the
// pipeline, a /batch carrying the same cold kernel must wait for that
// compile rather than run its own: one kernel in the pipeline, one
// artifact, byte for byte.
func TestBatchCoalescesWithCompile(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	server.SetOnCompileStart(func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	defer server.SetOnCompileStart(nil)

	compileDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		compileDone <- postBody(t, s, "/compile", server.CompileRequest{IR: maccSrc}, nil)
	}()
	<-entered // the /compile leader is inside the pipeline

	batched := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		batched <- postBody(t, s, "/batch", server.BatchRequest{Kernels: []server.BatchKernel{{IR: maccSrc}}}, nil)
	}()
	// Release the leader once the batch kernel is parked on its flight.
	// (Before the fix it never parks: the batch compiles on its own and
	// returns, which also ends the wait — and fails the asserts below.)
	var w *httptest.ResponseRecorder
	for w == nil {
		var st server.StatsResponse
		get(t, s, "/stats", &st)
		if st.Cache.Coalesced >= 1 {
			break
		}
		select {
		case w = <-batched:
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	if w == nil {
		w = <-batched
	}
	cw := <-compileDone
	if cw.Code != http.StatusOK || w.Code != http.StatusOK {
		t.Fatalf("status: /compile %d, /batch %d: %s", cw.Code, w.Code, w.Body.String())
	}
	var compiled rawCompileResponse
	if err := json.Unmarshal(cw.Body.Bytes(), &compiled); err != nil {
		t.Fatal(err)
	}

	var br struct {
		Results []struct {
			OK       bool            `json:"ok"`
			Cache    string          `json:"cache"`
			Artifact json.RawMessage `json:"artifact"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil || len(br.Results) != 1 || !br.Results[0].OK {
		t.Fatalf("batch body: %v\n%s", err, w.Body.String())
	}
	if !bytes.Equal(br.Results[0].Artifact, compiled.Artifact) {
		t.Error("/batch and /compile served different artifact bytes for one kernel")
	}
	var st server.StatsResponse
	get(t, s, "/stats", &st)
	if st.Kernels != 1 || st.Cache.Computes != 1 {
		t.Errorf("kernels = %d, computes = %d; want one compile shared by both requests", st.Kernels, st.Cache.Computes)
	}
	if st.Cache.Coalesced < 1 {
		t.Errorf("coalesced = %d, want the batch kernel counted on the leader's flight", st.Cache.Coalesced)
	}
}

// TestHealthzAndStats: liveness and observability endpoints carry the
// documented fields.
func TestHealthzAndStats(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	var h server.HealthResponse
	if code := get(t, s, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	if h.Status != "ok" || len(h.Families) != 2 {
		t.Errorf("health = %+v", h)
	}

	post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, nil)
	post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, nil)

	var st server.StatsResponse
	if code := get(t, s, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v", st.Cache)
	}
	if st.Cache.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.Cache.HitRate)
	}
	if st.Kernels != 1 {
		t.Errorf("kernels = %d, want 1 (one compile, one hit)", st.Kernels)
	}
	if st.Stages.SelectNS <= 0 || st.Stages.PlaceNS <= 0 {
		t.Errorf("cumulative stage times missing: %+v", st.Stages)
	}
	if st.Requests < 4 {
		t.Errorf("requests = %d, want >= 4", st.Requests)
	}
}

// TestPanicIsolation: a handler-path panic becomes a 500 JSON response
// and the server keeps serving — batch's recovery semantics at the HTTP
// layer.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	server.SetOnCompileStart(func() { panic("synthetic pipeline panic") })
	var errResp server.ErrorResponse
	code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &errResp)
	server.SetOnCompileStart(nil)
	if code != http.StatusInternalServerError && code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 5xx/422 structured error", code)
	}
	if !strings.Contains(errResp.Error, "panic") {
		t.Errorf("error %q should mention the panic", errResp.Error)
	}
	var resp server.CompileResponse
	if code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &resp); code != http.StatusOK {
		t.Fatalf("server dead after panic: %d", code)
	}
}

// TestDrainOnShutdown: the lifecycle both commands run (server.Run), its
// context cancelled while a compile is in flight over a real listener,
// completes that request (200 with a full artifact) and returns nil.
// Afterwards the listener is gone and the -disk directory is released:
// the Server's disk takes no more records, and a reopen finds the one the
// drained compile wrote.
func TestDrainOnShutdown(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	inPipeline := make(chan struct{}, 1)
	server.SetOnCompileStart(func() {
		select {
		case inPipeline <- struct{}{}:
		default:
		}
	})
	defer server.SetOnCompileStart(nil)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // Run binds it again
	url := "http://" + addr
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	ran := make(chan error, 1)
	go func() { ran <- server.Run(ctx, "reticle-serve", s, addr, "", false) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Run never served")
		}
	}

	type result struct {
		code int
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		data, _ := json.Marshal(server.CompileRequest{IR: maccSrc})
		resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(data))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- result{code: resp.StatusCode, body: body}
	}()

	select {
	case <-inPipeline: // the request is inside the pipeline: drain now
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the pipeline")
	}
	stop()

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d, body %s", r.code, r.body)
	}
	var resp server.CompileResponse
	if err := json.Unmarshal(r.body, &resp); err != nil || resp.Artifact.Verilog == "" {
		t.Fatalf("drained response incomplete: %v", err)
	}
	if err := <-ran; err != nil {
		t.Fatalf("Run: %v", err)
	}

	// New connections are refused after drain.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("listener still accepting after the drain")
	}
	if err := s.Disk().Put(context.Background(), "late", nil); err == nil {
		t.Error("the disk tier still takes records after the drain")
	}
	d, err := cache.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if n := d.Stats().Entries; n != 1 {
		t.Errorf("reopened -disk directory holds %d records, want the drained compile's 1", n)
	}
}
