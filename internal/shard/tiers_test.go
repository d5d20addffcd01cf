package shard_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"reticle"
	"reticle/internal/server"
)

// TestBatchTiersIndistinguishableOnBadInput: a malformed /batch earns the
// same status and the same JSON body from a bare backend and from a
// router in front of one — both tiers plan it with the server package's
// planBatch and answer with BatchPlan.Answer, so a client cannot tell them apart by how they refuse,
// nor by how a kernel that does not parse or does not compile fails.
func TestBatchTiersIndistinguishableOnBadInput(t *testing.T) {
	backend, err := reticle.NewServer(reticle.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, urls := newBackends(t, 1)
	router := newRouter(t, reticle.ShardOptions{Backends: urls})

	kernel := `{"ir":` + strconv.Quote(maccSrc) + `}`
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"negative-jobs", `{"jobs":-1,"kernels":[` + kernel + `]}`, http.StatusBadRequest},
		{"negative-timeout", `{"timeout_ms":-1,"kernels":[` + kernel + `]}`, http.StatusBadRequest},
		{"no-kernels", `{"kernels":[]}`, http.StatusBadRequest},
		{"unknown-family", `{"family":"stratix","kernels":[` + kernel + `]}`, http.StatusBadRequest},
		{"unknown-field", `{"bogus":1,"kernels":[` + kernel + `]}`, http.StatusBadRequest},
		{"trailing-data", `{"kernels":[` + kernel + `]} {}`, http.StatusBadRequest},
		{"unparseable-kernel", `{"kernels":[{"name":"broken","ir":"def broken( {"}]}`, http.StatusOK},
		{"uncompilable-kernel", `{"kernels":[{"name":"k","ir":` + strconv.Quote(wideMulSrc) + `},` + kernel + `]}`, http.StatusOK},
		{"uncompilable-unnamed", `{"kernels":[{"ir":` + strconv.Quote(wideMulSrc) + `}]}`, http.StatusOK},
	} {
		answer := func(h http.Handler) (int, string) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/batch", bytes.NewReader([]byte(tc.body))))
			return w.Code, string(measured.ReplaceAll(w.Body.Bytes(), nil))
		}
		bCode, bBody := answer(backend)
		rCode, rBody := answer(router)
		if bCode != tc.status {
			t.Errorf("%s: backend status %d, want %d: %s", tc.name, bCode, tc.status, bBody)
		}
		if rCode != bCode || rBody != bBody {
			t.Errorf("%s: the tiers can be told apart\nbackend %d %s\nrouter  %d %s", tc.name, bCode, bBody, rCode, rBody)
		}
	}
}

// TestTimeoutTiersAgree: a timeout_ms at or past the edge of what a
// duration holds earns the same status and body from a bare backend and
// from a router over one, on every endpoint that reads it. The largest
// accepted value compiles on both tiers; one past it, and a negative one,
// are the same 400 on both.
func TestTimeoutTiersAgree(t *testing.T) {
	backend, err := reticle.NewServer(reticle.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, urls := newBackends(t, 1)
	router := newRouter(t, reticle.ShardOptions{Backends: urls})

	ir := strconv.Quote(maccSrc)
	for _, ms := range []int64{-1, 9223372036854, 9223372036855, math.MaxInt64} {
		to := strconv.FormatInt(ms, 10)
		for _, ep := range []struct{ path, body string }{
			{"/compile", `{"ir":` + ir + `,"timeout_ms":` + to + `}`},
			{"/batch", `{"jobs":1,"timeout_ms":` + to + `,"kernels":[{"ir":` + ir + `}]}`},
			{"/explore", `{"ir":` + ir + `,"jobs":1,"timeout_ms":` + to + `}`},
		} {
			answer := func(h http.Handler) (int, string) {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", ep.path, strings.NewReader(ep.body)))
				return w.Code, string(measured.ReplaceAll(w.Body.Bytes(), nil))
			}
			bCode, bBody := answer(backend)
			rCode, rBody := answer(router)
			if rCode != bCode || rBody != bBody {
				t.Errorf("%s timeout_ms=%d: the tiers disagree\nbackend %d %s\nrouter  %d %s", ep.path, ms, bCode, bBody, rCode, rBody)
			}
			if want := ms == 9223372036854; (bCode == http.StatusOK) != want {
				t.Errorf("%s timeout_ms=%d: backend status %d: %s", ep.path, ms, bCode, bBody)
			}
		}
	}
}

// TestShutdownBeforeServe: a tier shut down before it serves — a Server,
// and a Router whose health prober would start with it — answers Serve
// with http.ErrServerClosed at once and closes the listener it was given.
func TestShutdownBeforeServe(t *testing.T) {
	backend, err := reticle.NewServer(reticle.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, urls := newBackends(t, 1)
	router := newRouter(t, reticle.ShardOptions{Backends: urls, HealthInterval: time.Millisecond})
	for name, tier := range map[string]*server.Server{"backend": backend, "router": router.Server} {
		if err := tier.Shutdown(context.Background()); err != nil {
			t.Fatalf("%s: Shutdown: %v", name, err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- tier.Serve(l) }()
		select {
		case err := <-served:
			if !errors.Is(err, http.ErrServerClosed) {
				t.Errorf("%s: Serve after Shutdown returned %v, want http.ErrServerClosed", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Serve after Shutdown is still serving", name)
		}
		if c, err := net.Dial("tcp", l.Addr().String()); err == nil {
			c.Close()
			t.Errorf("%s: the listener still accepts after Serve returned", name)
		}
	}
}

// wideMulSrc parses but does not compile: no primitive multiplies i64s.
const wideMulSrc = `def wide(a:i64, b:i64) -> (y:i64) { y:i64 = mul(a, b) @??; }`

// goneAfterFirstLine is a client that takes the status line and one NDJSON
// line and then disappears: every later Write fails.
type goneAfterFirstLine struct {
	header http.Header
	writes int
}

func (g *goneAfterFirstLine) Header() http.Header { return g.header }
func (g *goneAfterFirstLine) WriteHeader(int)     {}
func (g *goneAfterFirstLine) Flush()              {}
func (g *goneAfterFirstLine) Write(p []byte) (int, error) {
	if g.writes++; g.writes > 1 {
		return 0, errors.New("client gone")
	}
	return len(p), nil
}

// TestShardBatchClientGoneLeavesNoGoroutine: a routed streaming /batch
// whose client vanishes after the first line cancels its proxy fan-out
// and waits it out — no proxy worker outlives the handler, and the
// kernels still queued never reach a backend.
func TestShardBatchClientGoneLeavesNoGoroutine(t *testing.T) {
	_, urls := newBackends(t, 2)
	transport := &http.Transport{}
	rt := newRouter(t, reticle.ShardOptions{Backends: urls, Client: &http.Client{Transport: transport}})
	base := runtime.NumGoroutine() // before any connection exists
	const n = 20
	kernels := sweep(n)
	w := &goneAfterFirstLine{header: http.Header{}}
	rt.ServeHTTP(w, httptest.NewRequest("POST", "/batch",
		bytes.NewReader(mustJSON(t, server.BatchRequest{Kernels: kernels, Jobs: 1, Stream: true}))))
	if w.writes < 2 {
		t.Fatalf("handler wrote %d times, want it to run into the dropped client", w.writes)
	}
	// Idle keep-alive connections hold goroutines on both ends: close them,
	// and give the finished goroutines a moment to leave the count.
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); got > base && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		transport.CloseIdleConnections()
		time.Sleep(time.Millisecond)
	}
	if got > base {
		t.Errorf("%d goroutines after the handler returned, %d before the request", got, base)
	}
	var compiled int64
	for _, u := range urls {
		compiled += backendStats(t, u).Kernels
	}
	if compiled >= n {
		t.Errorf("%d of %d kernels reached a backend for a client that left after the first", compiled, n)
	}
}

// TestExploreTiersAgree: an /explore earns the same status and the same
// bytes, measured members aside, from a router and straight from its
// backend — a sweep in either framing, and each refusal: IR that does not
// parse, an unknown family, a negative max_variants and a spent deadline.
func TestExploreTiersAgree(t *testing.T) {
	backends, urls := newBackends(t, 1)
	backend := backends[0].Config.Handler
	router := newRouter(t, reticle.ShardOptions{Backends: urls})

	ir := strconv.Quote(maccSrc)
	spent := strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10)
	for _, tc := range []struct {
		name, body, deadline string
		status               int
	}{
		{"sweep", `{"ir":` + ir + `,"jobs":1,"max_variants":4}`, "", http.StatusOK},
		{"sweep-stream", `{"ir":` + ir + `,"jobs":1,"max_variants":4,"stream":true}`, "", http.StatusOK},
		{"unparseable", `{"ir":"def broken( {"}`, "", http.StatusBadRequest},
		{"unknown-family", `{"ir":` + ir + `,"family":"stratix"}`, "", http.StatusBadRequest},
		{"negative-max-variants", `{"ir":` + ir + `,"max_variants":-1}`, "", http.StatusBadRequest},
		{"spent-deadline", `{"ir":` + ir + `}`, spent, http.StatusGatewayTimeout},
	} {
		answer := func(h http.Handler) (int, string) {
			r := httptest.NewRequest("POST", "/explore", strings.NewReader(tc.body))
			if tc.deadline != "" {
				r.Header.Set(server.DeadlineHeader, tc.deadline)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			return w.Code, string(measured.ReplaceAll(w.Body.Bytes(), nil))
		}
		answer(backend) // warm: the sweep's variants are hits below, on both tiers
		bCode, bBody := answer(backend)
		rCode, rBody := answer(router)
		if bCode != tc.status {
			t.Errorf("%s: backend status %d, want %d: %s", tc.name, bCode, tc.status, bBody)
		}
		if rCode != bCode || rBody != bBody {
			t.Errorf("%s: the tiers disagree\nbackend %d %s\nrouter  %d %s", tc.name, bCode, bBody, rCode, rBody)
		}
	}
}
