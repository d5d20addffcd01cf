package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"reticle"
	"reticle/internal/server"
)

// benchPost drives one /compile request through the handler path and
// fails the benchmark on any non-200.
func benchPost(b *testing.B, s *server.Server, body []byte) *httptest.ResponseRecorder {
	b.Helper()
	req := httptest.NewRequest("POST", "/compile", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	return w
}

// benchServer builds the service once per benchmark; cache sizing is
// generous so cold runs measure compile cost, not eviction churn. Request
// lines are rendered at the default level, as a daemon renders them, but
// discarded: on the benchmark's output they would split its result lines.
func benchServer(b *testing.B) *server.Server {
	b.Helper()
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	b.Cleanup(func() { slog.SetDefault(prev) })
	s, err := reticle.NewServer(reticle.ServerOptions{CacheEntries: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// coldKernel renders a macc-chain kernel that is unique per index (the
// function name participates in the canonical hash), so every request
// misses the cache and runs the full pipeline. Sixteen multiply-adds is a
// representative design-space-exploration kernel, big enough that the
// cold path is dominated by compile work rather than HTTP/JSON
// plumbing.
func coldKernel(i int) []byte {
	src := fmt.Sprintf("def macc%d(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {\n", i)
	src += "    t0:i8 = mul(a, b) @??;\n    s0:i8 = add(t0, c) @??;\n"
	for k := 1; k < 16; k++ {
		src += fmt.Sprintf("    t%d:i8 = mul(s%d, b) @??;\n    s%d:i8 = add(t%d, c) @??;\n",
			k, k-1, k, k)
	}
	src += "    y:i8 = reg[0](s15, en) @??;\n}\n"
	body, _ := json.Marshal(server.CompileRequest{IR: src})
	return body
}

// BenchmarkServeCold measures the uncached service path: parse, key,
// full pipeline, cache insert, JSON encode. Pair with
// BenchmarkServeCached in BENCH_baseline.json to track cache leverage.
func BenchmarkServeCold(b *testing.B) {
	s := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := benchPost(b, s, coldKernel(i))
		var resp server.CompileResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Cache != "miss" {
			b.Fatalf("cold request hit the cache: %v %s", err, resp.Cache)
		}
	}
}

// BenchmarkServeCached measures the hit path: parse, key, LRU lookup,
// JSON encode — everything but the compile. The ≥10x gap to ServeCold
// is the cache's reason to exist.
func BenchmarkServeCached(b *testing.B) {
	s := benchServer(b)
	body := coldKernel(0)
	benchPost(b, s, body) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := benchPost(b, s, body)
		if i == 0 {
			var resp server.CompileResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Cache != "hit" {
				b.Fatalf("cached request missed: %v %s", err, resp.Cache)
			}
		}
	}
}

// BenchmarkServeBatchCached measures an 8-kernel /batch where every
// kernel is resident — the design-space-exploration steady state.
func BenchmarkServeBatchCached(b *testing.B) {
	s := benchServer(b)
	var kernels []server.BatchKernel
	for i := 0; i < 8; i++ {
		var req server.CompileRequest
		json.Unmarshal(coldKernel(i), &req)
		kernels = append(kernels, server.BatchKernel{IR: req.IR})
	}
	body, _ := json.Marshal(server.BatchRequest{Kernels: kernels, Jobs: 4})
	// Prime.
	req := httptest.NewRequest("POST", "/batch", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("prime: %d", w.Code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
