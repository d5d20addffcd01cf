package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/server"
)

// maccChain is a sixteen-deep multiply-add kernel, unique per i (the
// function name enters the canonical hash): an artifact of a few
// kilobytes, as a design-space sweep's kernels are.
func maccChain(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "def macc%d(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {\n", i)
	b.WriteString("    t0:i8 = mul(a, b) @??;\n    s0:i8 = add(t0, c) @??;\n")
	for k := 1; k < 16; k++ {
		fmt.Fprintf(&b, "    t%d:i8 = mul(s%d, b) @??;\n    s%d:i8 = add(t%d, c) @??;\n", k, k-1, k, k)
	}
	b.WriteString("    y:i8 = reg[0](s15, en) @??;\n}\n")
	return b.String()
}

// countingWriter is a ResponseWriter that keeps only the status and the
// byte count, so a measurement through it sees the handler's allocations
// and not a recorder's.
type countingWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(code int)        { w.code = code }
func (w *countingWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// BenchmarkRouterBatch measures a buffered 8-kernel /batch through a
// router over two in-process backends: the front door, the forwards,
// reading each backend answer and writing the frame. Four kernels repeat
// every request; the other four are new to the router but already
// resident on the backends, so no compile runs and B/op and allocs/op are
// the serving path's, both tiers'.
func BenchmarkRouterBatch(b *testing.B) {
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	b.Cleanup(func() { slog.SetDefault(prev) })
	_, urls := newBackends(b, 2)
	rt := newRouter(b, reticle.ShardOptions{Backends: urls})
	post := func(h http.Handler, body []byte) int {
		w := &countingWriter{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest("POST", "/batch", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			b.Fatalf("/batch: status %d", w.code)
		}
		return w.n
	}
	batchOf := func(first, n int) []server.BatchKernel {
		ks := make([]server.BatchKernel, n)
		for k := range ks {
			ks[k] = server.BatchKernel{IR: maccChain(first + k)}
		}
		return ks
	}
	repeats := batchOf(0, 4)
	primed, _ := json.Marshal(server.BatchRequest{Kernels: repeats})
	post(rt, primed)
	bytesOut := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := batchOf(4+4*i, 4)
		resident, _ := json.Marshal(server.BatchRequest{Kernels: fresh})
		for _, url := range urls {
			resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(resident))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		body, _ := json.Marshal(server.BatchRequest{Kernels: append(append([]server.BatchKernel{}, repeats...), fresh...)})
		b.StartTimer()
		bytesOut += post(rt, body)
	}
	b.StopTimer()
	if bytesOut == 0 {
		b.Fatal("the router answered nothing")
	}
}
