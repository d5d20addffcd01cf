package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"reticle"
	"reticle/internal/server"
)

// goneAfterFirstLine is a client that takes the status line and one NDJSON
// line and then disappears: every later Write fails, and the request's
// context ends, as a server's does when its client hangs up.
type goneAfterFirstLine struct {
	header http.Header
	writes int
	hangUp context.CancelFunc
}

func (g *goneAfterFirstLine) Header() http.Header { return g.header }
func (g *goneAfterFirstLine) WriteHeader(int)     {}
func (g *goneAfterFirstLine) Flush()              {}
func (g *goneAfterFirstLine) Write(p []byte) (int, error) {
	if g.writes++; g.writes > 1 {
		return 0, errors.New("client gone")
	}
	g.hangUp()
	return len(p), nil
}

// settledGoroutines polls until the goroutine count is at most limit (a
// finished goroutine leaves the count a moment after its last statement)
// and returns the last count read.
func settledGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestStreamClientGoneLeavesNoGoroutine: a streaming handler whose client
// vanishes after the first line cancels its fan-out and waits it out, so
// when the handler returns no worker of the request is left — on /batch
// (one worker, twenty cold kernels still queued) and on /explore. Every
// compile after the first is held until the client is gone, so the
// handler cannot finish the fan-out before it notices.
func TestStreamClientGoneLeavesNoGoroutine(t *testing.T) {
	kernels := make([]server.BatchKernel, 20)
	for i := range kernels {
		kernels[i] = server.BatchKernel{IR: chainSrc(fmt.Sprintf("gone%d", i), i+1)}
	}
	for _, rq := range []struct {
		path string
		body any
	}{
		{"/batch", server.BatchRequest{Kernels: kernels, Jobs: 1, Stream: true}},
		{"/explore", server.ExploreRequest{IR: maccSrc, Jobs: 1, Stream: true}},
	} {
		s := newTestServer(t, reticle.ServerOptions{})
		data, err := json.Marshal(rq.body)
		if err != nil {
			t.Fatal(err)
		}
		ctx, hangUp := context.WithCancel(context.Background())
		var started atomic.Int32
		server.SetOnCompileStart(func() {
			if started.Add(1) > 1 {
				<-ctx.Done()
			}
		})
		base := runtime.NumGoroutine()
		w := &goneAfterFirstLine{header: http.Header{}, hangUp: hangUp}
		s.ServeHTTP(w, httptest.NewRequest("POST", rq.path, bytes.NewReader(data)).WithContext(ctx))
		server.SetOnCompileStart(nil)
		hangUp()
		if w.writes < 2 {
			t.Fatalf("%s: handler wrote %d times, want it to run into the dropped client", rq.path, w.writes)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("%s: %d goroutines after the handler returned, %d before the request", rq.path, n, base)
		}
		var stats server.StatsResponse
		if code := get(t, s, "/stats", &stats); code != http.StatusOK || stats.InFlightKernels != 0 {
			t.Errorf("%s: /stats %d, %d kernels in flight after the handler returned", rq.path, code, stats.InFlightKernels)
		}
		if rq.path == "/batch" && stats.Kernels >= int64(len(kernels)) {
			t.Errorf("/batch: %d of %d kernels compiled for a client that left after the first", stats.Kernels, len(kernels))
		}
	}
}
