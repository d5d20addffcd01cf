package shard_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"reticle"
	"reticle/internal/faults"
	"reticle/internal/rerr"
	"reticle/internal/server"
)

// chaosPost is post with a fault plan armed on the request context —
// the same channel RETICLE_FAULTS feeds a production router.
func chaosPost(t testing.TB, h http.Handler, path string, body any, plan *faults.Plan) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	req = req.WithContext(faults.WithPlan(req.Context(), plan))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestChaosBackendKillMidBatch is the tentpole chaos scenario: three
// real reticle-serve processes behind one router, concurrent batch
// sweeps in flight, and one backend — one actually serving kernels —
// killed mid-storm. Every request must still succeed by re-hashing
// onto the surviving peers: zero 5xx on the wire, every kernel OK in
// every batch, and afterwards the router reports the victim dead and
// at least one re-hash taken. Run under -race in CI.
func TestChaosBackendKillMidBatch(t *testing.T) {
	backends, urls := newBackends(t, 3)
	rt := newRouter(t, reticle.ShardOptions{Backends: urls})
	kernels := sweep(6)

	// Round 0 (cold) establishes key ownership so the kill below is
	// guaranteed to hit a backend that owns live keys.
	var br server.BatchResponse
	if code := post(t, rt, "/batch", server.BatchRequest{Jobs: 4, Kernels: kernels}, &br); code != http.StatusOK {
		t.Fatalf("cold batch: status %d", code)
	}
	for i, res := range br.Results {
		if !res.OK {
			t.Fatalf("cold batch kernel %d: %+v", i, res)
		}
	}
	victim := -1
	for i := range backends {
		if st := backendStats(t, urls[i]); st.Kernels > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no backend compiled anything — ownership never established")
	}

	// The storm: four clients each run three batch sweeps; the first
	// completed batch triggers the kill, so later sweeps (and any batch
	// already in flight) cross the failure.
	var (
		killOnce sync.Once
		bad5xx   atomic.Int64
	)
	kill := func() {
		backends[victim].CloseClientConnections()
		backends[victim].Close()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				var resp server.BatchResponse
				code := post(t, rt, "/batch", server.BatchRequest{Jobs: 4, Kernels: kernels}, &resp)
				if code >= 500 {
					bad5xx.Add(1)
				}
				if code != http.StatusOK {
					t.Errorf("storm batch: status %d", code)
					continue
				}
				for i, res := range resp.Results {
					if !res.OK {
						t.Errorf("storm batch kernel %d failed: %+v", i, res)
					}
				}
				killOnce.Do(kill)
			}
		}()
	}
	wg.Wait()
	if n := bad5xx.Load(); n != 0 {
		t.Fatalf("%d responses were 5xx during the kill", n)
	}

	// The router noticed: the victim is marked dead, the survivors are
	// not, and at least one request re-hashed off the corpse.
	var hr struct {
		Backends []struct {
			URL   string `json:"url"`
			Alive bool   `json:"alive"`
		} `json:"backends"`
	}
	if code := get(t, rt, "/healthz", &hr); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	for i, b := range hr.Backends {
		if i == victim && b.Alive {
			t.Fatalf("killed backend %d still reported alive", i)
		}
		if i != victim && !b.Alive {
			t.Fatalf("surviving backend %d reported dead", i)
		}
	}
	var st struct {
		Router struct {
			Rehashes int64 `json:"rehashes"`
			Outages  int64 `json:"outages"`
		} `json:"router"`
	}
	if code := get(t, rt, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	if st.Router.Rehashes == 0 {
		t.Fatal("no re-hash recorded — the kill was never absorbed by failover")
	}
	if st.Router.Outages != 0 {
		t.Fatalf("%d outages recorded with two live backends", st.Router.Outages)
	}

	// And the sweep still completes afterwards, steady-state.
	var after server.BatchResponse
	if code := post(t, rt, "/batch", server.BatchRequest{Jobs: 4, Kernels: kernels}, &after); code != http.StatusOK {
		t.Fatalf("post-kill batch: status %d", code)
	}
	for i, res := range after.Results {
		if !res.OK {
			t.Fatalf("post-kill kernel %d: %+v", i, res)
		}
	}
}

// TestChaosTotalOutage: with every backend dead the router degrades to
// a typed, retryable transient error — 503 + Retry-After + a stable
// error code — never a panic, a hang, or an internal detail on the
// wire.
func TestChaosTotalOutage(t *testing.T) {
	backends, urls := newBackends(t, 3)
	rt := newRouter(t, reticle.ShardOptions{Backends: urls})
	for _, b := range backends {
		b.Close()
	}
	data, err := json.Marshal(server.CompileRequest{IR: maccSrc})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/compile", bytes.NewReader(data))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("total outage: status %d, want 503: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("total outage response missing Retry-After")
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.ErrorCode != "no_live_backends" || er.Class != "transient" {
		t.Fatalf("outage error %+v", er)
	}
	for _, leak := range []string{"internal/", ".go:", "goroutine ", "127.0.0.1"} {
		if strings.Contains(w.Body.String(), leak) {
			t.Fatalf("outage response leaked %q: %s", leak, w.Body.String())
		}
	}

	// A batch over a dead tier likewise fails per-kernel, not by hanging
	// or panicking: 200 with every kernel carrying the typed error.
	var brr server.BatchResponse
	if code := post(t, rt, "/batch", server.BatchRequest{Kernels: sweep(2)}, &brr); code != http.StatusOK {
		t.Fatalf("batch over dead tier: status %d", code)
	}
	for i, res := range brr.Results {
		if res.OK || res.ErrorCode != "no_live_backends" {
			t.Fatalf("dead-tier batch kernel %d: %+v", i, res)
		}
	}
}

// TestChaosShardFaultPoints drives the routing tier's injected fault
// points: a proxy fault is absorbed by re-hash (the client never sees
// it), a pick fault fails typed, and a panic at either point is
// contained to a typed response — the same chaos contract the compile
// server's sweep enforces.
func TestChaosShardFaultPoints(t *testing.T) {
	t.Run("proxy-fault-rehashes", func(t *testing.T) {
		_, urls := newBackends(t, 3)
		rt := newRouter(t, reticle.ShardOptions{Backends: urls})
		plan := faults.NewPlan(map[faults.Point]faults.Injection{
			"shard/proxy": {Class: rerr.Transient, Times: 1},
		})
		w := chaosPost(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, plan)
		if w.Code != http.StatusOK {
			t.Fatalf("proxy fault surfaced to the client: %d: %s", w.Code, w.Body.String())
		}
		var st struct {
			Router struct {
				Rehashes int64 `json:"rehashes"`
			} `json:"router"`
		}
		if code := get(t, rt, "/stats", &st); code != http.StatusOK {
			t.Fatalf("/stats: %d", code)
		}
		if st.Router.Rehashes == 0 {
			t.Fatal("proxy fault did not re-hash")
		}
	})

	t.Run("pick-fault-fails-typed", func(t *testing.T) {
		_, urls := newBackends(t, 2)
		rt := newRouter(t, reticle.ShardOptions{Backends: urls})
		plan := faults.NewPlan(map[faults.Point]faults.Injection{
			"shard/pick-backend": {Class: rerr.Transient, Times: 1},
		})
		w := chaosPost(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, plan)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("pick fault: status %d, want 503: %s", w.Code, w.Body.String())
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if er.ErrorCode != "shard_route_failed" {
			t.Fatalf("pick fault error %+v", er)
		}
	})

	for _, point := range []faults.Point{"shard/pick-backend", "shard/proxy"} {
		t.Run(string(point)+"-panic-contained", func(t *testing.T) {
			_, urls := newBackends(t, 2)
			rt := newRouter(t, reticle.ShardOptions{Backends: urls})
			plan := faults.NewPlan(map[faults.Point]faults.Injection{
				point: {Panic: true, Times: 1},
			})
			w := chaosPost(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, plan)
			if w.Code != http.StatusInternalServerError {
				t.Fatalf("panic at %s: status %d, want 500: %s", point, w.Code, w.Body.String())
			}
			var er server.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
				t.Fatal(err)
			}
			if er.ErrorCode != "internal_panic" {
				t.Fatalf("panic at %s: error_code %q", point, er.ErrorCode)
			}
			for _, leak := range []string{"internal/", ".go:", "goroutine "} {
				if strings.Contains(w.Body.String(), leak) {
					t.Fatalf("panic at %s leaked %q: %s", point, leak, w.Body.String())
				}
			}

			// A panic inside the batch fan-out workers is contained to the
			// kernel, not the process or the batch.
			plan = faults.NewPlan(map[faults.Point]faults.Injection{
				point: {Panic: true, Times: 1},
			})
			w = chaosPost(t, rt, "/batch", server.BatchRequest{Kernels: sweep(2), Jobs: 1}, plan)
			if w.Code != http.StatusOK {
				t.Fatalf("batch panic at %s: status %d: %s", point, w.Code, w.Body.String())
			}
			var brr server.BatchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &brr); err != nil {
				t.Fatal(err)
			}
			panicked := 0
			for _, res := range brr.Results {
				if res.ErrorCode == "internal_panic" {
					panicked++
				} else if !res.OK {
					t.Fatalf("batch panic at %s: unexpected failure %+v", point, res)
				}
			}
			if panicked != 1 {
				t.Fatalf("batch panic at %s hit %d kernels, want exactly 1", point, panicked)
			}
		})
	}
}
