package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reticle"
	"reticle/internal/server"
)

// logLine is one captured request line: its message and top-level attrs.
type logLine struct {
	msg   string
	attrs map[string]slog.Value
}

func (l logLine) str(k string) string { return l.attrs[k].String() }

func (l logLine) num(k string) int64 {
	if v, ok := l.attrs[k]; ok {
		return v.Int64()
	}
	return 0
}

// lineLog is a slog.Handler that keeps every record, at every level, of
// every tier in the process.
type lineLog struct {
	mu    sync.Mutex
	lines []logLine
}

// captureLines routes slog.Default() into a fresh lineLog for the rest of
// the test.
func captureLines(t testing.TB) *lineLog {
	l := &lineLog{}
	prev := slog.Default()
	slog.SetDefault(slog.New(l))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return l
}

func (l *lineLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *lineLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *lineLog) WithGroup(string) slog.Handler            { return l }

func (l *lineLog) Handle(_ context.Context, r slog.Record) error {
	line := logLine{msg: r.Message, attrs: map[string]slog.Value{}}
	r.Attrs(func(a slog.Attr) bool {
		line.attrs[a.Key] = a.Value
		return true
	})
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
	return nil
}

// where returns the captured lines whose id satisfies keep.
func (l *lineLog) where(keep func(id string) bool) []logLine {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []logLine
	for _, line := range l.lines {
		if keep(line.str("id")) {
			out = append(out, line)
		}
	}
	return out
}

// TestRequestIDOutsideInput: a client id that is empty, too long or
// outside the grammar is replaced by a minted one on either tier — never
// echoed, forwarded or logged — while a valid one is kept, and the router
// forwards it with its attempt suffix.
func TestRequestIDOutsideInput(t *testing.T) {
	lines := captureLines(t)
	backend, err := reticle.NewServer(reticle.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, urls := newBackends(t, 1)
	router := newRouter(t, reticle.ShardOptions{Backends: urls})
	body := mustJSON(t, server.CompileRequest{IR: maccSrc})
	send := func(h http.Handler, id string) string {
		r := httptest.NewRequest("POST", "/compile", bytes.NewReader(body))
		r.Header[server.RequestIDHeader] = []string{id}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("id %q: status %d: %s", id, w.Code, w.Body)
		}
		return w.Header().Get(server.RequestIDHeader)
	}

	for _, tc := range []struct{ name, id string }{
		{"empty", ""},
		{"65-bytes", strings.Repeat("x", 65)},
		{"newline", "req\nforged=1"},
		{"space", "req 1"},
		{"quote", `req"1`},
		{"equals", "req=1"},
		{"slash", "req/1"},
		{"non-utf8", "req\xff\xfe"},
	} {
		for _, tier := range []struct {
			name string
			h    http.Handler
		}{{"backend", backend}, {"router", router}} {
			echoed := send(tier.h, tc.id)
			if echoed == tc.id || !server.ValidID(echoed, false) {
				t.Errorf("%s/%s: echoed %q for client id %q", tier.name, tc.name, echoed, tc.id)
			}
			got := lines.where(func(id string) bool { return strings.HasPrefix(id, echoed) })
			if len(got) == 0 {
				t.Errorf("%s/%s: no line for the minted id %q", tier.name, tc.name, echoed)
			}
			if tier.name == "router" && len(lines.where(func(id string) bool { return id == echoed+".a1" })) != 1 {
				t.Errorf("%s/%s: the backend did not log the router's minted id with its suffix", tier.name, tc.name)
			}
		}
		if tc.id != "" && len(lines.where(func(id string) bool { return strings.Contains(id, tc.id) })) > 0 {
			t.Errorf("%s: the client's id %q reached a log line", tc.name, tc.id)
		}
	}

	// A backend keeps every valid id; a router, which appends the
	// suffixes itself, keeps only bare ones.
	for _, tc := range []struct{ name, id string }{
		{"bare", "client-7.run_A"},
		{"64-bytes", strings.Repeat("y", 64)},
		{"attempt", "client-7.a3"},
		{"batch-attempt", "client-7/12.a3"},
	} {
		if got := send(backend, tc.id); got != tc.id {
			t.Errorf("backend/%s: echoed %q, want %q", tc.name, got, tc.id)
		}
		bare := server.ValidID(tc.id, false)
		if got := send(router, tc.id); (got == tc.id) != bare {
			t.Errorf("router/%s: echoed %q for client id %q", tc.name, got, tc.id)
		} else if bare && len(lines.where(func(id string) bool { return id == tc.id+".a1" })) != 1 {
			t.Errorf("router/%s: the backend did not log %q", tc.name, tc.id+".a1")
		}
	}
}

// requestIDSeeds are client ids inside and outside the grammar, bare and
// suffixed: FuzzRequestID's seeds, and FuzzFrontDoor's.
func requestIDSeeds() []string {
	return []string{"", "client-1", "a.b_c-d", strings.Repeat("z", 64), strings.Repeat("z", 65),
		"x\ny", "x y", `x"y`, "x=y", "x/1", "x.a1", "x/1.a2", "\xff", "..", "-"}
}

// FuzzRequestID: whatever header value a client sends, the router echoes
// an id in the grammar, and the backend's line carries that id with the
// attempt suffix — so a valid client id reaches it unchanged.
func FuzzRequestID(f *testing.F) {
	for _, seed := range requestIDSeeds() {
		f.Add(seed)
	}
	lines := captureLines(f)
	_, urls := newBackends(f, 1)
	router := newRouter(f, reticle.ShardOptions{Backends: urls})
	body := mustJSON(f, server.CompileRequest{IR: maccSrc})
	f.Fuzz(func(t *testing.T, id string) {
		r := httptest.NewRequest("POST", "/compile", bytes.NewReader(body))
		r.Header[server.RequestIDHeader] = []string{id}
		w := httptest.NewRecorder()
		router.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		echoed := w.Header().Get(server.RequestIDHeader)
		if !server.ValidID(echoed, false) {
			t.Fatalf("echoed id %q is outside the grammar", echoed)
		}
		if server.ValidID(id, false) != (echoed == id) {
			t.Fatalf("client id %q echoed as %q", id, echoed)
		}
		if n := len(lines.where(func(got string) bool { return got == echoed+".a1" })); n != 1 {
			t.Fatalf("%d backend lines carry %q", n, echoed+".a1")
		}
	})
}

// trailBackend wraps a backend so a test can wedge it on its next request
// and have it die there: that request is held until the router gives up
// on it, and every later connection is dropped unanswered.
type trailBackend struct {
	wedgeNext, dead atomic.Bool
}

func (tb *trailBackend) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && tb.wedgeNext.CompareAndSwap(true, false) {
			tb.dead.Store(true)
			wedged(w, r)
			return
		}
		if tb.dead.Load() {
			if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestRequestTrail rebuilds one routed /batch of cold kernels from the log
// lines alone — the router's line for its id and every backend line whose
// id extends it — while backend A is wedged on the first kernel (a hedge
// to B fires and wins) and dies there (the next kernel whose first choice
// is A re-hashes). Attempts, hedges, rehashes and each kernel's serving
// tier must agree with the response body and the /stats deltas.
func TestRequestTrail(t *testing.T) {
	// Two kernels whose first choice is backend 0, and one on backend 1,
	// found through a router over two canned stubs: the ring hashes
	// backend positions, so every two-backend router picks alike.
	s0, s1 := newStub(t, cannedOK("s0")), newStub(t, cannedOK("s1"))
	probe := newRouter(t, reticle.ShardOptions{Backends: []string{s0.srv.URL, s1.srv.URL}})
	var onA, onB []server.BatchKernel
	for n := 1; len(onA) < 2 || len(onB) < 1; n++ {
		k := server.BatchKernel{Name: fmt.Sprintf("trail%d", n), IR: chainSrc(fmt.Sprintf("trail%d", n), n)}
		before := s0.hits.Load()
		post(t, probe, "/compile", server.CompileRequest{IR: k.IR}, nil)
		if s0.hits.Load() > before {
			onA = append(onA, k)
		} else {
			onB = append(onB, k)
		}
	}
	kernels := []server.BatchKernel{onA[0], onA[1], onB[0]}

	lines := captureLines(t)
	var a trailBackend
	urls := make([]string, 2)
	for i, wrap := range []func(http.Handler) http.Handler{a.wrap, func(h http.Handler) http.Handler { return h }} {
		s, err := reticle.NewServer(reticle.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(wrap(s))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	rt := newRouter(t, reticle.ShardOptions{Backends: urls, HedgeAfter: 30 * time.Millisecond})
	before := routerStats(t, rt)
	kernelsBefore := backendStats(t, urls[1]).Kernels

	a.wedgeNext.Store(true)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest("POST", "/batch", bytes.NewReader(mustJSON(t, server.BatchRequest{Jobs: 1, Kernels: kernels}))))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body)
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	id := w.Header().Get(server.RequestIDHeader)
	after := routerStats(t, rt)
	kernelsAfter := backendStats(t, urls[1]).Kernels

	// The router's line.
	routed := lines.where(func(got string) bool { return got == id })
	if len(routed) != 1 || routed[0].msg != "route" {
		t.Fatalf("router lines for %s: %+v", id, routed)
	}
	rl := routed[0]
	// The backends' lines: kernel k's attempt n is id/k.an.
	attempts := make([]int64, len(kernels))
	tiers := make([]string, len(kernels))
	computed := int64(0)
	for _, bl := range lines.where(func(got string) bool { return strings.HasPrefix(got, id+"/") }) {
		var k, n int64
		if _, err := fmt.Sscanf(strings.TrimPrefix(bl.str("id"), id+"/"), "%d.a%d", &k, &n); err != nil || k >= int64(len(kernels)) {
			t.Fatalf("backend line id %q does not extend %q with a kernel attempt", bl.str("id"), id)
		}
		if n > attempts[k] {
			attempts[k], tiers[k] = n, bl.str("tier")
		}
		if bl.str("tier") == "computed" {
			computed++
		}
	}

	var sent int64
	for k, res := range resp.Results {
		sent += attempts[k]
		if want := map[string]string{"miss": "computed", "hit": "memory"}[res.Cache]; !res.OK || tiers[k] != want {
			t.Errorf("kernel %d: the body says ok=%v cache %q, its last backend line says tier %q", k, res.OK, res.Cache, tiers[k])
		}
	}
	if rl.num("attempts") != sent {
		t.Errorf("router line: %d attempts, the backend lines number %d", rl.num("attempts"), sent)
	}
	if computed != kernelsAfter-kernelsBefore || computed != int64(resp.Stats.Compiled) {
		t.Errorf("%d computed backend lines, backend kernels delta %d, body compiled %d",
			computed, kernelsAfter-kernelsBefore, resp.Stats.Compiled)
	}
	for _, c := range []struct {
		key   string
		delta int64
	}{
		{"hedged", after.Router.Hedges - before.Router.Hedges},
		{"hedge_won", after.Router.HedgeWins - before.Router.HedgeWins},
		{"rehashes", after.Router.Rehashes - before.Router.Rehashes},
		{"proxied", after.Router.Proxied - before.Router.Proxied},
	} {
		if rl.num(c.key) != c.delta {
			t.Errorf("router line %s=%d, /stats delta %d", c.key, rl.num(c.key), c.delta)
		}
	}
	// The scenario itself: one hedge, won, and one re-hash off the dead A.
	if rl.num("hedged") != 1 || rl.num("hedge_won") != 1 || rl.num("rehashes") != 1 {
		t.Errorf("router line hedged=%d hedge_won=%d rehashes=%d, want 1 each",
			rl.num("hedged"), rl.num("hedge_won"), rl.num("rehashes"))
	}
}
