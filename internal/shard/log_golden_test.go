package shard_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"reticle"
	"reticle/internal/server"
)

// mintedID matches an id a tier minted: the process prefix and a sequence
// number, which differ from run to run.
var mintedID = regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-z]+`)

// goldenLog is a slog.Handler that renders every record, at every level,
// as one line of text with the members that time the process masked: the
// request's dur and budget left, its stage wall times, and the bytes of a
// 200 (its body carries measured members too).
type goldenLog struct {
	mu    sync.Mutex
	lines []string
}

func (g *goldenLog) Enabled(context.Context, slog.Level) bool { return true }
func (g *goldenLog) WithAttrs([]slog.Attr) slog.Handler       { return g }
func (g *goldenLog) WithGroup(string) slog.Handler            { return g }

func (g *goldenLog) Handle(_ context.Context, r slog.Record) error {
	var attrs []slog.Attr
	r.Attrs(func(a slog.Attr) bool {
		attrs = append(attrs, a)
		return true
	})
	ok := false
	for _, a := range attrs {
		ok = ok || a.Key == "status" && a.Value.Int64() == http.StatusOK
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", r.Level, r.Message)
	var put func(prefix string, a slog.Attr)
	put = func(prefix string, a slog.Attr) {
		v := a.Value.String()
		switch {
		case a.Value.Kind() == slog.KindGroup:
			for _, m := range a.Value.Group() {
				put(prefix+a.Key+".", m)
			}
			return
		case prefix == "stages.", a.Key == "dur", a.Key == "budget", a.Key == "bytes" && ok:
			v = "*"
		case a.Key == "id":
			v = mintedID.ReplaceAllString(v, "minted")
		}
		fmt.Fprintf(&b, " %s%s=%s", prefix, a.Key, v)
	}
	for _, a := range attrs {
		put("", a)
	}
	g.mu.Lock()
	g.lines = append(g.lines, b.String())
	g.mu.Unlock()
	return nil
}

// take returns the lines written since the last take, sorted: a routed
// request's backend lines and its own can be written in either order.
func (g *goldenLog) take() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.lines
	g.lines = nil
	sort.Strings(out)
	return out
}

// TestLogGolden replays a fixed request sequence and pins every log line
// both tiers write, at every level, in testdata/log.golden. On a backend:
// a cold /compile, a raw-body memo hit, an artifact hit, a parse error, a
// /batch whose kernel the stage memo mostly serves, and an /explore. On a
// router: TestRequestTrail's /batch, hedged off a wedged backend and
// re-hashed off it once it has died. Client ids are given wherever the
// sequence allows.
func TestLogGolden(t *testing.T) {
	onA, onB := trailKernels(t)
	g := &goldenLog{}
	prev := slog.Default()
	slog.SetDefault(slog.New(g))
	t.Cleanup(func() { slog.SetDefault(prev) })

	var got bytes.Buffer
	step := func(name string) {
		fmt.Fprintf(&got, "== %s\n", name)
		for _, l := range g.take() {
			fmt.Fprintln(&got, l)
		}
	}
	send := func(h http.Handler, id, path string, body any) {
		r := httptest.NewRequest("POST", path, bytes.NewReader(mustJSON(t, body)))
		r.Header.Set(server.RequestIDHeader, id)
		h.ServeHTTP(httptest.NewRecorder(), r)
	}

	backend, err := reticle.NewServer(reticle.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	renamed := strings.NewReplacer("t0", "u0", "t1", "u1").Replace(maccSrc)
	onDSP := strings.Replace(maccSrc, "mul(a, b) @??", "mul(a, b) @dsp", 1)
	for _, st := range []struct {
		id, path string
		body     any
	}{
		{"cold", "/compile", server.CompileRequest{IR: maccSrc}},
		{"memo-hit", "/compile", server.CompileRequest{IR: maccSrc}},
		{"artifact-hit", "/compile", server.CompileRequest{IR: renamed}},
		{"parse-error", "/compile", server.CompileRequest{IR: "def broken( {"}},
		{"batch", "/batch", server.BatchRequest{Jobs: 1, Kernels: []server.BatchKernel{
			{Name: "dsp", IR: onDSP}, {Name: "dup", IR: maccSrc}, {Name: "broken", IR: "def broken( {"},
		}}},
		{"explore", "/explore", server.ExploreRequest{IR: maccSrc, Jobs: 1, MaxVariants: 4}},
	} {
		send(backend, st.id, st.path, st.body)
		step("backend " + st.id + " " + st.path)
	}

	var a trailBackend
	servers := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i, wrap := range []func(http.Handler) http.Handler{a.wrap, func(h http.Handler) http.Handler { return h }} {
		s, err := reticle.NewServer(reticle.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(wrap(s))
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	rt := newRouter(t, reticle.ShardOptions{Backends: urls, HedgeAfter: 30 * time.Millisecond})
	a.wedgeNext.Store(true)
	send(rt, "trail", "/batch", server.BatchRequest{Jobs: 1, Kernels: []server.BatchKernel{onA[0], onA[1], onB[0]}})
	for _, ts := range servers {
		ts.Close() // waits out every backend request, so every line is in
	}
	step("router trail /batch")

	golden := filepath.Join("testdata", "log.golden")
	// -update is ring_test.go's flag: one test binary, one flag set.
	if flag.Lookup("update").Value.String() == "true" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s moved (run with -update only if the change is intentional)\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// trailKernels returns two kernels whose first choice is backend 0 and
// one whose first choice is backend 1, found through a router over two
// canned stubs: the ring hashes backend positions, so every two-backend
// router picks alike.
func trailKernels(t *testing.T) (onA, onB []server.BatchKernel) {
	s0, s1 := newStub(t, cannedOK("s0")), newStub(t, cannedOK("s1"))
	probe := newRouter(t, reticle.ShardOptions{Backends: []string{s0.srv.URL, s1.srv.URL}})
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
	return onA, onB
}
