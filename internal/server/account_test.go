package server_test

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"reticle"
	"reticle/internal/server"
)

// levelCounter counts the records a handler at the default level (Info)
// would write.
type levelCounter struct{ n atomic.Int64 }

func (c *levelCounter) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }
func (c *levelCounter) Handle(context.Context, slog.Record) error    { c.n.Add(1); return nil }
func (c *levelCounter) WithAttrs([]slog.Attr) slog.Handler           { return c }
func (c *levelCounter) WithGroup(string) slog.Handler                { return c }

// TestRequestLogLevels: a 200 served from the resident artifact — by the
// exact-body memo or by the canonical key — writes no record at the
// default level; a compile and a failure write one each. (Not parallel:
// it owns slog.Default.)
func TestRequestLogLevels(t *testing.T) {
	var c levelCounter
	prev := slog.Default()
	slog.SetDefault(slog.New(&c))
	t.Cleanup(func() { slog.SetDefault(prev) })
	s := newTestServer(t, reticle.ServerOptions{})

	renamed := strings.NewReplacer("t0", "u0", "t1", "u1").Replace(maccSrc)
	for _, step := range []struct {
		name   string
		body   any
		status int
		lines  int64
	}{
		{"compile", server.CompileRequest{IR: maccSrc}, http.StatusOK, 1},
		{"memo hit", server.CompileRequest{IR: maccSrc}, http.StatusOK, 1},
		{"artifact hit", server.CompileRequest{IR: renamed}, http.StatusOK, 1},
		{"parse error", server.CompileRequest{IR: "def broken( {"}, http.StatusBadRequest, 2},
	} {
		if code := post(t, s, "/compile", step.body, nil); code != step.status {
			t.Fatalf("%s: status %d, want %d", step.name, code, step.status)
		}
		if got := c.n.Load(); got != step.lines {
			t.Errorf("after the %s: %d records at Info, want %d", step.name, got, step.lines)
		}
	}
}

// TestFooterStagesSkippedIsTheFold: the stages_skipped a /batch or
// /explore footer reports is the request's own share of the /stats fold —
// non-zero here, because the repeat sweep's new variants and the batch's
// DSP-annotated kernel fork off stages memoized by earlier requests.
func TestFooterStagesSkippedIsTheFold(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	skipped := func() int {
		var st server.StatsResponse
		if code := get(t, s, "/stats", &st); code != http.StatusOK || st.StageCache == nil {
			t.Fatalf("/stats: status %d, stage_cache %v", code, st.StageCache)
		}
		return int(st.StageCache.StagesSkipped)
	}
	if code := post(t, s, "/explore", server.ExploreRequest{IR: maccSrc, Jobs: 1, MaxVariants: 2}, nil); code != http.StatusOK {
		t.Fatalf("first /explore: status %d", code)
	}

	before := skipped()
	var er server.ExploreResponse
	if code := post(t, s, "/explore", server.ExploreRequest{IR: maccSrc, Jobs: 1, MaxVariants: 4}, &er); code != http.StatusOK {
		t.Fatalf("repeat /explore: status %d", code)
	}
	if delta := skipped() - before; er.Stats.StagesSkipped == 0 || er.Stats.StagesSkipped != delta {
		t.Errorf("repeat /explore: footer stages_skipped %d, /stats delta %d", er.Stats.StagesSkipped, delta)
	}

	before = skipped()
	onDSP := strings.Replace(maccSrc, "mul(a, b) @??", "mul(a, b) @dsp", 1)
	var br server.BatchResponse
	if code := post(t, s, "/batch", server.BatchRequest{Jobs: 1, Kernels: []server.BatchKernel{
		{Name: "dsp", IR: onDSP}, {Name: "resident", IR: maccSrc}, {Name: "broken", IR: "def broken( {"},
	}}, &br); code != http.StatusOK {
		t.Fatalf("/batch: status %d", code)
	}
	if delta := skipped() - before; br.Stats.StagesSkipped == 0 || br.Stats.StagesSkipped != delta {
		t.Errorf("/batch: footer stages_skipped %d, /stats delta %d", br.Stats.StagesSkipped, delta)
	}
}

// lastLine keeps the top-level attrs of the last record it handled.
type lastLine struct{ attrs map[string]int64 }

func (l *lastLine) Enabled(context.Context, slog.Level) bool { return true }
func (l *lastLine) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *lastLine) WithGroup(string) slog.Handler            { return l }

func (l *lastLine) Handle(_ context.Context, r slog.Record) error {
	l.attrs = map[string]int64{}
	r.Attrs(func(a slog.Attr) bool {
		if a.Value.Kind() == slog.KindInt64 {
			l.attrs[a.Key] = a.Value.Int64()
		}
		return true
	})
	return nil
}

// TestCounterTable: every counter has a distinct, non-empty snake_case
// log key; Merge and the fold sum each counter; a request line writes
// each non-zero counter under its key and no zero one. An entry missing
// from the key table still compiles, so this is its guard. (Not
// parallel: it owns slog.Default.)
func TestCounterTable(t *testing.T) {
	line := &lastLine{}
	prev := slog.Default()
	slog.SetDefault(slog.New(line))
	t.Cleanup(func() { slog.SetDefault(prev) })

	snake := regexp.MustCompile(`^[a-z]+(_[a-z]+)*$`)
	owner := map[string]server.Counter{}
	var a, b server.Account
	for c := server.Counter(0); c < server.NumCounters; c++ {
		k := server.CounterKey(c)
		if !snake.MatchString(k) {
			t.Errorf("counter %d: log key %q is not snake_case", c, k)
		}
		if d, dup := owner[k]; dup {
			t.Errorf("counters %d and %d share the log key %q", d, c, k)
		}
		owner[k] = c
		a.N[c], b.N[c] = int(c)+1, 100*(int(c)+1)
	}
	a.Merge(b, b)
	for c, n := range a.N {
		if n != 201*(c+1) {
			t.Errorf("counter %s: merged %d, want %d", server.CounterKey(server.Counter(c)), n, 201*(c+1))
		}
	}

	var totals server.Totals
	for _, n := range []int{0, 1} {
		tr := server.Track(httptest.NewRecorder(), httptest.NewRequest("GET", "/counters", nil), false)
		for c := range tr.N {
			tr.N[c] = n * a.N[c]
		}
		tr.Finish(&totals, "test")
		for c, want := range tr.N {
			k := server.CounterKey(server.Counter(c))
			if got, ok := line.attrs[k]; ok != (want != 0) || got != int64(want) {
				t.Errorf("counter %s = %d: the line has %d (written: %v)", k, want, got, ok)
			}
		}
	}
	if _, sum := totals.Snapshot(); sum.N != a.N {
		t.Errorf("the fold of two requests holds %v, want %v", sum.N, a.N)
	}
}
