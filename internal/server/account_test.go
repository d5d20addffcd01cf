package server_test

import (
	"context"
	"log/slog"
	"net/http"
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
