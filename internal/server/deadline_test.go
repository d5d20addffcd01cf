package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"reticle"
	"reticle/internal/faults"
	"reticle/internal/rerr"
	"reticle/internal/server"
)

// postWithDeadline posts a /compile with an X-Reticle-Deadline header.
func postWithDeadline(t testing.TB, h http.Handler, body any, header string) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/compile", bytes.NewReader(data))
	if header != "" {
		req.Header.Set(server.DeadlineHeader, header)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestDeadlineHeader pins the cross-tier deadline contract on the
// backend side: a future header compiles normally, an expired one fails
// fast with a typed 504 before any pipeline work, and a malformed one
// is a client error — never silently ignored, never a 500.
func TestDeadlineHeader(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})

	t.Run("future-deadline-compiles", func(t *testing.T) {
		h := strconv.FormatInt(time.Now().Add(30*time.Second).UnixMilli(), 10)
		w := postWithDeadline(t, s, server.CompileRequest{IR: maccSrc}, h)
		if w.Code != http.StatusOK {
			t.Fatalf("future deadline: status %d: %s", w.Code, w.Body.String())
		}
	})

	t.Run("malformed-deadline-400-on-hit", func(t *testing.T) {
		// The kernel is resident now: the memo would answer it, but a
		// malformed header is still a client error, and an expired one is
		// still the typed 504 — one rule on every path, as /batch has.
		w := postWithDeadline(t, s, server.CompileRequest{IR: maccSrc}, "half past nine")
		if w.Code != http.StatusBadRequest {
			t.Fatalf("malformed deadline on a hit: status %d, want 400: %s", w.Code, w.Body.String())
		}
		expired := strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10)
		w = postWithDeadline(t, s, server.CompileRequest{IR: maccSrc}, expired)
		var er server.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); w.Code != http.StatusGatewayTimeout || err != nil || er.ErrorCode != "deadline_exceeded" {
			t.Fatalf("expired deadline on a hit: status %d, want the typed 504: %s", w.Code, w.Body.String())
		}
	})

	t.Run("expired-deadline-504", func(t *testing.T) {
		// A distinct kernel, so the fail-fast is seen to start no compile.
		h := strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10)
		w := postWithDeadline(t, s, server.CompileRequest{IR: chainSrc("dlexp", 2)}, h)
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("expired deadline: status %d, want 504: %s", w.Code, w.Body.String())
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if er.ErrorCode != "deadline_exceeded" {
			t.Fatalf("expired deadline error %+v", er)
		}
		// Fail-fast means zero pipeline work: the kernel counter must not
		// move for a request that was dead on arrival.
		var stats server.StatsResponse
		if code := get(t, s, "/stats", &stats); code != http.StatusOK {
			t.Fatalf("/stats: %d", code)
		}
		if stats.Kernels != 1 { // exactly the future-deadline compile above
			t.Fatalf("%d kernels compiled, want 1 — the expired request reached the pipeline", stats.Kernels)
		}
	})

	t.Run("malformed-deadline-400", func(t *testing.T) {
		w := postWithDeadline(t, s, server.CompileRequest{IR: chainSrc("dlmal", 3)}, "half past nine")
		if w.Code != http.StatusBadRequest {
			t.Fatalf("malformed deadline: status %d, want 400: %s", w.Code, w.Body.String())
		}
	})
}

// TestChaosDeadlineFault drives the server/deadline fault point: an
// armed fault makes every budget look exhausted on arrival, and the
// request fails as the same typed 504 a genuinely expired header earns.
func TestChaosDeadlineFault(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		"server/deadline": {Class: rerr.Exhausted, Times: 1},
	})
	w := chaosPost(t, s, "/compile", server.CompileRequest{IR: maccSrc}, plan)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline fault: status %d, want 504: %s", w.Code, w.Body.String())
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.ErrorCode != "deadline_exceeded" {
		t.Fatalf("deadline fault error %+v", er)
	}
	// The fault plan is spent: the same kernel now compiles.
	if code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, nil); code != http.StatusOK {
		t.Fatalf("post-fault compile: status %d", code)
	}
}
