package shard_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"reticle"
	"reticle/internal/faults"
	"reticle/internal/rerr"
	"reticle/internal/server"
)

// statsMeasured are the /stats members that describe the processes, the
// clock or the listeners rather than the request sequence.
var statsMeasured = regexp.MustCompile(`"uptime_ms":[0-9]+|"mem":\{[^{}]*\}|"stages":\{[^{}]*\}|"url":"[^"]*"`)

// shedNext arms the server/admission fault for the next request a
// wrapped backend serves: the router forwards no fault plan, so the 429
// has to be raised where the backend admits.
type shedNext struct{ armed atomic.Bool }

func (sn *shedNext) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sn.armed.CompareAndSwap(true, false) {
			r = r.WithContext(faults.WithPlan(r.Context(), faults.NewPlan(map[faults.Point]faults.Injection{
				server.FaultAdmission: {Class: rerr.Exhausted, Times: 1},
			})))
		}
		h.ServeHTTP(w, r)
	})
}

// TestStatsGolden replays the server stats golden's request sequence
// through a router over two backends (one worker everywhere, so every
// counter is a function of the sequence) and pins the router's /stats,
// backend sections included, measured members masked. It was recorded
// before the counters became a fold of per-request accounts.
func TestStatsGolden(t *testing.T) {
	var shed shedNext
	urls := make([]string, 2)
	for i := range urls {
		s, err := reticle.NewServer(reticle.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(shed.wrap(s))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	rt := newRouter(t, reticle.ShardOptions{Backends: urls})

	renamed := strings.NewReplacer("t0", "u0", "t1", "u1").Replace(maccSrc)
	batched := strings.ReplaceAll(strings.ReplaceAll(maccSrc, "macc", "macb"), "add(t0, c)", "add(t0, a)")
	var got bytes.Buffer
	for _, st := range []struct {
		name, method, path string
		body               any
		shed               bool
	}{
		{"miss", "POST", "/compile", server.CompileRequest{IR: maccSrc}, false},
		{"memo-hit", "POST", "/compile", server.CompileRequest{IR: maccSrc}, false},
		{"artifact-hit", "POST", "/compile", server.CompileRequest{IR: renamed}, false},
		{"batch", "POST", "/batch", server.BatchRequest{Jobs: 1, Kernels: []server.BatchKernel{
			{Name: "b", IR: batched}, {Name: "dup", IR: batched}, {Name: "broken", IR: "def broken( {"},
		}}, false},
		{"explore", "POST", "/explore", server.ExploreRequest{IR: maccSrc, Jobs: 1, MaxVariants: 4}, false},
		{"shed", "POST", "/compile", server.CompileRequest{IR: maccSrc}, true},
		{"malformed", "POST", "/compile", "{", false},
		{"unmatched", "GET", "/nope", nil, false},
	} {
		var data []byte
		switch b := st.body.(type) {
		case nil:
		case string:
			data = []byte(b)
		default:
			data = mustJSON(t, b)
		}
		shed.armed.Store(st.shed)
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(st.method, st.path, bytes.NewReader(data)))
		fmt.Fprintf(&got, "== %s %s %s %d\n", st.name, st.method, st.path, w.Code)
	}
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest("GET", "/stats", nil))
	var indented bytes.Buffer
	if err := json.Indent(&indented, statsMeasured.ReplaceAllFunc(w.Body.Bytes(), func(m []byte) []byte {
		return append(append([]byte(nil), m[:bytes.IndexByte(m, ':')+1]...), '0')
	}), "", " "); err != nil {
		t.Fatalf("/stats: %v\n%s", err, w.Body)
	}
	got.Write(indented.Bytes())

	golden := filepath.Join("testdata", "stats.golden")
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
