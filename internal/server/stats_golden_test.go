package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/faults"
	"reticle/internal/rerr"
	"reticle/internal/server"
)

// statsMeasured are the /stats members that describe the process or the
// clock rather than the request sequence: zeroed before comparison, as
// maskMeasured does for the wire golden.
var statsMeasured = []struct {
	re   *regexp.Regexp
	mask string
}{
	{regexp.MustCompile(`"uptime_ms":[0-9]+`), `"uptime_ms":0`},
	{regexp.MustCompile(`"mem":\{[^{}]*\}`), `"mem":{}`},
	{regexp.MustCompile(`"stages":\{[^{}]*\}`), `"stages":{}`},
}

func maskStats(body []byte) []byte {
	for _, m := range statsMeasured {
		body = m.re.ReplaceAll(body, []byte(m.mask))
	}
	return body
}

// statsStep is one request of the fixed /stats sequence.
type statsStep struct {
	name, method, path string
	body               any
	plan               *faults.Plan
}

// statsSequence is the request sequence both stats goldens replay: a
// /compile miss, the same body again (exact-body memo), an alpha-renamed
// body (artifact hit), a /batch with a duplicate and a parse error, an
// /explore, a load-shed 429, a malformed body and an unmatched route.
func statsSequence() []statsStep {
	renamed := strings.NewReplacer("t0", "u0", "t1", "u1").Replace(maccSrc)
	batched := strings.ReplaceAll(strings.ReplaceAll(maccSrc, "macc", "macb"), "add(t0, c)", "add(t0, a)")
	return []statsStep{
		{name: "miss", method: "POST", path: "/compile", body: server.CompileRequest{IR: maccSrc}},
		{name: "memo-hit", method: "POST", path: "/compile", body: server.CompileRequest{IR: maccSrc}},
		{name: "artifact-hit", method: "POST", path: "/compile", body: server.CompileRequest{IR: renamed}},
		{name: "batch", method: "POST", path: "/batch", body: server.BatchRequest{Jobs: 1, Kernels: []server.BatchKernel{
			{Name: "b", IR: batched}, {Name: "dup", IR: batched}, {Name: "broken", IR: "def broken( {"},
		}}},
		{name: "explore", method: "POST", path: "/explore", body: server.ExploreRequest{IR: maccSrc, Jobs: 1, MaxVariants: 4}},
		{name: "shed", method: "POST", path: "/compile", body: server.CompileRequest{IR: maccSrc},
			plan: faults.NewPlan(map[faults.Point]faults.Injection{server.FaultAdmission: {Class: rerr.Exhausted, Times: 1}})},
		{name: "malformed", method: "POST", path: "/compile", body: "{"},
		{name: "unmatched", method: "GET", path: "/nope"},
	}
}

// request builds the step's HTTP request; a string body is sent as is.
func (st statsStep) request(t testing.TB) *http.Request {
	t.Helper()
	var data []byte
	switch b := st.body.(type) {
	case nil:
	case string:
		data = []byte(b)
	default:
		var err error
		if data, err = json.Marshal(b); err != nil {
			t.Fatal(err)
		}
	}
	r := httptest.NewRequest(st.method, st.path, bytes.NewReader(data))
	if st.plan != nil {
		r = r.WithContext(faults.WithPlan(r.Context(), st.plan))
	}
	return r
}

// TestStatsGolden pins every /stats value after a fixed request sequence
// against a fresh server, one worker everywhere so the memo counters
// do not depend on scheduling, measured members masked. It was recorded
// before the counters became a fold of per-request accounts, so it holds
// the fold to the numbers the hand-placed counters gave.
func TestStatsGolden(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	var got bytes.Buffer
	for _, st := range statsSequence() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, st.request(t))
		fmt.Fprintf(&got, "== %s %s %s %d\n", st.name, st.method, st.path, w.Code)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/stats", nil))
	got.Write(maskStats(w.Body.Bytes()))
	compareGolden(t, filepath.Join("testdata", "stats.golden"), got.Bytes())
}

// compareGolden checks got against the golden file, or rewrites it under
// -update.
func compareGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateWire {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s moved (run with -update only if the change is intentional)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
