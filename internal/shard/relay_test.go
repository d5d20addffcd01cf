package shard_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/server"
)

// wallFields are the two /batch stats that time the tier that wrote them.
var wallFields = regexp.MustCompile(`"wall_ns":[0-9]+,"kernels_per_sec":[0-9.e+-]+`)

// TestRouterRelayBytes: what a router answers is its backend's own bytes —
// /compile bodies whole, /batch in both framings apart from the two
// wall-time stats — whether the router relays a backend body, splices
// artifacts sliced out of one, or serves them from its own disk. The first
// pass compiles through the router, so its answers differ from the warm
// backend's in the cache mark (and the compiled count) alone.
func TestRouterRelayBytes(t *testing.T) {
	compileReq, _ := json.Marshal(server.CompileRequest{Name: `re"lay <1>`, IR: maccSrc})
	kernels := append(sweep(3), server.BatchKernel{Name: "dup", IR: chainSrc("sw0", 1)},
		server.BatchKernel{Name: "broken", IR: "def broken( {"})
	buffered, _ := json.Marshal(server.BatchRequest{Kernels: kernels})
	streamed, _ := json.Marshal(server.BatchRequest{Kernels: kernels, Stream: true})
	requests := []struct {
		name, path string
		body       []byte
		framed     bool // one frame with its length announced
	}{
		{"compile", "/compile", compileReq, true},
		{"batch", "/batch", buffered, true},
		{"batch-stream", "/batch", streamed, false},
	}
	warm := strings.NewReplacer(`"cache":"miss"`, `"cache":"hit"`, `"compiled":3`, `"compiled":0`)

	for _, tier := range []struct {
		name string
		opts reticle.ShardOptions
	}{
		{"relay", reticle.ShardOptions{}},
		{"router-disk", reticle.ShardOptions{DiskDir: t.TempDir()}},
	} {
		backends, urls := newBackends(t, 1)
		tier.opts.Backends = urls
		rt := newRouter(t, tier.opts)
		for _, rq := range requests {
			routed := func() []byte {
				w := httptest.NewRecorder()
				rt.ServeHTTP(w, httptest.NewRequest("POST", rq.path, bytes.NewReader(rq.body)))
				if w.Code != http.StatusOK {
					t.Fatalf("%s/%s: routed status %d: %s", tier.name, rq.name, w.Code, w.Body)
				}
				if cl := w.Header().Get("Content-Length"); rq.framed && cl != strconv.Itoa(w.Body.Len()) {
					t.Errorf("%s/%s: Content-Length %q on a %d-byte frame", tier.name, rq.name, cl, w.Body.Len())
				}
				return wallFields.ReplaceAll(w.Body.Bytes(), nil)
			}
			cold := routed()

			resp, err := http.Post(backends[0].URL+rq.path, "application/json", bytes.NewReader(rq.body))
			if err != nil {
				t.Fatal(err)
			}
			own, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: backend status %d, %v", tier.name, rq.name, resp.StatusCode, err)
			}
			if rq.framed && resp.ContentLength != int64(len(own)) {
				t.Errorf("%s/%s: backend announced length %d for a %d-byte frame", tier.name, rq.name, resp.ContentLength, len(own))
			}
			own = wallFields.ReplaceAll(own, nil)

			if got := warm.Replace(string(cold)); got != string(own) {
				t.Errorf("%s/%s: the routed compile is not the backend's bytes\nrouter  %s\nbackend %s", tier.name, rq.name, got, own)
			}
			if got := routed(); !bytes.Equal(got, own) {
				t.Errorf("%s/%s: the routed hit is not the backend's bytes\nrouter  %s\nbackend %s", tier.name, rq.name, got, own)
			}
		}
	}
}
