package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	// A named kernel ahead of an unnamed one with the same text: the
	// router, which does not parse, must still answer the unnamed one with
	// its parsed name.
	kernels := append([]server.BatchKernel{{Name: "lead", IR: chainSrc("sw2", 3)}}, sweep(3)...)
	kernels = append(kernels, server.BatchKernel{Name: "dup", IR: chainSrc("sw0", 1)},
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

// lengthWriter is a ResponseWriter that keeps what it is written.
type lengthWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *lengthWriter) Header() http.Header         { return w.h }
func (w *lengthWriter) WriteHeader(code int)        { w.code = code }
func (w *lengthWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// wallStats are the /batch stats that time the tier that wrote them.
var wallStats = regexp.MustCompile(`"(wall_ns|kernels_per_sec)":[-+.eE0-9]+`)

// TestBufferedFrameByReference: a buffered frame that holds its artifacts
// by reference writes the bytes a frame that copies them does, and
// announces exactly the length it writes; over real sockets, a buffered
// /batch from a backend and from a router is the splice of the same
// tier's stream, announced at its length, and the two tiers answer the
// same bytes.
func TestBufferedFrameByReference(t *testing.T) {
	art := []byte(`{"asm":"a","placed":"p","verilog":"v","luts":1}`)
	items := []server.BatchKernelResultWire{
		{Name: "a", OK: true, Cache: "hit", Artifact: art},
		{Name: "b", Error: "parse: x", ErrorCode: "parse_failed"},
		{Name: "c<&>", OK: true, Cache: "miss", Artifact: art[: len(art)-1 : len(art)-1]},
		{Name: "d", OK: true, Cache: "hit", Artifact: []byte("{}")},
		// Larger than the frame's write buffer, so it crosses a flush.
		{Name: "e", OK: true, Cache: "hit", Artifact: []byte(`{"asm":"` + strings.Repeat("x", 150_000) + `"}`)},
	}
	frames := map[string][]byte{}
	for _, byRef := range []bool{false, true} {
		w := &lengthWriter{h: http.Header{}}
		f := server.NewFrame(w, false, "results", "family", "ultrascale")
		for i := range items {
			if byRef {
				f.Item(&items[i])
			} else {
				f.Item(items[i])
			}
		}
		f.Close("stats", server.BatchStatsJSON{Kernels: len(items)})
		if n, err := strconv.Atoi(w.h.Get("Content-Length")); err != nil || n != w.body.Len() || w.code != http.StatusOK {
			t.Fatalf("by reference %v: status %d, Content-Length %q for %d bytes written", byRef, w.code, w.h.Get("Content-Length"), w.body.Len())
		}
		frames[strconv.FormatBool(byRef)] = w.body.Bytes()
	}
	if !bytes.Equal(frames["true"], frames["false"]) {
		t.Fatalf("by reference:\n%s\nby copy:\n%s", frames["true"], frames["false"])
	}

	backends, urls := newBackends(t, 1)
	rt := newRouter(t, reticle.ShardOptions{Backends: urls})
	router := httptest.NewServer(rt)
	t.Cleanup(router.Close)
	kernels := append(sweep(4), server.BatchKernel{Name: "dup", IR: chainSrc("sw0", 1)},
		server.BatchKernel{Name: "broken", IR: "def broken( {"}, server.BatchKernel{IR: maccSrc})
	buffered, _ := json.Marshal(server.BatchRequest{Kernels: kernels})
	streamed, _ := json.Marshal(server.BatchRequest{Kernels: kernels, Stream: true})
	postRaw := func(url string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, read %v: %s", url, resp.StatusCode, err, b)
		}
		return resp, b
	}
	postRaw(router.URL, buffered) // warm: every valid kernel is a hit below, on both tiers
	tiers := map[string][]byte{}
	for name, url := range map[string]string{"backend": backends[0].URL, "router": router.URL} {
		resp, body := postRaw(url, buffered)
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: announced %d bytes, wrote %d", name, resp.ContentLength, len(body))
		}
		_, stream := postRaw(url, streamed)
		lines := strings.Split(strings.TrimSuffix(string(stream), "\n"), "\n")
		var foot struct {
			Family json.RawMessage `json:"family"`
			Stats  json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &foot); err != nil {
			t.Fatalf("%s: stream footer: %v", name, err)
		}
		splice := fmt.Sprintf(`{"family":%s,"results":[%s],"stats":%s}`+"\n",
			foot.Family, strings.Join(lines[:len(lines)-1], ","), foot.Stats)
		body = wallStats.ReplaceAll(body, nil)
		if want := wallStats.ReplaceAll([]byte(splice), nil); !bytes.Equal(body, want) {
			t.Errorf("%s: buffered body is not the splice of its stream\n got %.400s\nwant %.400s", name, body, want)
		}
		tiers[name] = body
	}
	if !bytes.Equal(tiers["router"], tiers["backend"]) {
		t.Errorf("the router's buffered /batch differs from the backend's\nrouter  %.400s\nbackend %.400s", tiers["router"], tiers["backend"])
	}
}
