package server_test

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"reticle"
	"reticle/internal/server"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.golden")

// measuredFields are the members of a /batch or /explore body that are
// wall-clock measurements rather than functions of the request: they
// are zeroed before the body is compared.
var measuredFields = []struct {
	re   *regexp.Regexp
	mask string
}{
	{regexp.MustCompile(`"(wall_ns|compile_ns)":[0-9]+`), `"$1":0`},
	{regexp.MustCompile(`"(\w+_per_sec)":[-+.eE0-9]+`), `"$1":0`},
	{regexp.MustCompile(`"stages":\{[^{}]*\}`), `"stages":{}`},
}

func maskMeasured(body []byte) []byte {
	for _, m := range measuredFields {
		body = m.re.ReplaceAll(body, []byte(m.mask))
	}
	return body
}

// TestWireGolden pins the bytes /explore and /batch put on the wire, in
// both framings, for every bundled example on both families: each body
// from a fresh server, one worker, measured fields masked. The splice
// tests compare the two framings with each other; this compares both
// with what the service answered when the golden was recorded (-update).
func TestWireGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.ret"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled examples: %v", err)
	}
	var got bytes.Buffer
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, family := range []string{"ultrascale", "agilex"} {
			for _, stream := range []bool{false, true} {
				for _, ep := range []struct {
					path string
					body any
				}{
					{"/explore", server.ExploreRequest{Family: family, IR: string(src), Jobs: 1, Stream: stream}},
					{"/batch", server.BatchRequest{Family: family, Jobs: 1, Stream: stream,
						Kernels: []server.BatchKernel{{IR: string(src)}}}},
				} {
					w := postBody(t, newTestServer(t, reticle.ServerOptions{}), ep.path, ep.body, nil)
					if w.Code != http.StatusOK {
						t.Fatalf("%s %s %s: status %d: %s", filepath.Base(p), family, ep.path, w.Code, w.Body.String())
					}
					fmt.Fprintf(&got, "== %s %s %s stream=%t %s\n", filepath.Base(p), family, ep.path, stream, w.Header().Get("Content-Type"))
					got.Write(maskMeasured(w.Body.Bytes()))
				}
			}
		}
	}
	golden := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				at := 0
				for at < len(gl[i]) && at < len(wl[i]) && gl[i][at] == wl[i][at] {
					at++
				}
				from := max(0, at-60)
				t.Fatalf("wire bytes moved at golden line %d, byte %d (run with -update only if the change is intentional)\ngot:  …%s\nwant: …%s",
					i+1, at, gl[i][from:min(len(gl[i]), at+60)], wl[i][from:min(len(wl[i]), at+60)])
			}
		}
		t.Fatalf("wire golden has %d lines, the service answered %d", len(wl), len(gl))
	}
}
