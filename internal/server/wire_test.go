package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"

	"reticle"
	"reticle/internal/server"
)

// hostileStrings is every way an envelope string can need (or not need)
// escaping: the property test and the fuzz seeds draw names, keys, cache
// marks and errors from it.
var hostileStrings = []string{
	"", "macc", `qu"ote`, `back\slash`, `ends\`, "<>&", "  ",
	"\xff\xfe not utf-8", "ctl\x00\n\t\x1f", "\x7f", "üñí ✓", `,"luts":`,
}

// sampleArtifact is a rendered artifact whose program texts carry every
// hostile string (so quotes, backslashes and the summary's own key appear,
// escaped, in front of the summary).
func sampleArtifact(degraded bool) []byte {
	var text string
	for _, s := range hostileStrings {
		text += s + "\n"
	}
	art := server.ArtifactJSON{Asm: text, Placed: text + `\`, Verilog: text + `"`, LUTs: 3, DSPs: 1,
		CriticalNs: 1.5, FMaxMHz: 666.7, Degraded: degraded}
	if degraded {
		art.DegradedReason = `solver "budget" \ ,"luts":`
	}
	wire, _ := json.Marshal(art)
	return wire
}

// TestAppendJSONMatchesMarshal: over every combination of hostile envelope
// strings, empty fields (each omitempty on and off) and a present or absent
// artifact, AppendJSON is byte-identical to json.Marshal of the struct it
// mirrors — the form whose artifact encoding/json would re-scan.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	type compileMirror struct {
		Name     string          `json:"name"`
		Family   string          `json:"family"`
		Cache    string          `json:"cache"`
		Key      string          `json:"key"`
		Artifact json.RawMessage `json:"artifact"`
	}
	type batchMirror struct {
		Name      string          `json:"name"`
		OK        bool            `json:"ok"`
		Cache     string          `json:"cache,omitempty"`
		Error     string          `json:"error,omitempty"`
		ErrorCode string          `json:"error_code,omitempty"`
		Artifact  json.RawMessage `json:"artifact,omitempty"`
	}
	check := func(got []byte, mirror any) {
		t.Helper()
		want, err := json.Marshal(mirror)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON\n %s\njson.Marshal\n %s", got, want)
		}
	}
	hs := hostileStrings
	prefix := []byte("kept")
	for _, artifact := range [][]byte{nil, sampleArtifact(false), sampleArtifact(true)} {
		for i := 0; i < len(hs)*len(hs); i++ {
			// Two independent walks over the set cover every pair of
			// neighbouring fields; the other two ride along shifted.
			a, b := hs[i%len(hs)], hs[i/len(hs)]
			c, d := hs[(i+5)%len(hs)], hs[(i/len(hs)+7)%len(hs)]
			got := server.CompileResponseWire{Name: a, Family: b, Cache: c, Key: d, Artifact: artifact}.AppendJSON(prefix)
			if !bytes.HasPrefix(got, prefix) {
				t.Fatalf("AppendJSON dropped what dst held: %q", got[:8])
			}
			check(got[len(prefix):], compileMirror{a, b, c, d, artifact})
			for _, ok := range []bool{false, true} {
				got := server.BatchKernelResultWire{Name: a, OK: ok, Cache: b, Error: c, ErrorCode: d, Artifact: artifact}.AppendJSON(nil)
				check(got, batchMirror{a, ok, b, c, d, artifact})
			}
		}
	}
}

// compileBody is one real /compile response body.
func compileBody(t testing.TB, s *server.Server, req server.CompileRequest) []byte {
	t.Helper()
	w := postBody(t, s, "/compile", req, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("compile: status %d: %s", w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// FuzzParseCompileFrame: the splitter the router reads backend bodies with
// never panics or slices out of range, refuses nothing a full decode
// accepts, and on every body both accept agrees with json.Unmarshal on the
// name, family, cache mark, key, artifact and its degraded mark.
func FuzzParseCompileFrame(f *testing.F) {
	s := newTestServer(f, reticle.ServerOptions{})
	for _, name := range hostileStrings {
		miss := compileBody(f, s, server.CompileRequest{Name: name, IR: maccSrc})
		f.Add(miss)
		f.Add(compileBody(f, s, server.CompileRequest{Name: name, IR: maccSrc})) // the hit
		f.Add(miss[:len(miss)/2])
	}
	for _, degraded := range []bool{false, true} {
		art := sampleArtifact(degraded)
		frame := server.CompileResponseWire{Name: "n", Family: "f", Cache: "hit", Key: "k", Artifact: art}.AppendJSON(nil)
		f.Add(frame)
		// Bodies a full decode reads differently from a naive split: a
		// later duplicate key, a nested object ending like an artifact,
		// other spacing, another field order, a cache mark with an escape.
		f.Add(append(frame[:len(frame)-1:len(frame)-1], `,"cache":"miss"}`...))
		f.Add(append(frame[:len(frame)-1:len(frame)-1], `,"cache":"miss","x":{"asm":"","placed":"","verilog":"","luts":9,"degraded":true}}`...))
		f.Add([]byte(`{ "artifact": ` + string(art) + `, "cache": "miss" }`))
		f.Add([]byte(`{"name":"n","family":"f","cache":"hit","key":"k","artifact":` + string(art) + `}`))
		f.Add([]byte(`{"name":"n","family":"f","cache":"` + "\xff" + `","key":"k","artifact":` + string(art) + `}`))
		f.Add([]byte(`{"name":"n","family":"f","cache":"h\u0069t","key":"k","artifact":` + string(art) + `}`))
	}
	f.Add([]byte(`{"name":"n","family":"f","cache":"hit","key":"k","artifact":null}`))
	f.Add([]byte(`{"name":"n","family":"f","cache":"hit","key":"k","artifact":}`))
	f.Add([]byte(`{"name":"`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		frame, degraded, ok := server.ParseCompileFrame(body)
		artifact := frame.Artifact
		var want server.CompileResponse
		if err := json.Unmarshal(body, &want); err != nil {
			return // the splitter may be laxer about bytes it never reads
		}
		if !ok {
			t.Fatalf("refused a body the full decode accepts: %q", body)
		}
		var got server.ArtifactJSON
		if err := json.Unmarshal(artifact, &got); err != nil {
			t.Fatalf("artifact slice is not an artifact: %v: %q", err, artifact)
		}
		if frame.Name != want.Name || frame.Family != want.Family || frame.Cache != want.Cache || frame.Key != want.Key ||
			got != want.Artifact {
			t.Fatalf("split disagrees with the full decode\n body %q\n name %q family %q cache %q key %q\n   vs %q %q %q %q\n artifact %+v\n      vs  %+v",
				body, frame.Name, frame.Family, frame.Cache, frame.Key, want.Name, want.Family, want.Cache, want.Key, got, want.Artifact)
		}
		if degraded != want.Artifact.Degraded {
			t.Fatalf("degraded mark read as %v, want %v: %q", degraded, want.Artifact.Degraded, artifact)
		}
	})
}

// discardWriter is a ResponseWriter that keeps nothing, so a measurement
// through it sees the handler's allocations and not a recorder's.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestCompileHitAllocatesNoArtifact: a /compile hit allocates less than half
// an artifact's worth of bytes all told — request decode included — so the
// artifact itself is neither re-encoded nor copied into fresh memory.
func TestCompileHitAllocatesNoArtifact(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	// Wide LUT logic renders to about a hundred times its source, so what
	// the request itself costs to decode cannot hide an artifact.
	req := server.CompileRequest{IR: `
def wide(a:i32, b:i32) -> (y:i32) {
    t0:i32 = xor(a, b) @lut;
    t1:i32 = xor(t0, b) @lut;
    t2:i32 = xor(t1, b) @lut;
    y:i32 = and(t2, b) @lut;
}`}
	body, _ := json.Marshal(req)
	prime := compileBody(t, s, req)
	frame, _, ok := server.ParseCompileFrame(prime)
	artifact := frame.Artifact
	if !ok {
		t.Fatalf("prime: not a compile frame: %s", prime)
	}

	const runs = 200
	reqs := make([]*http.Request, runs)
	for i := range reqs {
		reqs[i], _ = http.NewRequest("POST", "/compile", bytes.NewReader(body))
	}
	w := &discardWriter{h: http.Header{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		s.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)

	if w.code != http.StatusOK || w.n != runs*(len(prime)-len("miss")+len("hit")) {
		t.Fatalf("hits wrote status %d, %d bytes; want 200 and %d × the primed body", w.code, w.n, runs)
	}
	perHit := (after.TotalAlloc - before.TotalAlloc) / runs
	if perHit >= uint64(len(artifact))/2 {
		t.Fatalf("a hit allocates %d B for a %d B artifact (request body %d B): the artifact is being copied or re-encoded",
			perHit, len(artifact), len(body))
	}
	t.Logf("hit: %d B allocated per request, artifact %d B, request body %d B", perHit, len(artifact), len(body))
}
