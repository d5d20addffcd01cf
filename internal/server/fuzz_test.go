package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reticle"
	"reticle/internal/server"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
)

// FuzzCompileHandler throws arbitrary bytes at POST /compile: whatever
// arrives — broken JSON, IR-shaped garbage, assembly or TDL text in the
// ir field, huge bodies — the handler must answer with a JSON document
// and a sane status code, never panic, and never hang (the server
// deadline bounds every compile).
//
// Seeds cover the existing fuzz corpora shapes: IR parser seeds, asm
// opcode spellings for both families, and both bundled TDL sources, all
// wrapped as request JSON, plus raw non-JSON noise.
func FuzzCompileHandler(f *testing.F) {
	// IR-shaped seeds (from the ir fuzz corpus).
	irSeeds := []string{
		`def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }`,
		`def v(a:i8<4>) -> (y:i8) { y:i8 = slice[2](a); }`,
		`def r(a:i8, en:bool) -> (y:i8) { y:i8 = reg[-3](a, en) @lut; }`,
		`def broken(`,
		`def f() -> () {}`,
		"def \x00 bogus",
		`def f(a:i8) -> (y:i8) { y:i8 = sll[99](a); }`,
	}
	for _, src := range irSeeds {
		for _, fam := range []string{"", "ultrascale", "agilex", "ice40"} {
			body, _ := json.Marshal(server.CompileRequest{IR: src, Family: fam})
			f.Add(body)
		}
	}
	// Assembly-shaped seeds (asm fuzz corpus opcodes, both families):
	// parse as IR must fail cleanly, not crash.
	asmSeeds := []string{
		`def f(a:i8, b:i8) -> (y:i8) { y:i8 = lut_add(a, b) @lut(0, 0); }`,
		`def f(a:i8, b:i8, c:i8) -> (y:i8) { y:i8 = dsp_muladd(a, b, c) @dsp(??, ??); }`,
		`def f(a:i8, b:i8, c:i8) -> (y:i8) { y:i8 = alm_add(a, b) @alm(1, 2); }`,
	}
	for _, src := range asmSeeds {
		body, _ := json.Marshal(server.CompileRequest{IR: src})
		f.Add(body)
	}
	// TDL sources for both families in the ir field.
	for _, src := range []string{ultrascale.Source(), agilex.Source()} {
		body, _ := json.Marshal(server.CompileRequest{IR: src})
		f.Add(body)
	}
	// Structurally hostile bodies.
	f.Add([]byte(`{"ir": `))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"ir": 42}`))
	f.Add([]byte(`{"ir": "x", "timeout_ms": -9}`))
	// A failing body whose kernel is resident (the first IR seed compiled
	// it): were it memoized, its repeat would be a 200.
	bad, _ := json.Marshal(server.CompileRequest{IR: irSeeds[0], TimeoutMS: -9})
	f.Add(bad)
	f.Add([]byte(`{"ir": "x", "unknown": {"deep": [1,2,3]}}`))
	f.Add([]byte(strings.Repeat(`{"ir":"`, 512)))

	s, err := reticle.NewServer(reticle.ServerOptions{DefaultTimeout: 5 * time.Second})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		send := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest("POST", "/compile", bytes.NewReader(body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req) // must not panic or hang
			return w
		}
		w := send()
		if w.Code < 200 || w.Code > 599 {
			t.Fatalf("status %d out of range", w.Code)
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("non-JSON response (status %d): %q", w.Code, w.Body.String())
		}
		var resp server.CompileResponse
		if w.Code != http.StatusOK {
			var er server.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("status %d without a structured error: %q", w.Code, w.Body.String())
			}
		} else if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 that is not a compile response: %v", err)
		}

		// The same body again answers the same: a body that failed was not
		// memoized, and a memo hit serves what the slow path served. Only
		// a degraded artifact, stored nowhere, is compiled afresh.
		again := send()
		if again.Code != w.Code {
			t.Fatalf("repeat: status %d, first %d: %s", again.Code, w.Code, again.Body.String())
		}
		want := bytes.Replace(w.Body.Bytes(), []byte(`"cache":"miss"`), []byte(`"cache":"hit"`), 1)
		if !resp.Artifact.Degraded && !bytes.Equal(again.Body.Bytes(), w.Body.Bytes()) && !bytes.Equal(again.Body.Bytes(), want) {
			t.Fatalf("repeat answered other bytes:\n%s\nfirst\n%s", again.Body.String(), w.Body.String())
		}
	})
}
