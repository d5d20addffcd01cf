package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"reticle/internal/cache"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/target/ultrascale"
)

// TestTextMemoDoesNotRetainBody: a parsed kernel name is a substring of
// the decoded IR, so a /compile memo entry holding it uncloned keeps the
// whole request's IR alive for as long as the entry lives. Each body here
// carries a quarter MiB of padding; once they are answered and dropped,
// the memo entries must hold their names and not the padding.
func TestTextMemoDoesNotRetainBody(t *testing.T) {
	target := ultrascale.Target()
	lib, err := isel.NewLibrary(target)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{}, map[string]*pipeline.Config{
		"ultrascale": {Target: target, Device: ultrascale.Device(), Lib: lib, Cascades: ultrascale.Cascades()},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n, pad = 8, 256 << 10
	compile := func(i int) cache.Key {
		src := fmt.Sprintf("def macc%d(a:i8, b:i8, c:i8) -> (y:i8) {\n    t0:i8 = mul(a, b) @??;\n    y:i8 = add(t0, c) @??;\n}%s",
			i, strings.Repeat(" ", pad))
		body, err := json.Marshal(CompileRequest{IR: src})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/compile", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("kernel %d: status %d: %s", i, w.Code, w.Body.String())
		}
		return textKey(body)
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the body pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	compile(n) // warm the pipeline's lazily built state outside the measurement
	before := live()
	keys := make([]cache.Key, n)
	for i := range keys {
		keys[i] = compile(i)
	}
	after := live()
	for i, k := range keys {
		if te, ok := s.res.(*backend).texts.Peek(k); !ok || te.name != fmt.Sprintf("macc%d", i) {
			t.Fatalf("kernel %d: memo entry %+v, %v", i, te, ok)
		}
	}
	if grown, bound := int64(after)-int64(before), int64(n*pad/2); grown > bound {
		t.Errorf("live heap grew %d bytes over %d answered bodies of %d bytes, want at most %d: the memo keeps the decoded IR",
			grown, n, pad, bound)
	}
}
