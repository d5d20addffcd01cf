package server_test

import (
	"strings"
	"testing"

	"reticle/internal/server"
)

// TestMemoKeySeparatesFamilyFromText: the kernel memo's key tells a
// family from the text after it — moving bytes across the boundary moves
// the key — and a lookup allocates the key alone, never a copy of the IR.
func TestMemoKeySeparatesFamilyFromText(t *testing.T) {
	if server.MemoKey("ab", "c") == server.MemoKey("a", "bc") || server.MemoKey("", "x") == server.MemoKey("x", "") {
		t.Fatal("two (family, text) pairs with the same concatenation share a key")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := strings.Repeat("t0:i8 = add(a, b) @??;\n", 400)
	server.MemoKey("ultrascale", src)
	if n := testing.AllocsPerRun(100, func() { server.MemoKey("ultrascale", src) }); n > 1 {
		t.Errorf("a memo key costs %v allocations for a %d-byte text, want the key's one", n, len(src))
	}
}
