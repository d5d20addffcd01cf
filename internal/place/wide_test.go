package place

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/bench"
	"reticle/internal/device"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
)

var update = flag.Bool("update", false, "rewrite testdata/wide.golden")

// wideDevices are the two bundled parts the wide placement is pinned on.
func wideDevices() []*device.Device {
	return []*device.Device{ultrascale.Device(), agilex.Device()}
}

func wideFunc(t testing.TB) *asm.Func {
	t.Helper()
	f, err := asm.Parse(bench.WidePlacement())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWidePlacementGolden pins the 320-singleton + 4-macro placement on
// both bundled devices to the slots and step count recorded before anchor
// domains were shared between clusters of one shape: sharing must change
// what a solve costs, never what it finds.
func TestWidePlacementGolden(t *testing.T) {
	f := wideFunc(t)
	var b strings.Builder
	for _, d := range wideDevices() {
		res, err := Place(f, d, Options{Shrink: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(f, res.Fn, d); err != nil {
			t.Fatalf("%s: satcheck: %v", d.Name, err)
		}
		fmt.Fprintf(&b, "%s steps=%d probes=%d skipped=%d hints=%d/%d\n",
			d.Name, res.SolverSteps, res.ShrinkIters, res.ProbesSkipped, res.HintHits, res.HintTried)
		for _, in := range res.Fn.Body {
			fmt.Fprintf(&b, "  %s %s\n", in.Dest, in.Loc)
		}
	}
	path := filepath.Join("testdata", "wide.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("placement drifted from %s, %s", path, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line on which two golden texts part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestWidePlacementAllocs bounds what one wide placement (a full solve
// plus nine shrink probes) allocates. With one shared candidate set per
// cluster shape it measures ~5.9 MB in ~16k allocations on either device;
// with a candidate set per cluster it was 490-530 MB in 80-85k. The bounds
// sit ~3.5x over the new figures, so the byte bound is still 24x under the
// old cost: a per-cluster domain cannot come back unnoticed.
func TestWidePlacementAllocs(t *testing.T) {
	const maxBytes, maxAllocs = 20 << 20, 64_000
	f := wideFunc(t)
	for _, d := range wideDevices() {
		place := func() {
			if _, err := Place(f, d, Options{Shrink: true}); err != nil {
				t.Fatal(err)
			}
		}
		place() // warm: lazily built device and runtime state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		place()
		runtime.ReadMemStats(&after)
		bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s: %d B, %d allocs per placement", d.Name, bytes, allocs)
		if bytes > maxBytes {
			t.Errorf("%s: placement allocated %d B, want <= %d", d.Name, bytes, maxBytes)
		}
		if allocs > maxAllocs {
			t.Errorf("%s: placement made %d allocations, want <= %d", d.Name, allocs, maxAllocs)
		}
	}
}
