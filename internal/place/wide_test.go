package place

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"reticle/internal/asm"
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
	f, err := asm.Parse(widePlacement())
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
		res, err := PlaceContext(context.Background(), f, d, Options{Shrink: true})
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
			if _, err := PlaceContext(context.Background(), f, d, Options{Shrink: true}); err != nil {
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

// widePlacement is the assembly text of a placement-only stress shaped
// like a large LUT-class kernel: 320 independent LUT instructions (eight
// of them pinned to a column or a row, so they carry their own anchor
// domains), two 3-row LUT macros and two 4-row DSP chains. It is already
// selected — callers parse it with asm.Parse and hand it to PlaceContext —
// so what it measures is the placer: one domain per LUT singleton used to
// mean ~320 copies of every LUT slice id on the device.
func widePlacement() string {
	var b strings.Builder
	b.WriteString("def wide(a:i8, b:i8) -> (s319:i8) {\n")
	for i := 0; i < 320; i++ {
		loc := "??, ??"
		switch i % 80 {
		case 20:
			loc = "2, ??"
		case 60:
			loc = "??, 5"
		}
		fmt.Fprintf(&b, "    s%d:i8 = lutadd(a, b) @lut(%s);\n", i, loc)
	}
	for m := 0; m < 2; m++ {
		for r := 0; r < 3; r++ {
			fmt.Fprintf(&b, "    l%d_%d:i8 = lutadd(a, b) @lut(lx%d, ly%d+%d);\n", m, r, m, m, r)
		}
	}
	for m := 0; m < 2; m++ {
		prev := "a"
		for r := 0; r < 4; r++ {
			dest := fmt.Sprintf("d%d_%d", m, r)
			fmt.Fprintf(&b, "    %s:i8 = muladd(a, b, %s) @dsp(dx%d, dy%d+%d);\n", dest, prev, m, m, r)
			prev = dest
		}
	}
	b.WriteString("}\n")
	return b.String()
}
