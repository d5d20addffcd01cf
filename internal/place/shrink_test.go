package place

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/ir"
)

// chainProg builds a program of `chains` independent cascade-style DSP
// macro chains, each `length` rows tall (shared x/y variables, rows
// y..y+length-1).
func chainProg(chains, length int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "def f(a:i8, b:i8, in:i8) -> (t%d_%d:i8) {\n", chains-1, length-1)
	for c := 0; c < chains; c++ {
		prev := "in"
		for i := 0; i < length; i++ {
			dest := fmt.Sprintf("t%d_%d", c, i)
			fmt.Fprintf(&b, "%s:i8 = muladd(a, b, %s) @dsp(x%d, y%d+%d);\n", dest, prev, c, c, i)
			prev = dest
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func placeOn(t *testing.T, d *device.Device, src string, opts Options) *Result {
	t.Helper()
	f, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlaceContext(context.Background(), f, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(f, res.Fn, d); err != nil {
		t.Fatalf("satcheck: %v", err)
	}
	return res
}

// TestShrinkProbeCountDrops is the probe-count regression test for the
// warm-started shrink loop: four 3-row chains on a 2-column, 12-row DSP
// fabric. The initial low-first solve stacks all four chains in column 0
// (rows 0-11); the packing floor (strip bound: ceil(4/2) stacked 3-row
// strips = 6 rows) is probed first and one warm-started solve settles
// the rows axis, where the old loop binary-searched mid-bounds and paid
// a full solve per probe.
func TestShrinkProbeCountDrops(t *testing.T) {
	d, err := device.Standard("tdsp2x12", 2, 2, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	res := placeOn(t, d, chainProg(4, 3), Options{Shrink: true})
	maxX, maxY := extent(res.Fn, ir.ResDsp)
	if maxY != 5 {
		t.Errorf("rows extent = %d, want 5 (optimal: two 3-row chains per column)", maxY)
	}
	if maxX != 1 {
		t.Errorf("cols extent = %d, want 1", maxX)
	}
	// Floor-first probing plus usedExtent clamping: the rows axis takes
	// exactly one solver probe, the cols axis none (its floor equals the
	// used extent). The old loop ran >= 3 probes here.
	if res.ShrinkIters > 2 {
		t.Errorf("ShrinkIters = %d, want <= 2 (floor-first probe should settle each axis)", res.ShrinkIters)
	}
	if res.ShrinkIters == 0 {
		t.Errorf("ShrinkIters = 0, want at least the rows probe to run the solver")
	}
	if res.SolverSteps > 100 {
		t.Errorf("SolverSteps = %d, want a handful (initial solve + one warm probe)", res.SolverSteps)
	}
	// Warm start: the probe re-solves all four chains with their previous
	// anchors as hints; the two chains already below the bound keep them.
	if res.HintTried != 4 {
		t.Errorf("HintTried = %d, want 4", res.HintTried)
	}
	if res.HintHits < 1 {
		t.Errorf("HintHits = %d, want >= 1", res.HintHits)
	}
}

// TestShrinkRevalidateSkipsProbes drives the revalidate fast path: four
// 3-row chains on an 8-row fabric force the initial solve to spread two
// chains per column (rows 0-5), so the layout already sits at the
// packing floor and every probe is answered by revalidation alone.
func TestShrinkRevalidateSkipsProbes(t *testing.T) {
	res := placeOn(t, dev4(t), chainProg(4, 3), Options{Shrink: true})
	if _, maxY := extent(res.Fn, ir.ResDsp); maxY != 5 {
		t.Errorf("rows extent = %d, want 5", maxY)
	}
	if res.ShrinkIters != 0 {
		t.Errorf("ShrinkIters = %d, want 0 (all probes revalidated)", res.ShrinkIters)
	}
	if res.ProbesSkipped < 1 {
		t.Errorf("ProbesSkipped = %d, want >= 1", res.ProbesSkipped)
	}
}

// TestRevalidateAgreesWithOracle checks the fast path against the
// satcheck oracle: any bounds revalidate accepts must also pass Verify
// after write-back, and bounds tighter than the layout must be rejected.
func TestRevalidateAgreesWithOracle(t *testing.T) {
	d := dev4(t)
	f, err := asm.Parse(chainProg(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := buildClusters(f)
	if err != nil {
		t.Fatal(err)
	}
	full := map[ir.Resource][2]int{
		ir.ResLut: {d.NumCols(ir.ResLut), d.Height},
		ir.ResDsp: {d.NumCols(ir.ResDsp), d.Height},
	}
	sol, _, err := solve(clusters, d, full, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !revalidate(clusters, d, sol, full) {
		t.Fatal("revalidate rejects the bounds the solution was solved under")
	}
	res := writeBack(f, d, clusters, sol)
	if err := Verify(f, res.Fn, d); err != nil {
		t.Fatalf("oracle rejects a revalidated layout: %v", err)
	}
	// Tighten the rows bound below the used extent: revalidate must say no.
	tight := cloneBounds(full)
	b := tight[ir.ResDsp]
	_, maxY := extent(res.Fn, ir.ResDsp)
	b[1] = maxY // one row short of extent+1
	tight[ir.ResDsp] = b
	if revalidate(clusters, d, sol, tight) {
		t.Errorf("revalidate accepts rows bound %d with extent %d", b[1], maxY)
	}
}

// TestShrinkFloorSound checks the packing floor never exceeds the bound
// the shrink pass actually achieves (it must be a relaxation).
func TestShrinkFloorSound(t *testing.T) {
	for _, tc := range []struct{ chains, length int }{{1, 3}, {2, 3}, {3, 2}, {4, 3}} {
		d := dev4(t)
		f, err := asm.Parse(chainProg(tc.chains, tc.length))
		if err != nil {
			t.Fatal(err)
		}
		clusters, err := buildClusters(f)
		if err != nil {
			t.Fatal(err)
		}
		full := map[ir.Resource][2]int{
			ir.ResLut: {d.NumCols(ir.ResLut), d.Height},
			ir.ResDsp: {d.NumCols(ir.ResDsp), d.Height},
		}
		res := placeOn(t, d, chainProg(tc.chains, tc.length), Options{Shrink: true})
		maxX, maxY := extent(res.Fn, ir.ResDsp)
		for _, axis := range []int{1, 0} {
			floor := shrinkFloor(clusters, d, full, ir.ResDsp, axis)
			got := maxY + 1
			if axis == 0 {
				got = maxX + 1
			}
			if floor > got {
				t.Errorf("%d chains of %d, axis %d: floor %d exceeds achieved bound %d",
					tc.chains, tc.length, axis, floor, got)
			}
		}
	}
}

// TestShrinkDeterministicWithWarmStart re-runs a shrink placement that
// exercises probes, revalidation, and hints; outputs must be identical.
func TestShrinkDeterministicWithWarmStart(t *testing.T) {
	d, err := device.Standard("tdsp2x12", 2, 2, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := placeOn(t, d, chainProg(4, 3), Options{Shrink: true})
	b := placeOn(t, d, chainProg(4, 3), Options{Shrink: true})
	if a.Fn.String() != b.Fn.String() {
		t.Errorf("placements differ:\n%s\nvs\n%s", a.Fn, b.Fn)
	}
	if a.SolverSteps != b.SolverSteps || a.ShrinkIters != b.ShrinkIters ||
		a.ProbesSkipped != b.ProbesSkipped || a.HintHits != b.HintHits {
		t.Errorf("counters differ: %+v vs %+v", a, b)
	}
}
