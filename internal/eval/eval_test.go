package eval

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/bench"
	"reticle/internal/ir"
	"reticle/internal/vivado"
)

// fastCfg shortens the baseline annealing schedule so the shape tests run
// quickly; compile-time ratios are exercised by the real benchmarks.
func fastCfg() Config {
	return Config{Anneal: vivado.AnnealOptions{Seed: 1, MovesPerCell: 20, MinMoves: 2000}}
}

// TestFigure4Shape checks the paper's Figure 4 findings:
//   - the behavioral program saturates the device's 360 DSPs by N=512 and
//     spills the rest onto LUTs;
//   - the hand-optimized structural program needs only N/4 DSPs and no
//     LUTs, never exhausting the device.
func TestFigure4Shape(t *testing.T) {
	rows, err := Figure4(Figure4Sizes, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	byN := map[int]Fig4Row{}
	for _, r := range rows {
		byN[r.N] = r
	}
	if r := byN[512]; r.BehavDsps != 360 {
		t.Errorf("N=512: behavioral DSPs = %d, want saturation at 360", r.BehavDsps)
	}
	if r := byN[1024]; r.BehavDsps != 360 || r.BehavLuts < 3000 {
		t.Errorf("N=1024: behavioral = %d DSPs, %d LUTs; want 360 and a LUT explosion",
			r.BehavDsps, r.BehavLuts)
	}
	for _, n := range Figure4Sizes {
		r := byN[n]
		if r.StructDsps != n/4 {
			t.Errorf("N=%d: structural DSPs = %d, want %d", n, r.StructDsps, n/4)
		}
		if r.StructLuts != 0 {
			t.Errorf("N=%d: structural LUTs = %d, want 0", n, r.StructLuts)
		}
		if n < 512 && r.BehavDsps != n {
			t.Errorf("N=%d: behavioral DSPs = %d, want %d (scalar)", n, r.BehavDsps, n)
		}
	}
}

// TestTensorAddShape checks the §7.2 tensoradd findings at the small and
// large ends.
func TestTensorAddShape(t *testing.T) {
	rows, err := Figure13("tensoradd", []int{64, 512}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	get := func(size, lang string) Row {
		for _, r := range rows {
			if r.Size == size && r.Lang == lang {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", size, lang)
		return Row{}
	}

	// Reticle uses vectorized DSPs: N/4 of them, zero LUTs.
	if r := get("64", "reticle"); r.Dsps != 16 || r.Luts != 0 {
		t.Errorf("reticle@64: %d DSPs, %d LUTs", r.Dsps, r.Luts)
	}
	if r := get("512", "reticle"); r.Dsps != 128 {
		t.Errorf("reticle@512: %d DSPs, want 128", r.Dsps)
	}
	// Base never uses DSPs for adds; Reticle beats it on run-time.
	if r := get("64", "base"); r.Dsps != 0 {
		t.Errorf("base@64 used %d DSPs", r.Dsps)
	}
	if base, ret := get("64", "base"), get("64", "reticle"); base.RunNs <= ret.RunNs {
		t.Errorf("base (%.3f ns) should be slower than reticle (%.3f ns)",
			base.RunNs, ret.RunNs)
	}
	// Hint at 64: scalar DSPs, one per element — can be slightly faster
	// than the vectorized Reticle version (§7.2).
	if r := get("64", "hint"); r.Dsps != 64 {
		t.Errorf("hint@64: %d DSPs, want 64 scalar", r.Dsps)
	}
	if hint, ret := get("64", "hint"), get("64", "reticle"); hint.RunNs > ret.RunNs*1.2 {
		t.Errorf("hint@64 (%.3f ns) should be comparable or better than reticle (%.3f ns)",
			hint.RunNs, ret.RunNs)
	}
	// Hint at 512: DSPs exhausted, silent LUT fallback, Reticle much
	// faster ("nearly 3x").
	h512, r512 := get("512", "hint"), get("512", "reticle")
	if h512.Dsps != 360 || h512.Luts == 0 {
		t.Errorf("hint@512: %d DSPs, %d LUTs; want saturation + fallback", h512.Dsps, h512.Luts)
	}
	if h512.RunNs < r512.RunNs*1.5 {
		t.Errorf("hint@512 (%.3f ns) should be well behind reticle (%.3f ns)",
			h512.RunNs, r512.RunNs)
	}
}

// TestTensorDotShape: with hints the baseline also cascades, reaching
// rough run-time parity with Reticle; without hints it trails.
func TestTensorDotShape(t *testing.T) {
	rows, err := Figure13("tensordot", []int{9}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	var base, hint, ret Row
	for _, r := range rows {
		switch r.Lang {
		case "base":
			base = r
		case "hint":
			hint = r
		case "reticle":
			ret = r
		}
	}
	if ret.Dsps != 45 { // 5 arrays x 9 registered muladds
		t.Errorf("reticle DSPs = %d, want 45", ret.Dsps)
	}
	if hint.Dsps != 45 {
		t.Errorf("hint DSPs = %d, want 45 fused", hint.Dsps)
	}
	ratioHint := hint.RunNs / ret.RunNs
	if ratioHint < 0.7 || ratioHint > 1.4 {
		t.Errorf("hint/reticle run ratio = %.2f, want rough parity", ratioHint)
	}
	if base.RunNs <= ret.RunNs {
		t.Errorf("base (%.3f) should trail reticle (%.3f)", base.RunNs, ret.RunNs)
	}
}

// TestFSMShape: control logic maps to LUTs only, and the baseline's logic
// optimization beats Reticle's per-op mapping on run-time (§7.2).
func TestFSMShape(t *testing.T) {
	rows, err := Figure13("fsm", []int{5}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	var base, ret Row
	for _, r := range rows {
		if r.Dsps != 0 {
			t.Errorf("%s used %d DSPs on fsm", r.Lang, r.Dsps)
		}
		switch r.Lang {
		case "base":
			base = r
		case "reticle":
			ret = r
		}
	}
	if base.RunNs >= ret.RunNs {
		t.Errorf("baseline logic synthesis (%.3f ns) should beat reticle (%.3f ns) on fsm",
			base.RunNs, ret.RunNs)
	}
	if base.Luts >= ret.Luts {
		t.Errorf("baseline LUTs (%d) should undercut reticle (%d) on fsm", base.Luts, ret.Luts)
	}
}

func TestCompileSpeedupDirection(t *testing.T) {
	// Even with a shortened schedule the baseline should not be faster to
	// compile than Reticle on a mid-sized workload.
	rows, err := Figure13("tensoradd", []int{128}, Config{
		Anneal: vivado.AnnealOptions{Seed: 1, MovesPerCell: 200, MinMoves: 50_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := Summarize(rows)
	if len(sp) != 1 {
		t.Fatalf("speedups = %v", sp)
	}
	if sp[0].CompileVsBase <= 1 || sp[0].CompileVsHint <= 1 {
		t.Errorf("compile speedups = %.2f / %.2f, want > 1",
			sp[0].CompileVsBase, sp[0].CompileVsHint)
	}
}

func TestProgramDispatch(t *testing.T) {
	for _, b := range []string{"tensoradd", "tensordot", "fsm", "dspadd"} {
		size := 8
		if b == "fsm" {
			size = 3
		}
		f, err := Program(b, size)
		if err != nil {
			t.Errorf("%s: %v", b, err)
			continue
		}
		if _, _, err := ir.CheckWellFormed(f); err != nil {
			t.Errorf("%s ill-formed", b)
		}
	}
	if _, err := Program("nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestFormatters pins the one table writer: the Markdown of a table, the
// markers around a section, and which tables a figure selection yields.
func TestFormatters(t *testing.T) {
	tb := Table{Title: "T", Head: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"3", "4"}}}
	if got, want := tb.String(), "T:\n\n| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n"; got != want {
		t.Errorf("table:\n%s\nwant:\n%s", got, want)
	}
	secs, err := Sections("all", "fsm", fastCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 2 || secs[0].Args != "-fig 4" || secs[1].Args != "-fig 13 -bench fsm" {
		t.Fatalf("sections = %+v", secs)
	}
	out := secs[1].String()
	if !strings.HasPrefix(out, "<!-- generated by: go run ./cmd/reticle-bench -fig 13 -bench fsm -->\n") ||
		!strings.HasSuffix(out, End) {
		t.Errorf("section markers:\n%s", out)
	}
	shape, timed := secs[1].Tables[0], secs[1].Tables[1]
	if shape.Timed || !timed.Timed || len(shape.Rows) != len(Panels[2].Sizes) || len(timed.Rows) != len(Panels[2].Sizes) {
		t.Errorf("fsm tables = %+v", secs[1].Tables)
	}
	if !strings.Contains(timed.Title, "median of 3 runs") || !strings.Contains(timed.Rows[0][1], "–") {
		t.Errorf("timed table carries no median and range: %+v", timed)
	}
	if !strings.Contains(secs[0].String(), "| 1024 | 360 | 5312 | 256 | 0 |") {
		t.Errorf("fig 4 section:\n%s", secs[0])
	}
	for _, bad := range [][2]string{{"13a", ""}, {"13", "nope"}} {
		if _, err := Sections(bad[0], bad[1], fastCfg(), 1); err == nil {
			t.Errorf("Sections(%q, %q) accepted", bad[0], bad[1])
		}
	}
}

func TestSizeLabel(t *testing.T) {
	if SizeLabel("tensordot", 9) != "5x9" || SizeLabel("fsm", 3) != "3" {
		t.Error("labels wrong")
	}
}

// TestEvalRowsComeFromPipeline: every Reticle number the figures publish
// is read off an artifact of the compiler the repo serves, and neither
// this package nor any command re-sequences the stages by hand.
func TestEvalRowsComeFromPipeline(t *testing.T) {
	c, err := reticle.NewCompiler()
	if err != nil {
		t.Fatal(err)
	}
	compile := func(name string, f *ir.Func, luts, dsps int) *reticle.Artifact {
		t.Helper()
		art, err := c.Compile(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if luts != art.LUTs || dsps != art.DSPs {
			t.Errorf("%s: row %d LUTs %d DSPs, artifact %d %d", name, luts, dsps, art.LUTs, art.DSPs)
		}
		return art
	}
	for _, p := range Panels {
		rows, err := Figure13(p.Name, p.Sizes, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		for i, sp := range Summarize(rows) {
			f, err := Program(p.Name, p.Sizes[i])
			if err != nil {
				t.Fatal(err)
			}
			if art := compile(p.Name+" "+sp.Size, f, sp.Reticle.Luts, sp.Reticle.Dsps); art.CriticalNs != sp.Reticle.RunNs {
				t.Errorf("%s %s: row runs in %.3f ns, artifact in %.3f", p.Name, sp.Size, sp.Reticle.RunNs, art.CriticalNs)
			}
		}
	}
	f4, err := Figure4(Figure4Sizes, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f4 {
		f, err := bench.DspAddVectorized(r.N)
		if err != nil {
			t.Fatal(err)
		}
		compile(fmt.Sprintf("dspadd %d", r.N), f, r.StructLuts, r.StructDsps)
	}

	stage := regexp.MustCompile(`isel\.Select|cascade\.Apply|place\.Place|codegen\.Generate|timing\.Analyze|reticle/internal/(isel|cascade|place|codegen)"`)
	for _, root := range []string{".", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if m := stage.Find(src); m != nil {
				t.Errorf("%s sequences the pipeline by hand: %s", path, m)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
