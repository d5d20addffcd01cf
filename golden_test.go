package reticle

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden Verilog files under testdata/golden and the generated sections of EXPERIMENTS.md")

// Update hands the flag to experiments_test.go, which lives in package
// reticle_test because internal/eval imports this package.
var Update = update

// TestGoldenVerilog pins the structural Verilog of the bundled example
// programs on the default (ultrascale/xczu3eg) pipeline. Any codegen,
// selection, or placement drift shows up as a reviewable diff; regenerate
// intentionally with:
//
//	go test -run TestGoldenVerilog -update .
func TestGoldenVerilog(t *testing.T) {
	c, err := NewCompiler()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"counter", "fig6", "macc", "vadd8"} {
		name := name
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("examples", "programs", name+".ret"))
			if err != nil {
				t.Fatal(err)
			}
			art, err := c.CompileString(string(src))
			if err != nil {
				t.Fatal(err)
			}
			got := art.Verilog
			path := filepath.Join("testdata", "golden", name+".v")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("generated Verilog drifted from %s (run with -update if intended)\ngot:\n%s",
					path, got)
			}
		})
	}
}
