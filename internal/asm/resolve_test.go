package asm_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/bench"
	"reticle/internal/cascade"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/target"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
)

// TestResolveNamesEveryValue checks the symbol table Resolve returns at
// the outputs of selection, cascading and placement, over the bundled
// programs, a cascading tensordot and irgen seeds on both families: every
// argument and output port resolves to the value whose destination or
// input name is its text. One Resolver reused across all of them must
// return the same tables as a fresh Resolve each time.
func TestResolveNamesEveryValue(t *testing.T) {
	var fns []*ir.Func
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.ret"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled programs: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		fns = append(fns, f)
	}
	dot, err := bench.TensorDot(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	fns = append(fns, dot)
	for seed := int64(0); seed < 100; seed++ {
		fns = append(fns, irgen.Generate(rand.New(rand.NewSource(seed)), irgen.Config{Instrs: 16, WithVectors: true}))
	}

	var reused asm.Resolver
	chains := 0
	for _, fam := range []struct {
		target   *tdl.Target
		dev      *device.Device
		cascades map[string]target.CascadeVariants
	}{
		{ultrascale.Target(), ultrascale.Device(), ultrascale.Cascades()},
		{agilex.Target(), agilex.Device(), agilex.Cascades()},
	} {
		lib, err := isel.NewLibrary(fam.target)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fns {
			selected, err := isel.SelectWithLibrary(f, lib, isel.Options{})
			if err != nil {
				continue // programs some family cannot select are not this test's concern
			}
			cascaded, st, err := cascade.Apply(selected, fam.target, cascade.Options{
				Cascades: fam.cascades, AccPort: "c", MaxChain: fam.dev.Height,
			})
			if err != nil {
				t.Fatalf("%s on %s: cascade: %v", f.Name, fam.target.Name, err)
			}
			chains += st.Chains
			placed, err := place.PlaceContext(context.Background(), cascaded, fam.dev, place.Options{})
			if err != nil {
				t.Fatalf("%s on %s: place: %v", f.Name, fam.target.Name, err)
			}
			for i, af := range []*asm.Func{selected, cascaded, placed.Fn} {
				where := fmt.Sprintf("%s on %s after %s", f.Name, fam.target.Name, []string{"select", "cascade", "place"}[i])
				syms, err := asm.Resolve(af, fam.target)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				checkNumbering(t, where, af, syms)
				again, err := reused.Resolve(af, fam.target)
				if err != nil || !slices.Equal(again.Args, syms.Args) || !slices.Equal(again.Outputs, syms.Outputs) {
					t.Fatalf("%s: a reused Resolver returned %v, %v; a fresh one %v", where, again, err, syms)
				}
			}
		}
	}
	if chains == 0 {
		t.Error("no program formed a cascade chain: the cascade output went unchecked")
	}
}

// checkNumbering fails unless syms resolves every argument and output
// port of f to the value of the same name.
func checkNumbering(t *testing.T, where string, f *asm.Func, syms ir.Symbols) {
	t.Helper()
	name := func(v int32) string {
		if nin := len(f.Inputs); int(v) >= nin {
			return f.Body[int(v)-nin].Dest
		}
		return f.Inputs[v].Name
	}
	var args []string
	for _, in := range f.Body {
		args = append(args, in.Args...)
	}
	if len(syms.Args) != len(args) || len(syms.Outputs) != len(f.Outputs) {
		t.Fatalf("%s: table has %d arguments and %d outputs, function %d and %d",
			where, len(syms.Args), len(syms.Outputs), len(args), len(f.Outputs))
	}
	for k, v := range syms.Args {
		if name(v) != args[k] {
			t.Fatalf("%s: argument %d %q resolved to value %d, %q", where, k, args[k], v, name(v))
		}
	}
	for k, v := range syms.Outputs {
		if name(v) != f.Outputs[k].Name {
			t.Fatalf("%s: output %q resolved to value %d, %q", where, f.Outputs[k].Name, v, name(v))
		}
	}
}

// TestOutputRuleIsShared feeds each program to both parsers: the IR's and
// the assembly's checkers hold one output-port rule, so each rejects the
// program with the same text after its own prefix.
func TestOutputRuleIsShared(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`def f(a:i8) -> (z:i8) { y:i8 = id(a); }`, `output "z" is never defined`},
		{`def f(a:i8) -> (y:i16) { y:i8 = id(a); }`, `output "y" has type i8, declared i16`},
		{`def f(a:i8) -> (y:i8, y:i8) { y:i8 = id(a); }`, `duplicate output "y"`},
		{`def f(a:i8) -> (y:i8, a:i8) { y:i8 = id(a); }`, `output "a" names an input; use id`},
	} {
		_, irErr := ir.Parse(tc.src)
		_, asmErr := asm.Parse(tc.src)
		for _, got := range []struct {
			prefix string
			err    error
		}{{"ir: function f: ", irErr}, {"asm: function f: ", asmErr}} {
			if got.err == nil {
				t.Errorf("%s accepted %s", strings.TrimSuffix(got.prefix, " function f: "), tc.src)
				continue
			}
			if msg := got.err.Error(); !strings.HasSuffix(msg, got.prefix+tc.want) {
				t.Errorf("%s: got %q, want %q", tc.src, msg, got.prefix+tc.want)
			}
		}
	}
}
