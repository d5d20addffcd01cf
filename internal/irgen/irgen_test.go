package irgen

import (
	"math/rand"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/interp"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/target/ultrascale"
)

func TestGeneratedProgramsAreValid(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := Generate(rng, Config{Instrs: 15, WithVectors: true})
		if err := ir.Check(f); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, f)
		}
		if _, _, err := ir.CheckWellFormed(f); err != nil {
			t.Fatalf("seed %d: ill-formed\n%s", seed, f)
		}
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	f1 := Generate(rand.New(rand.NewSource(9)), Config{})
	f2 := Generate(rand.New(rand.NewSource(9)), Config{})
	if f1.String() != f2.String() {
		t.Error("same seed, different programs")
	}
}

func TestGeneratedProgramsSelect(t *testing.T) {
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := Generate(rng, Config{Instrs: 15, WithVectors: true})
		if _, err := isel.SelectWithLibrary(f, lib, isel.Options{}); err != nil {
			t.Fatalf("seed %d: selection failed: %v\n%s", seed, err, f)
		}
	}
}

// TestDifferentialTranslationValidation is the heavyweight semantic check:
// random programs, selected and expanded back, must agree with the source
// on random traces.
func TestDifferentialTranslationValidation(t *testing.T) {
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		f := Generate(rng, Config{Instrs: 20, WithVectors: true})
		af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back, err := asm.Expand(af, ultrascale.Target())
		if err != nil {
			t.Fatalf("seed %d: expand: %v", seed, err)
		}
		trace := RandomTrace(rng, f, 15)
		want, err := interp.Run(f, trace)
		if err != nil {
			t.Fatalf("seed %d: source interp: %v", seed, err)
		}
		got, err := interp.Run(back, trace)
		if err != nil {
			t.Fatalf("seed %d: expanded interp: %v", seed, err)
		}
		if !interp.Equal(want, got) {
			t.Fatalf("seed %d: selection changed semantics\nsource:\n%s\nasm:\n%s",
				seed, f, af)
		}
	}
}

func TestRandomTraceCoversInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := Generate(rng, Config{WithVectors: true})
	tr := RandomTrace(rng, f, 4)
	if len(tr) != 4 {
		t.Fatalf("trace length %d", len(tr))
	}
	for _, p := range f.Inputs {
		v, ok := tr[0][p.Name]
		if !ok {
			t.Fatalf("input %s missing", p.Name)
		}
		if v.Type() != p.Type {
			t.Fatalf("input %s type %s, want %s", p.Name, v.Type(), p.Type)
		}
	}
}
