package vfront_test

import (
	"fmt"
	"math/rand"
	"testing"

	"reticle/internal/behav"
	"reticle/internal/bench"
	"reticle/internal/eval"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/verilog"
	"reticle/internal/vfront"
)

// TestBehavioralTextIsAFixpoint pins the Verilog language the repo
// writes and reads back: every module behav writes for the evaluation's
// programs (each bench program at the Fig. 4 and Fig. 13 sizes) and for
// 32 irgen seeds with vectors, in both flavours, parses back to the same
// text byte for byte, and the behavioral front end accepts it.
func TestBehavioralTextIsAFixpoint(t *testing.T) {
	type prog struct {
		name string
		f    *ir.Func
	}
	var progs []prog
	add := func(name string, f *ir.Func, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, prog{name, f})
	}
	for _, n := range eval.Figure4Sizes {
		f, err := bench.DspAdd(n)
		add(fmt.Sprintf("dspadd %d", n), f, err)
		f, err = bench.DspAddVectorized(n)
		add(fmt.Sprintf("dspadd vectorized %d", n), f, err)
	}
	for _, p := range eval.Panels {
		for _, n := range p.Sizes {
			f, err := eval.Program(p.Name, n)
			add(fmt.Sprintf("%s %s", p.Name, eval.SizeLabel(p.Name, n)), f, err)
		}
	}
	for seed := int64(0); seed < 32; seed++ {
		f := irgen.Generate(rand.New(rand.NewSource(seed)), irgen.Config{Instrs: 16, WithVectors: true})
		add(fmt.Sprintf("irgen %d", seed), f, nil)
	}
	for _, p := range progs {
		for _, flavor := range []behav.Flavor{behav.Base, behav.Hint} {
			m, err := behav.Translate(p.f, flavor)
			if err != nil {
				t.Fatalf("%s (%s): translate: %v", p.name, flavor, err)
			}
			text := m.String()
			back, err := verilog.ParseModule(text)
			if err != nil {
				t.Fatalf("%s (%s): parse: %v\n%s", p.name, flavor, err, text)
			}
			if got := back.String(); got != text {
				t.Fatalf("%s (%s): print/parse moved the text:\n--- written ---\n%s--- reprinted ---\n%s", p.name, flavor, text, got)
			}
			if _, err := vfront.Parse(text); err != nil {
				t.Fatalf("%s (%s): front end refuses it: %v\n%s", p.name, flavor, err, text)
			}
		}
	}
}
