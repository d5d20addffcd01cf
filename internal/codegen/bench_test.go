package codegen_test

import (
	"math/rand"
	"testing"

	"reticle/internal/bench"
	"reticle/internal/codegen"
	"reticle/internal/ir"
	"reticle/internal/irgen"
)

// BenchmarkGenerate measures Generate and the text it hands back on one
// placed kernel of each class the cold workloads draw: an irgen program
// (LUT-heavy, vectors on) and a tensordot (DSP chains). Run with
// -benchmem: allocs/op pins the emitter.
func BenchmarkGenerate(b *testing.B) {
	cfgs, err := familyConfigs()
	if err != nil {
		b.Fatal(err)
	}
	cfg := cfgs[0]
	dot, err := bench.TensorDot(4, 9)
	if err != nil {
		b.Fatal(err)
	}
	lut := irgen.Generate(rand.New(rand.NewSource(0)), irgen.Config{Instrs: 64, WithVectors: true})
	for _, k := range []struct {
		name string
		f    *ir.Func
	}{{"lut", lut}, {"dsp", dot}} {
		placed, err := placeFor(cfg, k.f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, _, err := codegen.Generate(placed, cfg.Target)
				if err != nil {
					b.Fatal(err)
				}
				if len(v.String()) == 0 {
					b.Fatal("empty module")
				}
			}
		})
	}
}
