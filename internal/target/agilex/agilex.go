// Package agilex bundles a second FPGA family, modeled on Intel Agilex
// parts, to exercise the §4.2 portability claim: assembly instructions
// are family-specific, but the same IR program retargets to any family
// with a target description.
//
// The family differs from ultrascale where the hardware differs:
//
//   - alm_* — the fabric is built from ALMs rather than 6-LUT slices;
//     the adaptive logic is a shade faster per level than UltraScale
//     fabric, and fabric multipliers remain available at every width.
//   - dsp_* — the DSP block has an 18x19 multiplier, so multiply and
//     multiply-accumulate definitions stop at i16. A 24-bit product has
//     no single-slice home and falls back to ALM fabric — the visible
//     selection difference examples/portability prints. Adds, logic, and
//     registers still run on the DSP at up to 24 bits, and the block
//     chains accumulators through dedicated routes just like UltraScale
//     (the _co/_ci/_coci variants).
//
// The bundled device is an agf014-like part: 4 DSP columns and 96 ALM
// columns of height 100 (400 DSP slices, 96000 ALMs).
package agilex

import (
	"fmt"

	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/target"
	"reticle/internal/tdl"
)

// CascadeVariants names the cascade rewrites of a base opcode; see
// internal/target.
type CascadeVariants = target.CascadeVariants

var family = target.Bundled("agilex", build, func() (*device.Device, error) { return device.Standard("agf014", 96, 4, 100, 10) })

// Target returns the bundled family description (a singleton pointer).
func Target() *tdl.Target { return family().Target }

// Device returns the bundled agf014-like part.
func Device() *device.Device { return family().Device }

// Source returns the generated TDL source text the target is parsed
// from, for documentation and parser fuzzing.
func Source() string { return family().Source() }

// Cascades maps base accumulator opcodes to their cascade variants. The
// returned map is a copy.
func Cascades() map[string]CascadeVariants { return family().Cascades() }

// Latency tables, in tenths of a nanosecond.
var (
	almAddLat = map[int]int{4: 3, 8: 3, 16: 4, 24: 5, 32: 6}
	dspAddLat = map[int]int{8: 6, 16: 7, 24: 8}
	dspLogLat = map[int]int{8: 5, 16: 6, 24: 7}
	dspMulLat = map[int]int{8: 8, 16: 10}
	dspMacLat = map[int]int{8: 11, 16: 13}
)

func build() *target.Builder {
	b := target.NewBuilder("agilex")

	b.Comment("Fabric (ALM) instructions: one definition per width.")
	for _, w := range []int{4, 8, 16, 24, 32} {
		typ := fmt.Sprintf("i%d", w)
		n := func(op string) string { return fmt.Sprintf("alm_%s_i%d", op, w) }
		b.Binary(n("add"), ir.ResLut, w, almAddLat[w], "add", typ)
		b.Binary(n("sub"), ir.ResLut, w, almAddLat[w], "sub", typ)
		for _, op := range []string{"and", "or", "xor"} {
			b.Binary(n(op), ir.ResLut, w, 1, op, typ)
		}
		b.Unary(n("not"), ir.ResLut, w, 1, "not", typ)
		b.Mux(n("mux"), ir.ResLut, w, 2, typ)
		b.Reg(n("reg"), ir.ResLut, w, 1, typ)
		b.BinaryRega(n("addrega"), ir.ResLut, w, almAddLat[w]+1, "add", typ)
		for _, op := range []string{"eq", "neq", "lt", "gt", "le", "ge"} {
			b.Compare(n(op), ir.ResLut, w, 2, op, typ)
		}
		b.Binary(n("mul"), ir.ResLut, w*w, 2*w-2, "mul", typ)
	}

	b.Comment("Fabric instructions over bool.")
	for _, op := range []string{"and", "or", "xor"} {
		b.Binary("alm_"+op+"_bool", ir.ResLut, 1, 1, op, "bool")
	}
	b.Unary("alm_not_bool", ir.ResLut, 1, 1, "not", "bool")
	b.Mux("alm_mux_bool", ir.ResLut, 1, 2, "bool")
	b.Reg("alm_reg_bool", ir.ResLut, 1, 1, "bool")

	b.Comment("DSP block scalar instructions (18x19 multiplier: mul stops at i16).")
	for _, w := range []int{8, 16, 24} {
		typ := fmt.Sprintf("i%d", w)
		n := func(op string) string { return fmt.Sprintf("dsp_%s_i%d", op, w) }
		b.Binary(n("add"), ir.ResDsp, 1, dspAddLat[w], "add", typ)
		b.Binary(n("sub"), ir.ResDsp, 1, dspAddLat[w], "sub", typ)
		for _, op := range []string{"and", "or", "xor"} {
			b.Binary(n(op), ir.ResDsp, 1, dspLogLat[w], op, typ)
		}
		b.Reg(n("reg"), ir.ResDsp, 1, 2, typ)
		b.BinaryRega(n("addrega"), ir.ResDsp, 1, dspAddLat[w], "add", typ)
		if w <= 16 {
			b.Binary(n("mul"), ir.ResDsp, 1, dspMulLat[w], "mul", typ)
			b.MulAdd(n("muladd"), ir.ResDsp, 1, dspMacLat[w], typ, true)
			b.MulAddRega(n("muladdrega"), ir.ResDsp, 1, dspMacLat[w], typ, true)
		}
	}

	b.Comment("DSP SIMD instructions (packed 9-bit fixed-point lanes).")
	for _, lanes := range []int{2, 4} {
		typ := fmt.Sprintf("i8<%d>", lanes)
		n := func(op string) string { return fmt.Sprintf("dsp_%s_i8v%d", op, lanes) }
		b.Binary(n("vadd"), ir.ResDsp, 1, 8, "add", typ)
		b.Binary(n("vsub"), ir.ResDsp, 1, 8, "sub", typ)
		for _, op := range []string{"and", "or", "xor"} {
			b.Binary(n("v"+op), ir.ResDsp, 1, 7, op, typ)
		}
		b.Reg(n("vreg"), ir.ResDsp, 1, 3, typ)
		b.BinaryRega(n("vaddrega"), ir.ResDsp, 1, 9, "add", typ)
	}
	return b
}
