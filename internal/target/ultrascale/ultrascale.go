// Package ultrascale bundles the UltraScale+-like FPGA family: the
// target description the paper develops its examples against (Fig. 9),
// the xczu3eg-like evaluation device (360 DSP slices, ~71k LUTs, §7),
// and the cascade metadata for the §5.2 layout optimization.
//
// The instruction set covers the two primitive kinds the paper models:
//
//   - lut_* — fabric instructions: logic, mux, comparators, carry-chain
//     add/sub, array multipliers, and flip-flop registers, at widths 4
//     through 32 plus bool. Area is counted in LUTs, so wide fabric
//     arithmetic is deliberately expensive next to a DSP slice.
//   - dsp_* — DSP48E2-style instructions: scalar add/sub/logic/mul at 8,
//     16, and 24 bits (the slice has a 27x18 multiplier, so 24-bit
//     products stay on one slice), fused muladd and registered variants,
//     and SIMD vector forms (i8<2>, i8<4>) of add/sub/logic/reg.
//
// Latency costs are tenths of a nanosecond (timing.Options.UnitNs);
// registered defs (addrega, muladdrega) carry the latency of their
// combinational cone, which the timing analyzer completes with setup and
// clock-to-Q constants. Accumulator defs (muladd, muladdrega) additionally
// ship _co/_ci/_coci cascade variants with identical costs and semantics.
package ultrascale

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

var family = target.Bundled("ultrascale", build, func() (*device.Device, error) { return device.XCZU3EG(), nil })

// Target returns the bundled family description. The pointer is a
// singleton: callers compare it by identity to detect the bundled target.
func Target() *tdl.Target { return family().Target }

// Device returns the bundled xczu3eg-like part: 3 DSP columns and 74 LUT
// columns of height 120 (360 DSP slices, 71040 LUTs).
func Device() *device.Device { return family().Device }

// Source returns the generated TDL source text the target is parsed
// from, for documentation and parser fuzzing.
func Source() string { return family().Source() }

// Cascades maps base accumulator opcodes to their cascade variants. The
// returned map is a copy.
func Cascades() map[string]CascadeVariants { return family().Cascades() }

// Latency tables, indexed by width, in tenths of a nanosecond. The
// registered dsp_addrega must match dsp_add exactly: the register costs
// setup time, not extra logic depth.
var (
	lutAddLat = map[int]int{4: 4, 8: 4, 16: 5, 24: 6, 32: 7}
	dspAddLat = map[int]int{8: 7, 16: 8, 24: 9}
	dspMulLat = map[int]int{8: 9, 16: 10, 24: 11}
	dspLogLat = map[int]int{8: 6, 16: 7, 24: 8}
	dspMacLat = map[int]int{8: 12, 16: 13, 24: 14}
)

func build() *target.Builder {
	b := target.NewBuilder("ultrascale")

	b.Comment("Fabric (LUT) instructions: one definition per width.")
	for _, w := range []int{4, 8, 16, 24, 32} {
		typ := fmt.Sprintf("i%d", w)
		n := func(op string) string { return fmt.Sprintf("lut_%s_i%d", op, w) }
		b.Binary(n("add"), ir.ResLut, w, lutAddLat[w], "add", typ)
		b.Binary(n("sub"), ir.ResLut, w, lutAddLat[w], "sub", typ)
		for _, op := range []string{"and", "or", "xor"} {
			b.Binary(n(op), ir.ResLut, w, 1, op, typ)
		}
		b.Unary(n("not"), ir.ResLut, w, 1, "not", typ)
		b.Mux(n("mux"), ir.ResLut, w, 2, typ)
		b.Reg(n("reg"), ir.ResLut, w, 1, typ)
		b.BinaryRega(n("addrega"), ir.ResLut, w, lutAddLat[w]+1, "add", typ)
		for _, op := range []string{"eq", "neq", "lt", "gt", "le", "ge"} {
			b.Compare(n(op), ir.ResLut, w, 3, op, typ)
		}
		b.Binary(n("mul"), ir.ResLut, w*w, 2*w, "mul", typ)
	}

	b.Comment("Fabric instructions over bool.")
	for _, op := range []string{"and", "or", "xor"} {
		b.Binary("lut_"+op+"_bool", ir.ResLut, 1, 1, op, "bool")
	}
	b.Unary("lut_not_bool", ir.ResLut, 1, 1, "not", "bool")
	b.Mux("lut_mux_bool", ir.ResLut, 1, 2, "bool")
	b.Reg("lut_reg_bool", ir.ResLut, 1, 1, "bool")

	b.Comment("DSP48E2-style scalar instructions (27x18 multiplier: up to i24).")
	for _, w := range []int{8, 16, 24} {
		typ := fmt.Sprintf("i%d", w)
		n := func(op string) string { return fmt.Sprintf("dsp_%s_i%d", op, w) }
		b.Binary(n("add"), ir.ResDsp, 1, dspAddLat[w], "add", typ)
		b.Binary(n("sub"), ir.ResDsp, 1, dspAddLat[w], "sub", typ)
		for _, op := range []string{"and", "or", "xor"} {
			b.Binary(n(op), ir.ResDsp, 1, dspLogLat[w], op, typ)
		}
		b.Binary(n("mul"), ir.ResDsp, 1, dspMulLat[w], "mul", typ)
		b.Reg(n("reg"), ir.ResDsp, 1, 2, typ)
		b.BinaryRega(n("addrega"), ir.ResDsp, 1, dspAddLat[w], "add", typ)
		b.MulAdd(n("muladd"), ir.ResDsp, 1, dspMacLat[w], typ, true)
		b.MulAddRega(n("muladdrega"), ir.ResDsp, 1, dspMacLat[w], typ, true)
	}

	b.Comment("DSP SIMD instructions (USE_SIMD TWO24/FOUR12 configurations).")
	for _, lanes := range []int{2, 4} {
		typ := fmt.Sprintf("i8<%d>", lanes)
		n := func(op string) string { return fmt.Sprintf("dsp_%s_i8v%d", op, lanes) }
		b.Binary(n("vadd"), ir.ResDsp, 1, 9, "add", typ)
		b.Binary(n("vsub"), ir.ResDsp, 1, 9, "sub", typ)
		for _, op := range []string{"and", "or", "xor"} {
			b.Binary(n("v"+op), ir.ResDsp, 1, 8, op, typ)
		}
		b.Reg(n("vreg"), ir.ResDsp, 1, 3, typ)
		b.BinaryRega(n("vaddrega"), ir.ResDsp, 1, 9, "add", typ)
	}
	return b
}
