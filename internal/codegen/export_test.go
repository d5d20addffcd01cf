package codegen

import (
	"strings"

	"reticle/internal/asm"
	"reticle/internal/ir"
	"reticle/internal/tdl"
)

// The two naming paths behind Generate, for the external tests: the
// scan that picks one, and each path forced.
func MayCollide(f *asm.Func, target *tdl.Target) bool {
	return newGen(f, target, ir.Symbols{}).mayCollide()
}

func GenerateUnchecked(f *asm.Func, target *tdl.Target) (*strings.Builder, Stats, error) {
	syms, err := asm.Resolve(f, target)
	if err != nil {
		return nil, Stats{}, err
	}
	return newGen(f, target, syms).module()
}

func GenerateChecked(f *asm.Func, target *tdl.Target) (*strings.Builder, Stats, error) {
	syms, err := asm.Resolve(f, target)
	if err != nil {
		return nil, Stats{}, err
	}
	return newCheckedGen(f, target, syms).module()
}

// LUTs returns total LUT consumption (carry chains ride along in slices
// and are not counted as LUTs, matching vendor utilization reports).
func (s Stats) LUTs() int { return s.Luts }
