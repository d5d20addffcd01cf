package codegen

import (
	"strings"

	"reticle/internal/asm"
	"reticle/internal/tdl"
)

// The two naming paths behind Generate, for the external tests: the
// scan that picks one, and each path forced.
func MayCollide(f *asm.Func, target *tdl.Target) bool { return newGen(f, target).mayCollide() }

func GenerateUnchecked(f *asm.Func, target *tdl.Target) (*strings.Builder, Stats, error) {
	return newGen(f, target).module()
}

func GenerateChecked(f *asm.Func, target *tdl.Target) (*strings.Builder, Stats, error) {
	return newCheckedGen(f, target).module()
}
