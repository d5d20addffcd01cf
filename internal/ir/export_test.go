package ir

// Program edits shared with the external differential tests
// (reference_test.go, package ir_test), and the per-op type switch its
// reference checker ends in.
var (
	CheckTypes       = checkTypes
	AlphaRename      = alphaRename
	RenamePorts      = renamePorts
	RewriteConstants = rewriteConstants
	MutateStructure  = mutateStructure
)
