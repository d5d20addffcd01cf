package ir

// Program edits shared with the external differential tests
// (reference_test.go, package ir_test).
var (
	AlphaRename      = alphaRename
	RenamePorts      = renamePorts
	RewriteConstants = rewriteConstants
	MutateStructure  = mutateStructure
)
