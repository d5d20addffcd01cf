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

// ParseAll parses every function in the source text and checks each, for
// the parser's reference tests.
func ParseAll(src string) ([]*Func, error) {
	var syms Symbols
	return parseAll(src, &syms)
}

// NewLexer returns a lexer over src, for the token-stream tests.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Next scans and returns the next token, for the token-stream tests.
func (l *Lexer) Next() Token {
	var tok Token
	l.scan(&tok)
	return tok
}

// Err returns the first error encountered while scanning, if any.
func (l *Lexer) Err() error { return l.err }
