package ir_test

// The reference implementations: the lexer, token-slice parser, checker,
// well-formedness criterion, printer and both hashes as they stood before
// the cold-path rewrite, kept verbatim (only renamed and package-qualified)
// as the oracle the production ones must equal byte for byte. Nothing here
// calls into the production lexer, parser, checker, printer or hashes; the
// one shared piece is the per-op type switch (ir.CheckTypes), which the
// rewrite moved but did not edit.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"reticle/internal/ir"
	"reticle/internal/irgen"
)

// refLexer decodes every rune through utf8.DecodeRuneInString and the
// unicode tables, renders every punct text through string(rune), and counts
// line and column byte by byte.
type refLexer struct {
	src  string
	pos  int
	line int
	col  int
	err  error
}

func (l *refLexer) decode() (rune, int) {
	if l.pos >= len(l.src) {
		return 0, 0
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func (l *refLexer) advance(size int) {
	for i := 0; i < size; i++ {
		if l.src[l.pos+i] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
	}
	l.pos += size
}

func (l *refLexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		default:
			return
		}
	}
}

func (l *refLexer) hasDigitAt(pos int) bool {
	return pos < len(l.src) && l.src[pos] >= '0' && l.src[pos] <= '9'
}

func (l *refLexer) next() ir.Token {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return ir.Token{Kind: ir.TokEOF, Line: line, Col: col}
	}
	r, size := l.decode()
	switch {
	case r == '_' || unicode.IsLetter(r):
		start := l.pos
		for l.pos < len(l.src) {
			r2, s2 := l.decode()
			if !(r2 == '_' || unicode.IsLetter(r2) || unicode.IsDigit(r2)) {
				break
			}
			l.advance(s2)
		}
		return ir.Token{Kind: ir.TokIdent, Text: l.src[start:l.pos], Line: line, Col: col}
	case unicode.IsDigit(r) || (r == '-' && l.hasDigitAt(l.pos+size)):
		start := l.pos
		l.advance(size)
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.advance(1)
		}
		text := l.src[start:l.pos]
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil && l.err == nil {
			l.err = fmt.Errorf("ir: line %d: bad integer %q: %v", line, text, err)
		}
		return ir.Token{Kind: ir.TokInt, Text: text, Int: v, Line: line, Col: col}
	case r == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.advance(2)
		return ir.Token{Kind: ir.TokPunct, Text: "->", Line: line, Col: col}
	case r == '?' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '?':
		l.advance(2)
		return ir.Token{Kind: ir.TokPunct, Text: "??", Line: line, Col: col}
	default:
		l.advance(size)
		return ir.Token{Kind: ir.TokPunct, Text: string(r), Line: line, Col: col}
	}
}

// refTokens scans the whole input: the token stream ending with an EOF
// token, and the first lexical error.
func refTokens(src string) ([]ir.Token, error) {
	l := &refLexer{src: src, line: 1, col: 1}
	var toks []ir.Token
	for {
		t := l.next()
		toks = append(toks, t)
		if t.Kind == ir.TokEOF {
			return toks, l.err
		}
	}
}

// refParser consumes a token slice.
type refParser struct {
	toks []ir.Token
	pos  int
}

func (p *refParser) Peek() ir.Token { return p.toks[p.pos] }

func (p *refParser) Take() ir.Token {
	t := p.toks[p.pos]
	if t.Kind != ir.TokEOF {
		p.pos++
	}
	return t
}

func (p *refParser) AtPunct(text string) bool {
	t := p.Peek()
	return t.Kind == ir.TokPunct && t.Text == text
}

func (p *refParser) EatPunct(text string) bool {
	if p.AtPunct(text) {
		p.pos++
		return true
	}
	return false
}

func (p *refParser) ExpectPunct(text string) error {
	t := p.Peek()
	if t.Kind == ir.TokPunct && t.Text == text {
		p.pos++
		return nil
	}
	return fmt.Errorf("line %d: expected %q, found %s", t.Line, text, t)
}

func (p *refParser) ExpectIdent() (string, error) {
	t := p.Peek()
	if t.Kind != ir.TokIdent {
		return "", fmt.Errorf("line %d: expected identifier, found %s", t.Line, t)
	}
	p.pos++
	return t.Text, nil
}

func (p *refParser) ExpectKeyword(kw string) error {
	t := p.Peek()
	if t.Kind == ir.TokIdent && t.Text == kw {
		p.pos++
		return nil
	}
	return fmt.Errorf("line %d: expected %q, found %s", t.Line, kw, t)
}

func (p *refParser) ExpectInt() (int64, error) {
	t := p.Peek()
	if t.Kind != ir.TokInt {
		return 0, fmt.Errorf("line %d: expected integer, found %s", t.Line, t)
	}
	p.pos++
	return t.Int, nil
}

func (p *refParser) ParseTypeTok() (ir.Type, error) {
	name, err := p.ExpectIdent()
	if err != nil {
		return ir.Type{}, err
	}
	base, err := ir.ParseType(name)
	if err != nil {
		return ir.Type{}, err
	}
	if base.IsInt() && p.EatPunct("<") {
		lanes, err := p.ExpectInt()
		if err != nil {
			return ir.Type{}, err
		}
		if err := p.ExpectPunct(">"); err != nil {
			return ir.Type{}, err
		}
		return ir.NewVector(base.Width(), int(lanes))
	}
	return base, nil
}

func (p *refParser) ParsePorts() ([]ir.Port, error) {
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	var ports []ir.Port
	for !p.AtPunct(")") {
		if len(ports) > 0 {
			if err := p.ExpectPunct(","); err != nil {
				return nil, err
			}
		}
		name, err := p.ExpectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectPunct(":"); err != nil {
			return nil, err
		}
		typ, err := p.ParseTypeTok()
		if err != nil {
			return nil, err
		}
		ports = append(ports, ir.Port{Name: name, Type: typ})
	}
	return ports, p.ExpectPunct(")")
}

func (p *refParser) ParseAttrs() ([]int64, error) {
	if !p.EatPunct("[") {
		return nil, nil
	}
	var attrs []int64
	for !p.AtPunct("]") {
		if len(attrs) > 0 {
			if err := p.ExpectPunct(","); err != nil {
				return nil, err
			}
		}
		v, err := p.ExpectInt()
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, v)
	}
	return attrs, p.ExpectPunct("]")
}

func (p *refParser) ParseArgs() ([]string, error) {
	if !p.EatPunct("(") {
		return nil, nil
	}
	var args []string
	for !p.AtPunct(")") {
		if len(args) > 0 {
			if err := p.ExpectPunct(","); err != nil {
				return nil, err
			}
		}
		name, err := p.ExpectIdent()
		if err != nil {
			return nil, err
		}
		args = append(args, name)
	}
	return args, p.ExpectPunct(")")
}

func (p *refParser) parseInstr() (ir.Instr, error) {
	var in ir.Instr
	dest, err := p.ExpectIdent()
	if err != nil {
		return in, err
	}
	if err := p.ExpectPunct(":"); err != nil {
		return in, err
	}
	typ, err := p.ParseTypeTok()
	if err != nil {
		return in, err
	}
	if err := p.ExpectPunct("="); err != nil {
		return in, err
	}
	opName, err := p.ExpectIdent()
	if err != nil {
		return in, err
	}
	op, err := ir.ParseOp(opName)
	if err != nil {
		return in, fmt.Errorf("line %d: %v", p.Peek().Line, err)
	}
	attrs, err := p.ParseAttrs()
	if err != nil {
		return in, err
	}
	args, err := p.ParseArgs()
	if err != nil {
		return in, err
	}
	res := ir.ResAny
	if p.EatPunct("@") {
		t := p.Take()
		r, err := ir.ParseResource(t.Text)
		if err != nil {
			return in, fmt.Errorf("line %d: %v", t.Line, err)
		}
		res = r
	}
	if err := p.ExpectPunct(";"); err != nil {
		return in, err
	}
	return ir.Instr{Dest: dest, Type: typ, Op: op, Attrs: attrs, Args: args, Res: res}, nil
}

func (p *refParser) parseFunc() (*ir.Func, error) {
	if err := p.ExpectKeyword("def"); err != nil {
		return nil, err
	}
	name, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	inputs, err := p.ParsePorts()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("->"); err != nil {
		return nil, err
	}
	outputs, err := p.ParsePorts()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("{"); err != nil {
		return nil, err
	}
	f := &ir.Func{Name: name, Inputs: inputs, Outputs: outputs}
	for !p.AtPunct("}") {
		in, err := p.parseInstr()
		if err != nil {
			return nil, err
		}
		f.Body = append(f.Body, in)
	}
	return f, p.ExpectPunct("}")
}

// refParseTokens parses every function in a token stream and checks each.
// It also returns the index of the token it stopped at.
func refParseTokens(toks []ir.Token) ([]*ir.Func, int, error) {
	p := &refParser{toks: toks}
	var fns []*ir.Func
	for p.Peek().Kind != ir.TokEOF {
		f, err := p.parseFunc()
		if err != nil {
			return nil, p.pos, fmt.Errorf("ir: %w", err)
		}
		if err := refCheck(f); err != nil {
			return nil, p.pos, err
		}
		fns = append(fns, f)
	}
	if len(fns) == 0 {
		return nil, p.pos, fmt.Errorf("ir: no functions in input")
	}
	return fns, p.pos, nil
}

// refParseAll scans the whole input first, so a lexical error anywhere wins
// over every parse and check error.
func refParseAll(src string) ([]*ir.Func, error) {
	toks, err := refTokens(src)
	if err != nil {
		return nil, err
	}
	fns, _, err := refParseTokens(toks)
	return fns, err
}

// refCheck is Check over a name -> type map, a second map in
// refCheckOutputs, and a slice of argument types per instruction.
func refCheck(f *ir.Func) error {
	if f.Name == "" {
		return fmt.Errorf("ir: function has no name")
	}
	if len(f.Outputs) == 0 {
		return fmt.Errorf("ir: function %s has no outputs", f.Name)
	}
	types := make(map[string]ir.Type, len(f.Inputs)+len(f.Body))
	for _, p := range f.Inputs {
		if _, dup := types[p.Name]; dup {
			return fmt.Errorf("ir: function %s: duplicate input %q", f.Name, p.Name)
		}
		types[p.Name] = p.Type
	}
	for _, in := range f.Body {
		if _, dup := types[in.Dest]; dup {
			return fmt.Errorf("ir: function %s: %q defined more than once", f.Name, in.Dest)
		}
		types[in.Dest] = in.Type
	}
	for i, in := range f.Body {
		if err := refCheckInstr(in, types); err != nil {
			return fmt.Errorf("ir: function %s: instruction %d (%s): %w", f.Name, i, in.Dest, err)
		}
	}
	if err := refCheckOutputs(f.Inputs, f.Outputs, types); err != nil {
		return fmt.Errorf("ir: function %s: %w", f.Name, err)
	}
	return nil
}

func refCheckOutputs(inputs, outputs []ir.Port, types map[string]ir.Type) error {
	seen := make(map[string]bool, len(outputs))
	for _, out := range outputs {
		t, ok := types[out.Name]
		if !ok {
			return fmt.Errorf("output %q is never defined", out.Name)
		}
		if t != out.Type {
			return fmt.Errorf("output %q has type %s, declared %s", out.Name, t, out.Type)
		}
		if seen[out.Name] {
			return fmt.Errorf("duplicate output %q", out.Name)
		}
		seen[out.Name] = true
	}
	for _, p := range inputs {
		if seen[p.Name] {
			return fmt.Errorf("output %q names an input; use id", p.Name)
		}
	}
	return nil
}

func refCheckInstr(in ir.Instr, types map[string]ir.Type) error {
	if want := in.Op.Arity(); want >= 0 && len(in.Args) != want {
		return fmt.Errorf("%s takes %d arguments, got %d", in.Op, want, len(in.Args))
	}
	argT := make([]ir.Type, len(in.Args))
	for i, a := range in.Args {
		t, ok := types[a]
		if !ok {
			return fmt.Errorf("argument %q is undefined", a)
		}
		argT[i] = t
	}
	return ir.CheckTypes(&in, argT)
}

// refCheckWellFormed is Kahn's algorithm over f.Defs and one adjacency
// slice per instruction.
func refCheckWellFormed(f *ir.Func) (pure, regs []int, err error) {
	defs := f.Defs()

	// adj[i] lists instruction indices that consume instruction i's output.
	// Edges out of reg instructions are cut: a reg's output is available from
	// the previous cycle, so it cannot participate in a combinational cycle.
	n := len(f.Body)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for i, in := range f.Body {
		for _, a := range in.Args {
			j, ok := defs[a]
			if !ok {
				continue // function input
			}
			if f.Body[j].Op.IsStateful() {
				continue
			}
			adj[j] = append(adj[j], i)
			indeg[i]++
		}
	}

	// Kahn's algorithm over all instructions; reg nodes participate as sinks
	// for their input edges but never as sources.
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue) // deterministic order
	var order []int
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, j := range adj[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) != n {
		var stuck []string
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				stuck = append(stuck, f.Body[i].Dest)
			}
		}
		return nil, nil, fmt.Errorf(
			"ir: function %s is ill-formed: combinational cycle through {%s}",
			f.Name, strings.Join(stuck, ", "))
	}
	for _, i := range order {
		if f.Body[i].Op.IsStateful() {
			regs = append(regs, i)
		} else {
			pure = append(pure, i)
		}
	}
	return pure, regs, nil
}

func refInstrString(in ir.Instr) string {
	var b strings.Builder
	b.WriteString(in.Dest)
	b.WriteByte(':')
	b.WriteString(in.Type.String())
	b.WriteString(" = ")
	b.WriteString(in.Op.String())
	if len(in.Attrs) > 0 {
		b.WriteByte('[')
		for i, a := range in.Attrs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", a)
		}
		b.WriteByte(']')
	}
	if in.Op.Arity() != 0 {
		b.WriteByte('(')
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a)
		}
		b.WriteByte(')')
	}
	if in.IsCompute() {
		b.WriteString(" @")
		b.WriteString(in.Res.String())
	}
	b.WriteByte(';')
	return b.String()
}

func refFuncString(f *ir.Func) string {
	var b strings.Builder
	b.WriteString("def ")
	b.WriteString(f.Name)
	b.WriteByte('(')
	for i, p := range f.Inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.Name + ":" + p.Type.String())
	}
	b.WriteString(") -> (")
	for i, p := range f.Outputs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.Name + ":" + p.Type.String())
	}
	b.WriteString(") {\n")
	for _, in := range f.Body {
		b.WriteString("    ")
		b.WriteString(refInstrString(in))
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.String()
}

func refCanonicalHash(f *ir.Func) string {
	h := sha256.New()
	buf := make([]byte, 0, 256)
	emit := func(parts ...string) {
		buf = buf[:0]
		for _, p := range parts {
			buf = append(buf, p...)
			buf = append(buf, 0) // unambiguous field separator
		}
		h.Write(buf)
	}

	emit("func", f.Name)
	ports := make(map[string]bool, len(f.Inputs)+len(f.Outputs))
	for _, p := range f.Inputs {
		ports[p.Name] = true
		emit("in", p.Name, p.Type.String())
	}
	for _, p := range f.Outputs {
		ports[p.Name] = true
		emit("out", p.Name, p.Type.String())
	}

	canon := make(map[string]string, len(f.Body))
	next := 0
	for _, in := range f.Body {
		if !ports[in.Dest] {
			if _, ok := canon[in.Dest]; !ok {
				canon[in.Dest] = "t:" + strconv.Itoa(next)
				next++
			}
		}
	}
	name := func(n string) string {
		if ports[n] {
			return "p:" + n
		}
		if c, ok := canon[n]; ok {
			return c
		}
		return "f:" + n
	}

	for _, in := range f.Body {
		res := ""
		if in.IsCompute() {
			res = in.Res.String()
		}
		parts := make([]string, 0, 5+len(in.Attrs)+len(in.Args))
		parts = append(parts, "ins", name(in.Dest), in.Type.String(), in.Op.String())
		for _, a := range in.Attrs {
			parts = append(parts, strconv.FormatInt(a, 10))
		}
		parts = append(parts, "|")
		for _, a := range in.Args {
			parts = append(parts, name(a))
		}
		parts = append(parts, res)
		emit(parts...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refStructuralHash(f *ir.Func) string {
	h := sha256.New()
	buf := make([]byte, 0, 256)
	emit := func(parts ...string) {
		buf = buf[:0]
		for _, p := range parts {
			buf = append(buf, p...)
			buf = append(buf, 0) // unambiguous field separator
		}
		h.Write(buf)
	}

	emit("sfunc")
	canon := make(map[string]string, len(f.Inputs)+len(f.Outputs)+len(f.Body))
	ports := 0
	for _, p := range f.Inputs {
		canon[p.Name] = "p:" + strconv.Itoa(ports)
		ports++
		emit("in", p.Type.String())
	}
	for _, p := range f.Outputs {
		if _, ok := canon[p.Name]; !ok {
			canon[p.Name] = "p:" + strconv.Itoa(ports)
			ports++
		}
		emit("out", canon[p.Name], p.Type.String())
	}
	temps, frees := 0, 0
	for _, in := range f.Body {
		if _, ok := canon[in.Dest]; !ok {
			canon[in.Dest] = "t:" + strconv.Itoa(temps)
			temps++
		}
	}
	name := func(n string) string {
		if c, ok := canon[n]; ok {
			return c
		}
		c := "f:" + strconv.Itoa(frees)
		frees++
		canon[n] = c
		return c
	}

	for _, in := range f.Body {
		res := ""
		if in.IsCompute() {
			res = in.Res.String()
		}
		parts := make([]string, 0, 6+len(in.Attrs)+len(in.Args))
		parts = append(parts, "ins", name(in.Dest), in.Type.String(), in.Op.String())
		if in.Op == ir.OpConst || in.Op == ir.OpReg {
			parts = append(parts, "#"+strconv.Itoa(len(in.Attrs)))
		} else {
			for _, a := range in.Attrs {
				parts = append(parts, strconv.FormatInt(a, 10))
			}
		}
		parts = append(parts, "|")
		for _, a := range in.Args {
			parts = append(parts, name(a))
		}
		parts = append(parts, res)
		emit(parts...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bundledPrograms returns the text of every examples/programs/*.ret.
func bundledPrograms(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob("../../examples/programs/*.ret")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled programs: %v", err)
	}
	var srcs []string
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	return srcs
}

// raggedTensorDot builds the DSP-class op mix: a few multiply-add-register
// chains of uneven length, the shape of the benchmark's cold-dsp kernels.
func raggedTensorDot(rng *rand.Rand) *ir.Func {
	i8 := ir.Int(8)
	b := ir.NewBuilder(fmt.Sprintf("td%d", rng.Intn(1<<20)))
	en := b.Input("en", ir.Bool())
	for k, arrays := 0, 2+rng.Intn(4); k < arrays; k++ {
		acc := b.Const(i8, rng.Int63n(256)-128)
		for j, stages := 0, 3+rng.Intn(20); j < stages; j++ {
			a := b.Input(fmt.Sprintf("a%d_%d", k, j), i8)
			c := b.Input(fmt.Sprintf("b%d_%d", k, j), i8)
			m := b.Mul(i8, a, c, ir.ResAny)
			s := b.Add(i8, m, acc, ir.ResAny)
			acc = b.Reg(i8, s, en, []int64{rng.Int63n(16)}, ir.ResAny)
		}
		y := fmt.Sprintf("y%d", k)
		b.Id(y, i8, acc)
		b.Output(y, i8)
	}
	return b.MustBuild()
}

// generated returns n seeded programs, alternating between the LUT-class op
// mix (irgen's random programs, vectors on every other one) and the
// DSP-class one.
func generated(n int) []*ir.Func {
	funcs := make([]*ir.Func, 0, n)
	for seed := 0; seed < n; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		if seed%3 == 2 {
			funcs = append(funcs, raggedTensorDot(rng))
		} else {
			funcs = append(funcs, irgen.Generate(rng, irgen.Config{Instrs: 4 + seed%90, WithVectors: seed%2 == 0}))
		}
	}
	return funcs
}

// uncheckedFuncs are hand-built functions ir.Check rejects. The hashes and
// the printer are total: they never see a checker's verdict.
func uncheckedFuncs() []*ir.Func {
	i8 := ir.Int(8)
	add := func(dest string, args ...string) ir.Instr {
		return ir.Instr{Dest: dest, Type: i8, Op: ir.OpAdd, Args: args}
	}
	return []*ir.Func{
		{}, // nothing at all
		{Name: "free", Inputs: []ir.Port{{Name: "a", Type: i8}}, Outputs: []ir.Port{{Name: "y", Type: i8}},
			Body: []ir.Instr{add("y", "a", "ghost"), add("t", "ghost", "phantom"), add("u", "phantom", "t")}},
		{Name: "dupdest", Inputs: []ir.Port{{Name: "a", Type: i8}}, Outputs: []ir.Port{{Name: "y", Type: i8}},
			Body: []ir.Instr{add("t", "a", "a"), add("t", "t", "a"), add("y", "t", "t"), add("y", "y", "t")}},
		{Name: "shadow", Inputs: []ir.Port{{Name: "a", Type: i8}, {Name: "b", Type: i8}}, Outputs: []ir.Port{{Name: "b", Type: i8}},
			Body: []ir.Instr{add("a", "a", "b"), add("b", "a", "a")}},
		{Name: "dupports", Inputs: []ir.Port{{Name: "a", Type: i8}, {Name: "a", Type: ir.Bool()}},
			Outputs: []ir.Port{{Name: "y", Type: i8}, {Name: "y", Type: i8}, {Name: "a", Type: i8}},
			Body:    []ir.Instr{add("y", "a", "a")}},
		{Name: "lonely", Outputs: []ir.Port{{Name: "y", Type: i8}}},
		{Name: "loop", Inputs: []ir.Port{{Name: "a", Type: i8}}, Outputs: []ir.Port{{Name: "y", Type: i8}},
			Body: []ir.Instr{add("t", "a", "u"), add("u", "t", "y"), add("y", "u", "a"), add("v", "a", "a")}},
		{Name: "outs", Inputs: []ir.Port{{Name: "a", Type: i8}, {Name: "b", Type: i8}},
			Outputs: []ir.Port{{Name: "b", Type: i8}, {Name: "y", Type: i8}, {Name: "a", Type: i8}},
			Body:    []ir.Instr{add("y", "a", "b")}},
		{Name: "outtypes", Inputs: []ir.Port{{Name: "a", Type: i8}},
			Outputs: []ir.Port{{Name: "y", Type: i8}, {Name: "y", Type: ir.Bool()}, {Name: "z", Type: i8}},
			Body:    []ir.Instr{add("y", "a", "a")}},
		{Name: "oddops", Outputs: []ir.Port{{Name: "y", Type: ir.Vector(3, 70)}},
			Body: []ir.Instr{
				{Dest: "y", Type: ir.Vector(3, 70), Op: ir.Op(200), Attrs: []int64{-1 << 63, 1<<63 - 1}, Args: []string{"", "y"}, Res: ir.Resource(9)},
				{Dest: "", Type: ir.Bool(), Op: ir.OpConst, Args: []string{"ignored"}, Res: ir.ResDsp},
				{Dest: "r", Type: i8, Op: ir.OpReg, Attrs: []int64{1, 2, 3}, Args: []string{"r"}, Res: ir.ResLut},
				{Dest: "s", Type: i8, Op: ir.OpSll, Attrs: []int64{7}, Args: []string{"r"}, Res: ir.ResLut},
			}},
	}
}

// differentialCorpus is everything the hashes and the printer are compared
// over: the bundled programs, n generated ones, an alpha-renamed, a
// port-renamed and a constant-tweaked variant of each, and the unchecked
// hand-built functions.
func differentialCorpus(t testing.TB, n int) []*ir.Func {
	var funcs []*ir.Func
	for _, src := range bundledPrograms(t) {
		fns, err := ir.ParseAll(src)
		if err != nil {
			t.Fatal(err)
		}
		funcs = append(funcs, fns...)
	}
	funcs = append(funcs, generated(n)...)
	for i, f := range funcs {
		salt := strconv.Itoa(i)
		funcs = append(funcs, ir.AlphaRename(f, salt), ir.RenamePorts(f, salt), ir.RewriteConstants(f, int64(i%7)-3))
	}
	return append(funcs, uncheckedFuncs()...)
}

func corpusSize() int {
	if testing.Short() {
		return 200
	}
	return 2000
}

func checkAgainstReference(t testing.TB, f *ir.Func) {
	t.Helper()
	if got, want := ir.CanonicalHash(f), refCanonicalHash(f); got != want {
		t.Fatalf("CanonicalHash = %s, reference %s\n%s", got, want, refFuncString(f))
	}
	if got, want := ir.StructuralHash(f), refStructuralHash(f); got != want {
		t.Fatalf("StructuralHash = %s, reference %s\n%s", got, want, refFuncString(f))
	}
	if got, want := f.String(), refFuncString(f); got != want {
		t.Fatalf("Func.String differs from the reference:\n%s\nreference:\n%s", got, want)
	}
	for _, in := range f.Body {
		if got, want := in.String(), refInstrString(in); got != want {
			t.Fatalf("Instr.String = %q, reference %q", got, want)
		}
	}
}

// TestHashesAndPrinterMatchReference: both hashes and the printer are
// byte-identical to the reference implementations over the whole corpus.
func TestHashesAndPrinterMatchReference(t *testing.T) {
	funcs := differentialCorpus(t, corpusSize())
	for _, f := range funcs {
		checkAgainstReference(t, f)
	}
	t.Logf("%d functions", len(funcs))
}

// broken returns a copy of f with one seeded edit of a kind the checker or
// the well-formedness criterion exists to reject (not every edit ends up
// rejected: a rewired argument may still type, a cycle may run through a reg).
func broken(rng *rand.Rand, f *ir.Func) *ir.Func {
	g := f.Clone()
	if len(g.Body) == 0 {
		return g
	}
	in := &g.Body[rng.Intn(len(g.Body))]
	other := g.Body[rng.Intn(len(g.Body))].Dest
	arg := func(name string) {
		if len(in.Args) > 0 {
			in.Args[rng.Intn(len(in.Args))] = name
		}
	}
	switch rng.Intn(10) {
	case 0:
		in.Dest = other // defined twice, and the old name now undefined
	case 1:
		arg(other) // a forward edge closes a cycle; any edge may mistype
	case 2:
		arg("ghost")
	case 3:
		in.Args = in.Args[:len(in.Args)/2]
	case 4:
		in.Attrs = append(in.Attrs, int64(rng.Intn(100)))
	case 5:
		in.Type = ir.Vector(in.Type.Width()+1, in.Type.Lanes())
	case 6:
		g.Outputs = append(g.Outputs, g.Outputs[rng.Intn(len(g.Outputs))])
	case 7:
		g.Outputs[rng.Intn(len(g.Outputs))].Type = ir.Int(63)
	case 8:
		g.Outputs = append(g.Outputs, ir.Port{Name: "nowhere", Type: ir.Bool()})
	default:
		if len(g.Inputs) > 0 {
			g.Outputs = append(g.Outputs, g.Inputs[rng.Intn(len(g.Inputs))])
		}
	}
	return g
}

// checkResolveAgainstReference: Check, CheckWellFormed and Resolve give the
// reference's verdict — the same message, the same evaluation order — and
// the table Resolve returns holds, argument for argument, the value each
// name denotes.
func checkResolveAgainstReference(t testing.TB, f *ir.Func) {
	t.Helper()
	wantErr := refCheck(f)
	if got := ir.Check(f); fmt.Sprint(got) != fmt.Sprint(wantErr) {
		t.Fatalf("Check = %v, reference %v\n%s", got, wantErr, refFuncString(f))
	}
	wantPure, wantRegs, wantWF := refCheckWellFormed(f)
	pure, regs, err := ir.CheckWellFormed(f)
	if got, want := fmt.Sprint(pure, regs, err), fmt.Sprint(wantPure, wantRegs, wantWF); got != want {
		t.Fatalf("CheckWellFormed = %s, reference %s\n%s", got, want, refFuncString(f))
	}
	if wantErr == nil {
		wantErr = wantWF
	}
	syms, err := ir.Resolve(f)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Resolve = %v, reference %v\n%s", err, wantErr, refFuncString(f))
	}
	if err != nil {
		return
	}
	name := func(v int32) string {
		if nin := len(f.Inputs); int(v) >= nin {
			return f.Body[int(v)-nin].Dest
		}
		return f.Inputs[v].Name
	}
	k := 0
	for _, in := range f.Body {
		for _, a := range in.Args {
			if name(syms.Args[k]) != a {
				t.Fatalf("Resolve: argument %q of %s resolved to %q\n%s", a, in.Dest, name(syms.Args[k]), refFuncString(f))
			}
			k++
		}
	}
	if k != len(syms.Args) || len(syms.Outputs) != len(f.Outputs) {
		t.Fatalf("Resolve: %d arguments and %d outputs in the table, function has %d and %d", len(syms.Args), len(syms.Outputs), k, len(f.Outputs))
	}
	for i, out := range f.Outputs {
		if name(syms.Outputs[i]) != out.Name {
			t.Fatalf("Resolve: output %q resolved to %q", out.Name, name(syms.Outputs[i]))
		}
	}
}

// TestCheckMatchesReference: over the whole corpus and two broken copies of
// every function in it. The count of rejections guards the test itself: a
// corpus nothing rejects would compare nil with nil.
func TestCheckMatchesReference(t *testing.T) {
	funcs := differentialCorpus(t, corpusSize())
	rng := rand.New(rand.NewSource(27))
	rejected := map[string]int{}
	for _, f := range funcs {
		for _, g := range []*ir.Func{f, broken(rng, f), broken(rng, f)} {
			checkResolveAgainstReference(t, g)
			if _, err := ir.Resolve(g); err != nil {
				rejected[errorKind(err)]++
			}
		}
	}
	t.Logf("%d functions, rejections by kind: %v", 3*len(funcs), rejected)
	for _, kind := range []string{"defined more than once", "is undefined", "takes", "has type", "never defined",
		"duplicate output", "names an input", "combinational cycle", "duplicate input", "has no"} {
		if rejected[kind] == 0 {
			t.Errorf("no function in the corpus is rejected with %q", kind)
		}
	}
}

// errorKind buckets a checker message by the phrase that names its rule.
func errorKind(err error) string {
	for _, kind := range []string{"defined more than once", "is undefined", "never defined", "duplicate output",
		"names an input", "combinational cycle", "duplicate input", "has no", "has type", "takes"} {
		if strings.Contains(err.Error(), kind) {
			return kind
		}
	}
	return "other"
}

// sameFuncs compares two parses field by field; a nil list equals an empty
// one.
func sameFuncs(got, want []*ir.Func) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d functions, reference %d", len(got), len(want))
	}
	samePorts := func(a, b []ir.Port) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name || !samePorts(g.Inputs, w.Inputs) || !samePorts(g.Outputs, w.Outputs) || len(g.Body) != len(w.Body) {
			return fmt.Errorf("function %d: header or body length differs:\n%s\nreference:\n%s", i, refFuncString(g), refFuncString(w))
		}
		for j, gi := range g.Body {
			wi := w.Body[j]
			if gi.Dest != wi.Dest || gi.Type != wi.Type || gi.Op != wi.Op || gi.Res != wi.Res ||
				fmt.Sprint(gi.Attrs) != fmt.Sprint(wi.Attrs) || strings.Join(gi.Args, "\x00") != strings.Join(wi.Args, "\x00") ||
				len(gi.Args) != len(wi.Args) {
				return fmt.Errorf("function %d instruction %d: %+v, reference %+v", i, j, gi, wi)
			}
			// A later pass may append to any list without touching a neighbour.
			if cap(gi.Args) != len(gi.Args) || cap(gi.Attrs) != len(gi.Attrs) {
				return fmt.Errorf("function %d instruction %d: list capacity not clamped", i, j)
			}
		}
	}
	return nil
}

// checkParseAgainstReference compares ir.ParseAll with the token-slice
// parser. The reference scans to the end of input first, so a lexical error
// wins wherever it sits. The streaming parser has scanned one token past
// what it has consumed: a lexical error wins from the moment its token is
// the lookahead, and before that an earlier syntax or check error does.
// Everything else — functions, messages, line numbers — is equal.
func checkParseAgainstReference(t testing.TB, src string) {
	t.Helper()
	got, gotErr := ir.ParseAll(src)
	toks, lexErr := refTokens(src)
	want, stopped, wantErr := refParseTokens(toks)
	if lexErr != nil {
		bad := 0 // the first token the lexer could not read
		for toks[bad].Kind != ir.TokInt || !isBadInt(toks[bad].Text) {
			bad++
		}
		if stopped >= bad {
			want, wantErr = nil, lexErr
		} else if wantErr == nil {
			t.Fatalf("reference finished before token %d, which is bad\n%s", bad, src)
		}
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseAll error = %v, reference %v\n%s", gotErr, wantErr, src)
	}
	if gotErr != nil {
		return
	}
	if err := sameFuncs(got, want); err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
}

func isBadInt(text string) bool {
	_, err := strconv.ParseInt(text, 10, 64)
	return err != nil
}

// damaged returns src with one seeded edit: a truncation, a deleted byte, or
// a spliced fragment — the inputs that reach the error paths.
func damaged(rng *rand.Rand, src string) string {
	if len(src) == 0 {
		return src
	}
	at := rng.Intn(len(src))
	switch rng.Intn(3) {
	case 0:
		return src[:at]
	case 1:
		return src[:at] + src[at+1:]
	default:
		frags := []string{"99999999999999999999", "-", "?", "??", "@", "}", "(", "def ", " é ", "\n", "//", "<", "i0", ", ,", "\xff"}
		return src[:at] + frags[rng.Intn(len(frags))] + src[at:]
	}
}

// TestParseMatchesReference: the streaming parser returns what the
// token-slice parser returned — functions and error messages — on the
// bundled programs, the printed corpus, and damaged copies of both.
func TestParseMatchesReference(t *testing.T) {
	srcs := bundledPrograms(t)
	srcs = append(srcs, strings.Join(srcs, "\n"))
	for _, f := range generated(corpusSize()) {
		srcs = append(srcs, refFuncString(f))
	}
	rng := rand.New(rand.NewSource(27))
	for _, src := range srcs {
		checkParseAgainstReference(t, src)
		for i := 0; i < 4; i++ {
			checkParseAgainstReference(t, damaged(rng, src))
		}
	}
}

// FuzzHashesMatchReference: over arbitrary parsed programs and their edited
// variants, including ones a mutation has made unchecked.
func FuzzHashesMatchReference(f *testing.F) {
	for i, src := range bundledPrograms(f) {
		f.Add(src, int64(i), byte(i))
	}
	f.Add(refFuncString(uncheckedFuncs()[1]), int64(-3), byte(7))
	f.Fuzz(func(t *testing.T, src string, delta int64, pick byte) {
		fns, err := refParseAll(src)
		if err != nil {
			return
		}
		for _, fn := range fns {
			checkAgainstReference(t, fn)
			checkAgainstReference(t, ir.RewriteConstants(ir.RenamePorts(ir.AlphaRename(fn, "fz"), "fz"), delta))
			if mut := fn.Clone(); len(mut.Body) > 0 && ir.MutateStructure(mut, int(pick)%len(mut.Body), pick) {
				checkAgainstReference(t, mut)
				checkResolveAgainstReference(t, mut)
			}
			checkResolveAgainstReference(t, broken(rand.New(rand.NewSource(delta)), fn))
		}
	})
}

// FuzzParseMatchesReference feeds arbitrary text to both parsers.
func FuzzParseMatchesReference(f *testing.F) {
	for _, src := range bundledPrograms(f) {
		f.Add(src)
	}
	f.Add("def f(a:i8) -> (y:i8) { y:i8 = add(a, a) @??; } def g(")
	f.Add("def f(a:i8) -> (y:i8) { y:i8 = sll[99999999999999999999](a) }")
	f.Add("def \x00 bogus é ٣")
	f.Fuzz(func(t *testing.T, src string) {
		checkParseAgainstReference(t, src)
	})
}

// TestLexerFastPathEqualsSlowPath: same kinds, texts, values, lines, columns
// and errors as the reference lexer on the bundled programs and on text
// chosen to sit on the ASCII / non-ASCII boundary, including positions after
// multi-byte runes and after "\r\n".
func TestLexerFastPathEqualsSlowPath(t *testing.T) {
	corpus := []string{
		"",
		"def f(a:i8<4>, en:bool) -> (y:i8<4>) { y:i8<4> = reg[-1, 2, 3, 4](a, en) @dsp; }",
		"y:i8 = muladd(a, b, c) @dsp(x, y-1); z:i8 = add(a, b) @lut(??, y+1); // tail",
		"- -> -1 --2 ->> ? ?? ??? a-1 a->b 9223372036854775808 -9223372036854775809 007",
		"_ _a a_ A9 Zz_0 @[`{ ~^ \x00\x7f",
		// Non-ASCII identifiers, alone and mixed with ASCII.
		"défaut:i8 = add(α, β1) @??; 变量 = Ωmega_2(x٣, é);",
		"aé éa a1é _é é_ ǅ ª",
		// Non-ASCII digits, punctuation, spaces and comments.
		"٣ x = ٣٤; a → b « c » \u00a0 d \u2028 e // commentaire é → fin\nf",
		// Invalid UTF-8: a lone continuation byte, a truncated sequence.
		"a\x80b \xc3 \xe2\x82 c\xffd",
		"line1\n  line2 é\n\tline3 // c\n\nline5",
		// Positions after multi-byte runes, CRLF line ends, a comment at EOF.
		"é x → y\r\n  变量 z\r\n\r\n// c\r\nw // é\r\n\tq\r",
		"a // no newline at end",
		"\n\n\n  a\n//\n//x\n b",
		"\ufffd x \xef\xbf\xbd y",
	}
	corpus = append(corpus, bundledPrograms(t)...)
	for _, src := range corpus {
		want, wantErr := refTokens(src)
		l := ir.NewLexer(src)
		for i, w := range want {
			if got := l.Next(); got != w {
				t.Errorf("token %d differs on %q:\n got  %+v\n want %+v", i, src, got, w)
				break
			}
		}
		if got := l.Next(); got.Kind != ir.TokEOF {
			t.Errorf("token after EOF on %q: %+v", src, got)
		}
		if fmt.Sprint(l.Err()) != fmt.Sprint(wantErr) {
			t.Errorf("error differs on %q: got %v, want %v", src, l.Err(), wantErr)
		}
	}
}
