package codegen_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/codegen"
	"reticle/internal/ir"
	"reticle/internal/tdl"
	"reticle/internal/verilog"
)

// wellFormed parses a module and checks that every identifier it
// declares — port, wire, reg, instance — is unique, ASCII and not a
// Verilog-2005 keyword, and that the module name is an identifier.
func wellFormed(text string) error {
	m, err := verilog.ParseModule(text)
	if err != nil {
		return err
	}
	if !verilog.IsIdent(m.Name) {
		return fmt.Errorf("module name %q is not an identifier", m.Name)
	}
	seen := map[string]bool{}
	declare := func(name string) error {
		if !verilog.IsIdent(name) {
			return fmt.Errorf("%q is not an ASCII identifier or is a keyword", name)
		}
		if seen[name] {
			return fmt.Errorf("%q is declared twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, p := range m.Ports {
		if err := declare(p.Name); err != nil {
			return err
		}
	}
	for _, it := range m.Items {
		var err error
		switch it := it.(type) {
		case verilog.Wire:
			err = declare(it.Name)
		case verilog.Reg:
			err = declare(it.Name)
		case verilog.Instance:
			err = declare(it.Name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// probes are valid programs the reference emitter turns into invalid
// Verilog. The IR ones are a generated instance name equal to a value
// name, a keyword value name and a non-ASCII value name; the placed
// ones (ultrascale) meet each other rule of the up-front name scan: a
// value named "clk", "dsp" or "dsp_"+v, one starting with "_", and one
// extending a body-stepped value's name by a digit.
var probes = []string{`
def p1(a:i8, b:i8) -> (x:i8, x_lut0:i8) {
    x:i8 = and(a, b) @lut;
    x_lut0:i8 = or(a, b) @lut;
}`, `
def p2(a:i8, b:i8) -> (y:i8) {
    wire:i8 = and(a, b) @lut;
    y:i8 = or(wire, b) @lut;
}`, `
def p3(a:i8, b:i8) -> (y:i8) {
    é:i8 = and(a, b) @lut;
    y:i8 = or(é, b) @lut;
}`}

var placedProbes = []string{`
def clock(clk:i8, en:bool) -> (y:i8) {
    y:i8 = lut_reg_i8[0](clk, en) @lut(0, 0);
}`, `
def dsp(a:i8, b:i8) -> (dsp:i8, lut0:i8) {
    dsp:i8 = lut_and_i8(a, b) @lut(0, 0);
    lut0:i8 = dsp_add_i8(a, b) @dsp(0, 0);
}`, `
def dspx(a:i8, b:i8) -> (x:i8, dsp_x:i8) {
    x:i8 = dsp_add_i8(a, b) @dsp(0, 0);
    dsp_x:i8 = lut_and_i8(a, b) @lut(0, 0);
}`, `
def under(a:i8, b:i8, en:bool) -> (x:i8, _x1:i8) {
    x:i8 = lut_addrega_i8[0](a, b, en) @lut(0, 0);
    _x1:i8 = lut_and_i8(a, b) @lut(0, 1);
}`, `
def digits(a:i8, b:i8, en:bool) -> (t12:i8, t1:i8) {
    t12:i8 = lut_addrega_i8[0](a, b, en) @lut(0, 0);
    u0:i8 = lut_addrega_i8[0](a, b, en) @lut(0, 1);
    s0:i8 = lut_add_i8(a, b) @lut(0, 2);
    s1:i8 = lut_add_i8(a, b) @lut(0, 3);
    s2:i8 = lut_add_i8(a, b) @lut(0, 4);
    s3:i8 = lut_add_i8(a, b) @lut(0, 5);
    s4:i8 = lut_add_i8(a, b) @lut(0, 6);
    s5:i8 = lut_add_i8(a, b) @lut(0, 7);
    s6:i8 = lut_add_i8(a, b) @lut(0, 8);
    t1:i8 = lut_addrega_i8[0](a, b, en) @lut(0, 9);
}`}

// probeCases places the IR probes on both families and parses the
// placed ones.
func probeCases(t *testing.T) []emitCase {
	t.Helper()
	cfgs, err := familyConfigs()
	if err != nil {
		t.Fatal(err)
	}
	var cases []emitCase
	for i, src := range probes {
		f, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			placed, err := placeFor(cfg, f)
			if err != nil {
				t.Fatalf("probe %d: %v", i+1, err)
			}
			cases = append(cases, emitCase{fmt.Sprintf("probe %d", i+1), cfg.Target.Name, placed, cfg.Target})
		}
	}
	for _, src := range placedProbes {
		f, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, emitCase{"probe " + f.Name, cfgs[0].Target.Name, f, cfgs[0].Target})
	}
	return cases
}

// TestVerilogWellFormed parses every module of the emit corpus and the
// probes and checks its declarations. Every probe must also be one the
// reference emitter gets wrong, or it no longer probes anything.
func TestVerilogWellFormed(t *testing.T) {
	probes := probeCases(t)
	for _, c := range probes {
		m, _, err := refGenerate(c.placed, c.target)
		if err != nil {
			t.Fatalf("%s %s: %v", c.name, c.family, err)
		}
		if wellFormed(m.String()) == nil {
			t.Errorf("%s %s: the reference emitter already writes a well-formed module", c.name, c.family)
		}
	}
	for _, c := range append(emitCorpus(t), probes...) {
		v, _, err := codegen.Generate(c.placed, c.target)
		if err != nil {
			t.Fatalf("%s %s: %v", c.name, c.family, err)
		}
		if err := wellFormed(v.String()); err != nil {
			t.Errorf("%s %s: %v\n%s", c.name, c.family, err, v)
		}
	}
}

// collidingTemplate exercises every generated-name family: LUT logic,
// multi-step LUT operations (add then register), carry chains,
// comparators, a LUT multiplier, DSP instances and wire instructions.
const collidingTemplate = `
def f(a:i8, b:i8, en:bool) -> (y:i8, z:i8, c:bool, m:i4, d:i8) {
    s0:i8 = add(a, b) @lut;
    y:i8 = reg[0](s0, en) @lut;
    s1:i8 = add(y, b) @lut;
    z:i8 = reg[1](s1, en) @lut;
    c:bool = lt(a, z) @lut;
    n:i8 = mux(c, a, b) @lut;
    o:i8 = not(n) @lut;
    q:i8 = sub(o, a) @lut;
    a4:i4 = slice[3, 0](a);
    b4:i4 = slice[7, 4](q);
    m:i4 = mul(a4, b4) @lut;
    d:i8 = mul(q, b) @dsp;
}`

// trickyName draws a value name built to meet generated names: a base,
// extensions that spell generated suffixes, and prefixes that spell
// fresh wires and DSP instances, or a keyword, "clk" or a non-ASCII name.
// A tame name has no prefix, no special and fewer extensions, so that
// whole programs of them often pass the up-front scan.
func trickyName(rng *rand.Rand, tame bool) string {
	prefixes := []string{"", "", "", "_", "__", "dsp_"}
	bases := []string{"a", "t1", "x"}
	exts := []string{"", "", "1", "2", "12", "_1", "_lut0", "_lut1", "_p", "_p1", "_p2", "_co2",
		"_cmp", "_cmp1", "_cc1", "_carry0", "_cmp_carry0", "_ff0", "_pp0_1", "_pp1", "_sh1", "_acc1"}
	specials := []string{"clk", "dsp", "wire", "reg", "module", "é", "xé"}
	if tame {
		prefixes, specials = []string{""}, nil
		exts = []string{"", "1", "2", "12", "21", "b", "_lut0", "_p1", "_carry0"}
	}
	if len(specials) > 0 && rng.Intn(8) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	name := prefixes[rng.Intn(len(prefixes))] + bases[rng.Intn(len(bases))] + exts[rng.Intn(len(exts))]
	if rng.Intn(3) == 0 {
		name += exts[rng.Intn(len(exts))]
	}
	return name
}

// renameValues returns f with every input and destination renamed to a
// distinct tricky name.
func renameValues(f *asm.Func, rng *rand.Rand, tame bool) *asm.Func {
	f = f.Clone()
	to := map[string]string{}
	used := map[string]bool{}
	pick := func(old string) string {
		name := trickyName(rng, tame)
		for used[name] {
			name = trickyName(rng, tame) + trickyName(rng, true)
		}
		used[name] = true
		to[old] = name
		return name
	}
	for i := range f.Inputs {
		f.Inputs[i].Name = pick(f.Inputs[i].Name)
	}
	for i := range f.Body {
		f.Body[i].Dest = pick(f.Body[i].Dest)
	}
	for i := range f.Outputs {
		f.Outputs[i].Name = to[f.Outputs[i].Name]
	}
	for i := range f.Body {
		for j, a := range f.Body[i].Args {
			f.Body[i].Args[j] = to[a]
		}
	}
	return f
}

// TestNamingPaths renames the values of placed programs to names built
// to meet generated ones. The checked path must always give a
// well-formed module, and wherever the up-front scan picks the unchecked
// path, that path must write the same bytes.
func TestNamingPaths(t *testing.T) {
	cfgs, err := familyConfigs()
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := ir.Parse(collidingTemplate)
	if err != nil {
		t.Fatal(err)
	}
	var checked, unchecked int
	for _, cfg := range cfgs {
		var programs []*asm.Func
		for seed := int64(0); seed < 20; seed++ {
			for _, f := range []*ir.Func{tmpl, seedProgram(seed)} {
				placed, err := placeFor(cfg, f)
				if err != nil {
					continue
				}
				programs = append(programs, placed)
			}
		}
		rng := rand.New(rand.NewSource(1))
		for i, placed := range programs {
			for round := 0; round < 10; round++ {
				f := renameValues(placed, rng, round%2 == 1)
				name := fmt.Sprintf("%s program %d round %d", cfg.Target.Name, i, round)
				checkPaths(t, name, f, cfg.Target, &checked, &unchecked)
			}
		}
	}
	if checked == 0 || unchecked == 0 {
		t.Errorf("the scan chose the checked path %d times and the unchecked %d: both must be exercised", checked, unchecked)
	}
}

func checkPaths(t *testing.T, name string, f *asm.Func, target *tdl.Target, checked, unchecked *int) {
	t.Helper()
	vc, stc, err := codegen.GenerateChecked(f, target)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := wellFormed(vc.String()); err != nil {
		t.Fatalf("%s: checked path: %v\n%s\n%s", name, err, f, vc)
	}
	if codegen.MayCollide(f, target) {
		*checked++
		return
	}
	*unchecked++
	vu, stu, err := codegen.GenerateUnchecked(f, target)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if vu.String() != vc.String() || stu != stc {
		t.Fatalf("%s: the scan chose the unchecked path, which differs from the checked one\n%s\n%s", name, f, vu)
	}
}

// TestGeneratedNameShapes pins the shapes of generated identifiers that
// the up-front name scan is derived from, on every module the scan lets
// through unchecked. Each declared identifier that is not a value name
// must be "clk", "dsp_"+v, or v+t or "_"...+v+t, where v is a value name
// and the tail t starts with '_' — or, after a leading '_', with a digit
// when v's LUT operation has more than one body step. A generated name
// of a new shape fails here on the fixed corpus, not only on a renamed
// program that happens to meet it; the scan must then learn the shape.
func TestGeneratedNameShapes(t *testing.T) {
	cfgs, err := familyConfigs()
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := ir.Parse(collidingTemplate)
	if err != nil {
		t.Fatal(err)
	}
	cases := emitCorpus(t)
	for _, cfg := range cfgs {
		placed, err := placeFor(cfg, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, emitCase{"collidingTemplate", cfg.Target.Name, placed, cfg.Target})
	}
	for _, c := range cases {
		if codegen.MayCollide(c.placed, c.target) {
			t.Fatalf("%s %s: the scan sends a corpus module down the checked path", c.name, c.family)
		}
		v, _, err := codegen.Generate(c.placed, c.target)
		if err != nil {
			t.Fatalf("%s %s: %v", c.name, c.family, err)
		}
		m, err := verilog.ParseModule(v.String())
		if err != nil {
			t.Fatalf("%s %s: %v", c.name, c.family, err)
		}
		values, stepped := valueNames(c.placed, c.target)
		var names []string
		for _, it := range m.Items {
			switch it := it.(type) {
			case verilog.Wire:
				names = append(names, it.Name)
			case verilog.Instance:
				names = append(names, it.Name)
			}
		}
		for _, p := range m.Ports {
			names = append(names, p.Name)
		}
		for _, n := range names {
			if !values[n] && !knownShape(n, values, stepped) {
				t.Errorf("%s %s: generated name %q has a shape the name scan does not know", c.name, c.family, n)
			}
		}
	}
}

// valueNames returns the value names of f, and those of its LUT
// instructions whose operation has more than one body step.
func valueNames(f *asm.Func, target *tdl.Target) (values, stepped map[string]bool) {
	values, stepped = map[string]bool{}, map[string]bool{}
	for _, p := range f.Inputs {
		values[p.Name] = true
	}
	for _, in := range f.Body {
		values[in.Dest] = true
		if def, ok := target.Lookup(in.Name); ok && !in.IsWire() && in.Loc.Prim == ir.ResLut && len(def.Body) > 1 {
			stepped[in.Dest] = true
		}
	}
	return values, stepped
}

func knownShape(n string, values, stepped map[string]bool) bool {
	if v, ok := strings.CutPrefix(n, "dsp_"); n == "clk" || ok && values[v] {
		return true
	}
	rest := strings.TrimLeft(n, "_")
	fresh := len(rest) < len(n)
	for k := 1; k < len(rest); k++ {
		v, c := rest[:k], rest[k]
		if values[v] && (c == '_' || fresh && stepped[v] && '0' <= c && c <= '9') {
			return true
		}
	}
	return false
}
