package ir

import (
	"math/rand"
	"strings"
	"testing"
)

const hashMacc = `
def macc(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[0](t1, en) @??;
}`

func mustParse(t *testing.T, src string) *Func {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

// TestCanonicalHashAlphaInvariance: renaming internal temporaries never
// changes the hash — that is the normalization the artifact cache relies
// on to coalesce alpha-equivalent kernels.
func TestCanonicalHashAlphaInvariance(t *testing.T) {
	base := mustParse(t, hashMacc)
	renamed := mustParse(t, strings.NewReplacer(
		"t0", "product", "t1", "accum").Replace(hashMacc))
	if got, want := CanonicalHash(renamed), CanonicalHash(base); got != want {
		t.Errorf("alpha-renamed temporaries changed the hash:\n%s\nvs\n%s", got, want)
	}
}

// TestCanonicalHashMutations: any semantic mutation — opcode, width,
// attribute, argument wiring, resource annotation, interface — changes
// the hash.
func TestCanonicalHashMutations(t *testing.T) {
	base := CanonicalHash(mustParse(t, hashMacc))
	mutations := map[string]string{
		"opcode":       strings.Replace(hashMacc, "add(t0, c)", "sub(t0, c)", 1),
		"width":        strings.ReplaceAll(hashMacc, "i8", "i16"),
		"attr":         strings.Replace(hashMacc, "reg[0]", "reg[1]", 1),
		"args":         strings.Replace(hashMacc, "mul(a, b)", "mul(b, a)", 1),
		"resource":     strings.Replace(hashMacc, "mul(a, b) @??", "mul(a, b) @dsp", 1),
		"input-name":   strings.NewReplacer("a:i8,", "aa:i8,", "(a, b)", "(aa, b)").Replace(hashMacc),
		"extra-input":  strings.Replace(hashMacc, "en:bool)", "en:bool, zz:i8)", 1),
		"output-name":  strings.NewReplacer("(y:i8)", "(z:i8)", "y:i8 =", "z:i8 =").Replace(hashMacc),
		"func-name":    strings.Replace(hashMacc, "def macc", "def macc2", 1),
		"extra-instr":  strings.Replace(hashMacc, "y:i8 = reg", "t2:i8 = add(t1, c) @??;\n    y:i8 = reg", 1),
		"order":        strings.NewReplacer("t0:i8 = mul(a, b) @??;", "t1:i8 = add(t0, c) @??;", "t1:i8 = add(t0, c) @??;", "t0:i8 = mul(a, b) @??;").Replace(hashMacc),
		"vector-shape": strings.NewReplacer("i8", "i8<4>", "bool", "bool").Replace(hashMacc),
	}
	seen := map[string]string{base: "base"}
	for label, src := range mutations {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: mutation does not parse: %v\n%s", label, err, src)
		}
		h := CanonicalHash(f)
		if h == base {
			t.Errorf("%s: mutation did not change the hash", label)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("%s: hash collides with %s", label, prev)
		}
		seen[h] = label
	}
}

// TestCanonicalHashWireResourceIgnored: the resource field on wire
// instructions is meaningless (the printer does not even render it), so
// it must not perturb the hash.
func TestCanonicalHashWireResourceIgnored(t *testing.T) {
	src := `def f(a:i8) -> (y:i8) { t0:i8 = sll[1](a); y:i8 = add(t0, a) @??; }`
	f1 := mustParse(t, src)
	f2 := f1.Clone()
	for i := range f2.Body {
		if f2.Body[i].Op.IsWire() {
			f2.Body[i].Res = ResDsp
		}
	}
	if CanonicalHash(f1) != CanonicalHash(f2) {
		t.Error("wire-instruction resource bits changed the hash")
	}
}

// alphaRename rewrites every internal temporary of f with a fresh,
// order-scrambled name, preserving ports.
func alphaRename(f *Func, salt string) *Func {
	ports := map[string]bool{}
	for _, p := range f.Inputs {
		ports[p.Name] = true
	}
	for _, p := range f.Outputs {
		ports[p.Name] = true
	}
	ren := map[string]string{}
	n := 0
	for _, in := range f.Body {
		if !ports[in.Dest] {
			if _, ok := ren[in.Dest]; !ok {
				ren[in.Dest] = "zz" + salt + "_" + in.Dest + "_" + string(rune('a'+n%26))
				n++
			}
		}
	}
	sub := func(name string) string {
		if r, ok := ren[name]; ok {
			return r
		}
		return name
	}
	out := f.Clone()
	for i := range out.Body {
		out.Body[i].Dest = sub(out.Body[i].Dest)
		for j := range out.Body[i].Args {
			out.Body[i].Args[j] = sub(out.Body[i].Args[j])
		}
	}
	return out
}

// TestCanonicalHashPropertyRandom: for a swarm of structurally varied
// functions, alpha renaming is hash-neutral and a targeted single-field
// mutation is not.
func TestCanonicalHashPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	srcs := []string{
		hashMacc,
		`def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }`,
		`def v(a:i8<4>, b:i8<4>) -> (y:i8<4>) { t:i8<4> = mul(a, b) @dsp; y:i8<4> = add(t, a) @??; }`,
		`def w(x:bool) -> (t2:i8) { t0:i8 = const[5]; t1:i8 = sll[1](t0); t2:i8 = add(t0, t1) @??; }`,
		`def m(a:i8, s:bool) -> (y:i8) { t0:i8 = const[3]; y:i8 = mux(s, a, t0) @lut; }`,
	}
	for _, src := range srcs {
		f := mustParse(t, src)
		h := CanonicalHash(f)
		for round := 0; round < 8; round++ {
			if got := CanonicalHash(alphaRename(f, string(rune('a'+round)))); got != h {
				t.Fatalf("alpha-renamed variant of %s hashes differently", f.Name)
			}
		}
		// Mutate one random instruction attribute-or-type field.
		mut := f.Clone()
		i := rng.Intn(len(mut.Body))
		if len(mut.Body[i].Attrs) > 0 {
			mut.Body[i].Attrs = append([]int64(nil), mut.Body[i].Attrs...)
			mut.Body[i].Attrs[0]++
		} else {
			mut.Body[i].Type = Vector(mut.Body[i].Type.Width(), mut.Body[i].Type.Lanes()+1)
		}
		if CanonicalHash(mut) == h {
			t.Fatalf("mutated variant of %s hashes equal", f.Name)
		}
	}
}

// TestCanonicalHashStable: hashing is deterministic across calls and
// across clones.
func TestCanonicalHashStable(t *testing.T) {
	f := mustParse(t, hashMacc)
	h1, h2, h3 := CanonicalHash(f), CanonicalHash(f), CanonicalHash(f.Clone())
	if h1 != h2 || h1 != h3 {
		t.Errorf("hash not stable: %s %s %s", h1, h2, h3)
	}
	if len(h1) != 64 {
		t.Errorf("expected 64 hex chars, got %d", len(h1))
	}
}
