package place

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/ir"
)

// randProg emits a random mixed dsp/lut program: `chains` cascade-style
// DSP macro chains (shared coordinate variables, the rigid clusters that
// make placement hard) plus `luts` free lut singletons. All shapes fit
// the dev4 fabric (2 dsp cols x 8 rows, 4 lut cols x 8 rows) with slack,
// so every program is satisfiable and shrink has room to move things.
func randProg(r *rand.Rand) string {
	chains := 1 + r.Intn(3)
	length := 1 + r.Intn(3)
	luts := r.Intn(5)
	var b strings.Builder
	b.WriteString("def f(a:i8, b:i8, in:i8) -> (out:i8) {\n")
	prev := "in"
	for c := 0; c < chains; c++ {
		for i := 0; i < length; i++ {
			dest := fmt.Sprintf("t%d_%d", c, i)
			fmt.Fprintf(&b, "%s:i8 = muladd(a, b, %s) @dsp(x%d, y%d+%d);\n", dest, prev, c, c, i)
			prev = dest
		}
	}
	for l := 0; l < luts; l++ {
		dest := fmt.Sprintf("l%d", l)
		fmt.Fprintf(&b, "%s:i8 = lutadd(%s, a) @lut(??, ??);\n", dest, prev)
		prev = dest
	}
	fmt.Fprintf(&b, "out:i8 = lutadd(%s, b) @lut(??, ??);\n}\n", prev)
	return b.String()
}

// garbageAnchors builds a deliberately wrong anchor set: bogus
// signature, random (possibly out-of-range) anchor slice ids. Nothing
// about it matches any real problem.
func garbageAnchors(r *rand.Rand, n int) *Anchors {
	a := &Anchors{Signature: "not-a-real-signature", ColdSteps: r.Intn(1000)}
	for i := 0; i < n; i++ {
		a.Sol = append(a.Sol, r.Intn(64)-8)
	}
	return a
}

// bboxEqual compares the per-primitive bounding-box extents of two
// results.
func bboxEqual(a, b *Result) bool {
	for _, prim := range []ir.Resource{ir.ResLut, ir.ResDsp} {
		if a.MaxX[prim] != b.MaxX[prim] || a.MaxY[prim] != b.MaxY[prim] {
			return false
		}
	}
	return true
}

// TestHintEquivalenceProperty: over 200+ seeded random programs, hints
// that solve a different problem are ignored — the placement is
// byte-identical to the unhinted solve, never adopted, never degraded.
// Donor anchors rotate between the previous program's real record (the
// realistic stale case: the user edited the program and its structure
// drifted) and pure garbage (the hostile case: a corrupt cache entry).
func TestHintEquivalenceProperty(t *testing.T) {
	d := dev4(t)
	const iters = 210
	var stale *Anchors // previous iteration's real anchors, wrong structure for this one
	for i := 0; i < iters; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		src := randProg(r)
		cold := placeOn(t, d, src, Options{Shrink: true})
		if cold.Anchors == nil {
			t.Fatalf("seed %d: successful shrink placement recorded no anchors", i)
		}

		donors := map[string]*Anchors{
			"garbage": garbageAnchors(r, 1+r.Intn(8)),
		}
		if stale != nil {
			donors["stale"] = stale
		}
		for label, hints := range donors {
			// placeOn runs the satcheck oracle (Verify) on every result.
			hinted := placeOn(t, d, src, Options{Shrink: true, Hints: hints})
			if hinted.Fn.String() != cold.Fn.String() || !bboxEqual(cold, hinted) {
				t.Fatalf("seed %d (%s hints): placement diverged from the unhinted solve\nprogram:\n%s", i, label, src)
			}
			// Two random programs can coincide structurally — then the
			// donor legitimately solves this exact problem and adoption
			// is correct. Only a *different* problem must never adopt.
			if hinted.WarmStart == "adopted" && hints.Signature != cold.Anchors.Signature {
				t.Fatalf("seed %d (%s hints): wrong-structure anchors were adopted outright", i, label)
			}
			if hinted.Degraded {
				t.Fatalf("seed %d (%s hints): hinted solve degraded", i, label)
			}
		}
		stale = cold.Anchors
	}
}

// TestAnchorAdoptionExact: re-placing the identical problem with its own
// recorded anchors adopts them — zero solver steps, WarmStart "adopted",
// and a placed function byte-identical to the cold result. This is the
// contract the pipeline's hint cache leans on for artifact determinism.
func TestAnchorAdoptionExact(t *testing.T) {
	d := dev4(t)
	for _, opts := range []Options{{}, {Shrink: true}} {
		cold := placeOn(t, d, chainProg(3, 2), opts)
		if cold.Anchors == nil {
			t.Fatal("cold placement recorded no anchors")
		}
		warmOpts := opts
		warmOpts.Hints = cold.Anchors
		warm := placeOn(t, d, chainProg(3, 2), warmOpts)
		if warm.WarmStart != "adopted" {
			t.Fatalf("WarmStart = %q, want adopted (shrink=%v)", warm.WarmStart, opts.Shrink)
		}
		if warm.SolverSteps != 0 {
			t.Errorf("adoption spent %d solver steps, want 0", warm.SolverSteps)
		}
		if warm.Fn.String() != cold.Fn.String() {
			t.Errorf("adopted placement differs from cold:\n%s\nvs\n%s", warm.Fn, cold.Fn)
		}
		if !bboxEqual(cold, warm) {
			t.Errorf("adopted bbox differs: x=%v y=%v vs x=%v y=%v",
				warm.MaxX, warm.MaxY, cold.MaxX, cold.MaxY)
		}
		if warm.Anchors == nil || warm.Anchors.ColdSteps != cold.Anchors.ColdSteps {
			t.Errorf("adoption must carry the anchors (and their true cold cost) forward")
		}
	}
}

// TestAdoptionRequiresExactSignature: anchors recorded under different
// options (Shrink differs, so the signature differs) are never adopted:
// they are ignored entirely, so the result is the plain cold result.
func TestAdoptionRequiresExactSignature(t *testing.T) {
	d := dev4(t)
	shrunk := placeOn(t, d, chainProg(3, 2), Options{Shrink: true})
	cold := placeOn(t, d, chainProg(3, 2), Options{})
	warm := placeOn(t, d, chainProg(3, 2), Options{Hints: shrunk.Anchors})
	if warm.WarmStart != "" {
		t.Fatalf("WarmStart = %q, want empty (signature mismatch)", warm.WarmStart)
	}
	if warm.Fn.String() != cold.Fn.String() {
		t.Errorf("mismatched hints changed the placement")
	}
}

// TestAdoptionRevalidates: a hint set with the *right* signature but a
// corrupted solution (what a tampered or bit-rotted disk entry looks
// like) must fail revalidation and fall through to a normal solve.
func TestAdoptionRevalidates(t *testing.T) {
	d := dev4(t)
	cold := placeOn(t, d, chainProg(2, 2), Options{})
	corrupt := &Anchors{
		Signature: cold.Anchors.Signature,
		Sol:       make([]int, len(cold.Anchors.Sol)),
		ColdSteps: cold.Anchors.ColdSteps,
	}
	// All-zero anchors stack both chains on the same slices: overlap.
	warm := placeOn(t, d, chainProg(2, 2), Options{Hints: corrupt})
	if warm.WarmStart == "adopted" {
		t.Fatal("overlapping corrupt anchors were adopted")
	}
	if warm.Fn.String() != cold.Fn.String() {
		t.Errorf("corrupt hints changed the cold placement")
	}
	// Out-of-range ids must be rejected by revalidation, not crash.
	for i := range corrupt.Sol {
		corrupt.Sol[i] = 1 << 20
	}
	warm = placeOn(t, d, chainProg(2, 2), Options{Hints: corrupt})
	if warm.WarmStart == "adopted" {
		t.Fatal("out-of-range anchors were adopted")
	}
}

// TestDegradedRecordsNoAnchors: a budget-truncated placement (greedy
// fallback) must not produce anchors — a degraded layout adopted by
// future compiles would make degradation sticky.
func TestDegradedRecordsNoAnchors(t *testing.T) {
	f, err := asm.Parse(chainProg(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlaceContext(context.Background(), f, dev4(t), Options{MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("MaxSteps=1 did not degrade")
	}
	if res.Anchors != nil {
		t.Errorf("degraded placement recorded anchors: %+v", res.Anchors)
	}
	if res.WarmStart != "" {
		t.Errorf("degraded placement reports WarmStart %q", res.WarmStart)
	}
}
