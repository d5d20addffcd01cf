package csp

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// buildRandom constructs a deterministic pseudo-random problem from a
// seed: nvars variables over small domains, one all-different group over
// a prefix, and a handful of modular binary constraints. Both hinted and
// unhinted solves of the same seed see an identical problem.
func buildRandom(seed int64) (*Problem, []Var) {
	rng := rand.New(rand.NewSource(seed))
	var p Problem
	nvars := 2 + rng.Intn(5)
	vars := make([]Var, nvars)
	for i := range vars {
		size := 2 + rng.Intn(6)
		dom := make([]int, size)
		for j := range dom {
			dom[j] = rng.Intn(12)
		}
		// Dedup while preserving order; domains must not repeat values.
		seen := map[int]bool{}
		uniq := dom[:0]
		for _, v := range dom {
			if !seen[v] {
				seen[v] = true
				uniq = append(uniq, v)
			}
		}
		vars[i] = p.NewVar(fmt.Sprintf("v%d", i), uniq)
	}
	if g := 2 + rng.Intn(nvars); g >= 2 && g <= nvars {
		p.AddAllDifferent(vars[:g])
	}
	for k := 0; k < 1+rng.Intn(4); k++ {
		a, b := rng.Intn(nvars), rng.Intn(nvars)
		if a == b {
			continue
		}
		m := 2 + rng.Intn(4)
		r := rng.Intn(m)
		p.AddBinary(vars[a], vars[b], func(av, bv int) bool {
			return (av+bv)%m != r
		})
	}
	return &p, vars
}

// randomHints derives a hint vector from the seed: a mix of plausible
// values, out-of-domain junk, and NoHint entries.
func randomHints(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed * 31))
	hints := make([]int, n)
	for i := range hints {
		switch rng.Intn(3) {
		case 0:
			hints[i] = NoHint
		case 1:
			hints[i] = rng.Intn(12)
		default:
			hints[i] = 100 + rng.Intn(10) // never in any domain
		}
	}
	return hints
}

// TestHintedAgreesWithUnhinted is the core warm-start safety property:
// hints reorder value selection but never change satisfiability.
func TestHintedAgreesWithUnhinted(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		plain, _ := buildRandom(seed)
		plainSol, plainErr := plain.Solve()

		hinted, hv := buildRandom(seed)
		hinted.SetHints(randomHints(seed, len(hv)))
		hintedSol, hintedErr := hinted.Solve()

		if (plainErr == nil) != (hintedErr == nil) {
			t.Fatalf("seed %d: unhinted err=%v, hinted err=%v", seed, plainErr, hintedErr)
		}
		if plainErr != nil {
			var pu, hu *ErrUnsat
			if errors.As(plainErr, &pu) != errors.As(hintedErr, &hu) {
				t.Fatalf("seed %d: error kinds differ: %v vs %v", seed, plainErr, hintedErr)
			}
			continue
		}
		// Both solutions must satisfy the constraints; re-check the hinted
		// one by replaying it as a full consistent hint vector.
		check, cv := buildRandom(seed)
		full := make([]int, len(cv))
		for i, v := range cv {
			full[i] = hintedSol[v]
		}
		check.SetHints(full)
		sol, err := check.Solve()
		if err != nil {
			t.Fatalf("seed %d: hinted solution does not re-solve: %v", seed, err)
		}
		for i, v := range cv {
			if sol[v] != full[i] {
				t.Fatalf("seed %d: consistent full hints not kept: var %d = %d, hint %d",
					seed, i, sol[v], full[i])
			}
		}
		_ = plainSol
	}
}

// TestHintDeterminism: same problem, same hints, same solution — twice.
func TestHintDeterminism(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		var sols [2][]int
		var errs [2]error
		for round := 0; round < 2; round++ {
			p, v := buildRandom(seed)
			p.SetHints(randomHints(seed, len(v)))
			sols[round], errs[round] = p.Solve()
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("seed %d: errors differ: %v vs %v", seed, errs[0], errs[1])
		}
		if errs[0] != nil {
			continue
		}
		if len(sols[0]) != len(sols[1]) {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		for i := range sols[0] {
			if sols[0][i] != sols[1][i] {
				t.Fatalf("seed %d: solutions differ at %d: %d vs %d", seed, i, sols[0][i], sols[1][i])
			}
		}
	}
}

// TestHintTakenWhenConsistent: a fully consistent hint assignment is
// returned verbatim, in near-linear steps (one per variable).
func TestHintTakenWhenConsistent(t *testing.T) {
	var p Problem
	vars := make([]Var, 6)
	for i := range vars {
		vars[i] = p.NewVar("v", []int{0, 1, 2, 3, 4, 5})
	}
	p.AddAllDifferent(vars)
	hints := []int{5, 4, 3, 2, 1, 0} // valid but the opposite of low-first
	p.SetHints(hints)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vars {
		if sol[v] != hints[i] {
			t.Errorf("var %d = %d, want hint %d", i, sol[v], hints[i])
		}
	}
	if p.Steps() != len(vars) {
		t.Errorf("steps = %d, want %d (one per variable, no backtracking)", p.Steps(), len(vars))
	}
	if p.HintsTried() != 6 || p.HintHits() != 6 {
		t.Errorf("hint stats = %d/%d, want 6/6", p.HintHits(), p.HintsTried())
	}
}

// TestHintIgnoredWhenAbsent: hints outside the domain or NoHint entries
// fall back to plain low-first order.
func TestHintIgnoredWhenAbsent(t *testing.T) {
	var p Problem
	a := p.NewVar("a", []int{3, 1, 2})
	b := p.NewVar("b", []int{1, 2})
	p.SetHints([]int{99, NoHint})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol[a] != 1 || sol[b] != 1 {
		t.Errorf("sol = %v, want low-first {1,1}", []int{sol[a], sol[b]})
	}
	// The out-of-domain hint counts as tried-but-missed (a stale anchor
	// pruned by tightened bounds is a genuine warm-start miss); the
	// NoHint entry is not tried at all.
	if p.HintsTried() != 1 || p.HintHits() != 0 {
		t.Errorf("hint stats = %d/%d, want 0/1", p.HintHits(), p.HintsTried())
	}
}

// pigeonhole builds an unsatisfiable problem (n variables, n-1 values)
// whose refutation takes a large exhaustive search.
func pigeonhole(n int) *Problem {
	var p Problem
	vars := make([]Var, n)
	dom := make([]int, n-1)
	for i := range dom {
		dom[i] = i
	}
	for i := range vars {
		vars[i] = p.NewVar("p", dom)
	}
	p.AddAllDifferent(vars)
	return &p
}

// TestErrLimitAccountingUnderHints: exhausting the step budget reports
// exactly the budget, hinted or not — hints reorder the search, they do
// not change how steps are counted or when the limit fires.
func TestErrLimitAccountingUnderHints(t *testing.T) {
	for _, hinted := range []bool{false, true} {
		p := pigeonhole(12)
		p.SetMaxSteps(500)
		if hinted {
			hints := make([]int, 12)
			for i := range hints {
				hints[i] = (i * 3) % 11
			}
			p.SetHints(hints)
		}
		_, err := p.Solve()
		var limit *ErrLimit
		if !errors.As(err, &limit) {
			t.Fatalf("hinted=%v: err = %v, want *ErrLimit", hinted, err)
		}
		if limit.Steps != 500 || p.Steps() != 500 {
			t.Errorf("hinted=%v: steps = %d/%d, want exactly 500", hinted, limit.Steps, p.Steps())
		}
	}
}

// TestErrInterruptedAccountingUnderHints: the interrupt poll fires on
// the same stride with and without hints.
func TestErrInterruptedAccountingUnderHints(t *testing.T) {
	for _, hinted := range []bool{false, true} {
		p := pigeonhole(12)
		p.SetInterrupt(func() bool { return true })
		if hinted {
			hints := make([]int, 12)
			for i := range hints {
				hints[i] = (i * 5) % 11
			}
			p.SetHints(hints)
		}
		_, err := p.Solve()
		var intr *ErrInterrupted
		if !errors.As(err, &intr) {
			t.Fatalf("hinted=%v: err = %v, want *ErrInterrupted", hinted, err)
		}
		if intr.Steps != interruptStride {
			t.Errorf("hinted=%v: interrupted after %d steps, want first poll at %d",
				hinted, intr.Steps, interruptStride)
		}
	}
}

// TestScratchReuse: recycling one Scratch across solves neither changes
// results nor lets a later solve clobber an earlier returned solution.
func TestScratchReuse(t *testing.T) {
	var sc Scratch
	var first []int
	for seed := int64(0); seed < 50; seed++ {
		p, _ := buildRandom(seed)
		got, gotErr := p.SolveScratch(&sc)

		q, _ := buildRandom(seed)
		want, wantErr := q.Solve()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: scratch err=%v, fresh err=%v", seed, gotErr, wantErr)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: scratch solve differs at %d", seed, i)
			}
		}
		if seed == 0 && gotErr == nil {
			first = got
		}
	}
	if first != nil {
		p, _ := buildRandom(0)
		want, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i] != want[i] {
				t.Fatalf("earlier solution was clobbered by scratch reuse at %d", i)
			}
		}
	}
}

// TestAddBinaryAsymmetric pins the direction semantics of the shared
// allow func: the constraint must propagate correctly both ways even
// though only one closure is stored (flip flag, not a wrapper).
func TestAddBinaryAsymmetric(t *testing.T) {
	// a < b, with a's domain forcing propagation through the flipped
	// direction first (b gets assigned before a under MRV).
	var p Problem
	a := p.NewVar("a", []int{0, 1, 2, 3, 4})
	b := p.NewVar("b", []int{4, 3})
	p.AddBinary(a, b, func(av, bv int) bool { return av < bv })
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol[a] >= sol[b] {
		t.Errorf("constraint violated: a=%d b=%d", sol[a], sol[b])
	}
	if sol[a] != 0 || sol[b] != 3 {
		t.Errorf("sol = a=%d b=%d, want low-first a=0 b=3", sol[a], sol[b])
	}
}

// benchProblem is a placement-shaped workload: an all-different pool of
// singletons plus pairwise non-overlap "macro" constraints.
func benchProblem() *Problem {
	var p Problem
	dom := make([]int, 48)
	for i := range dom {
		dom[i] = i
	}
	singles := make([]Var, 12)
	for i := range singles {
		singles[i] = p.NewVar("s", dom)
	}
	p.AddAllDifferent(singles)
	macros := make([]Var, 6)
	for i := range macros {
		macros[i] = p.NewVar("m", dom)
	}
	for i := range macros {
		for j := i + 1; j < len(macros); j++ {
			p.AddBinary(macros[i], macros[j], func(av, bv int) bool {
				d := av - bv
				return d > 3 || d < -3 // 4-slot macros must not overlap
			})
		}
		for _, s := range singles {
			m := macros[i]
			p.AddBinary(m, s, func(av, bv int) bool {
				return bv < av || bv > av+3
			})
		}
	}
	return &p
}

// BenchmarkSolve measures the solver inner loop on a placement-shaped
// problem (all-different pool + pairwise non-overlap macros) — the
// satellite benchmark for the AddBinary closure fix and the presorted
// domain iteration.
func BenchmarkSolve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := benchProblem()
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWarm measures the same problem warm-started from its own
// solution with recycled scratch buffers — the shrink-probe shape. The
// problem is built and hinted outside the timer (a Problem can be solved
// again: liveness lives in the scratch), so what is timed and counted is
// the warm solve alone, not benchProblem's construction.
func BenchmarkSolveWarm(b *testing.B) {
	p := benchProblem()
	sol, err := p.Solve()
	if err != nil {
		b.Fatal(err)
	}
	p.SetHints(sol)
	var sc Scratch
	if _, err := p.SolveScratch(&sc); err != nil { // size the scratch once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveScratch(&sc); err != nil {
			b.Fatal(err)
		}
	}
}
