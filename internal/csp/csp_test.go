package csp

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestTrivialAssignment(t *testing.T) {
	var p Problem
	a := p.NewVar("a", []int{1, 2, 3})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol[a] != 1 {
		t.Errorf("a = %d, want smallest value 1", sol[a])
	}
}

func TestAllDifferent(t *testing.T) {
	var p Problem
	vars := make([]Var, 4)
	for i := range vars {
		vars[i] = p.NewVar("v", []int{0, 1, 2, 3})
	}
	p.AddAllDifferent(vars)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, v := range vars {
		if seen[sol[v]] {
			t.Fatalf("duplicate value %d", sol[v])
		}
		seen[sol[v]] = true
	}
}

func TestAllDifferentUnsat(t *testing.T) {
	var p Problem
	vars := make([]Var, 4)
	for i := range vars {
		vars[i] = p.NewVar("v", []int{0, 1, 2})
	}
	p.AddAllDifferent(vars)
	_, err := p.Solve()
	var unsat *ErrUnsat
	if !errors.As(err, &unsat) {
		t.Fatalf("err = %v, want ErrUnsat (pigeonhole)", err)
	}
}

func TestBinaryConstraint(t *testing.T) {
	var p Problem
	a := p.NewVar("a", []int{0, 1, 2, 3})
	b := p.NewVar("b", []int{0, 1, 2, 3})
	p.AddBinary(a, b, func(av, bv int) bool { return bv == av+1 })
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol[b] != sol[a]+1 {
		t.Errorf("a=%d b=%d", sol[a], sol[b])
	}
}

func TestBinaryChain(t *testing.T) {
	// A chain x0+1=x1, x1+1=x2, ... packed into exactly enough room.
	const n = 10
	var p Problem
	vars := make([]Var, n)
	dom := make([]int, n)
	for i := range dom {
		dom[i] = i
	}
	for i := range vars {
		vars[i] = p.NewVar("x", dom)
	}
	for i := 1; i < n; i++ {
		prev, cur := vars[i-1], vars[i]
		p.AddBinary(prev, cur, func(a, b int) bool { return b == a+1 })
	}
	p.AddAllDifferent(vars)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if sol[vars[i]] != sol[vars[i-1]]+1 {
			t.Fatalf("chain broken at %d: %v", i, sol)
		}
	}
}

func TestChainTooLongUnsat(t *testing.T) {
	var p Problem
	dom := []int{0, 1, 2}
	vars := make([]Var, 4)
	for i := range vars {
		vars[i] = p.NewVar("x", dom)
	}
	for i := 1; i < 4; i++ {
		prev, cur := vars[i-1], vars[i]
		p.AddBinary(prev, cur, func(a, b int) bool { return b == a+1 })
	}
	_, err := p.Solve()
	var unsat *ErrUnsat
	if !errors.As(err, &unsat) {
		t.Fatalf("err = %v, want ErrUnsat", err)
	}
}

func TestEmptyDomain(t *testing.T) {
	var p Problem
	p.NewVar("a", nil)
	_, err := p.Solve()
	var unsat *ErrUnsat
	if !errors.As(err, &unsat) {
		t.Fatalf("err = %v, want ErrUnsat", err)
	}
}

func TestStepLimit(t *testing.T) {
	// A dense unsatisfiable graph coloring that forces heavy backtracking.
	var p Problem
	const n = 10
	colors := []int{0, 1, 2}
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = p.NewVar("x", colors)
	}
	// Complete graph K10 is not 3-colorable.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.AddBinary(vars[i], vars[j], func(a, b int) bool { return a != b })
		}
	}
	p.SetMaxSteps(50)
	_, err := p.Solve()
	if err == nil {
		t.Fatal("K10 3-colored")
	}
	var lim *ErrLimit
	var unsat *ErrUnsat
	if !errors.As(err, &lim) && !errors.As(err, &unsat) {
		t.Fatalf("err = %v", err)
	}
}

func TestGraphColoringSat(t *testing.T) {
	// A 5-cycle is 3-colorable.
	var p Problem
	colors := []int{0, 1, 2}
	vars := make([]Var, 5)
	for i := range vars {
		vars[i] = p.NewVar("x", colors)
	}
	for i := 0; i < 5; i++ {
		a, b := vars[i], vars[(i+1)%5]
		p.AddBinary(a, b, func(av, bv int) bool { return av != bv })
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if sol[vars[i]] == sol[vars[(i+1)%5]] {
			t.Fatalf("adjacent same color: %v", sol)
		}
	}
}

func TestDeterminism(t *testing.T) {
	build := func() (*Problem, []Var) {
		var p Problem
		vars := make([]Var, 6)
		dom := []int{5, 3, 1, 4, 2, 0}
		for i := range vars {
			vars[i] = p.NewVar("x", dom)
		}
		p.AddAllDifferent(vars)
		return &p, vars
	}
	p1, v1 := build()
	p2, v2 := build()
	s1, err1 := p1.Solve()
	s2, err2 := p2.Solve()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range v1 {
		if s1[v1[i]] != s2[v2[i]] {
			t.Fatalf("nondeterministic: %v vs %v", s1, s2)
		}
	}
}

func TestSolutionIsLowPacked(t *testing.T) {
	// Values are tried in sorted order, so unconstrained vars take the
	// smallest available values: the shrink pass depends on this.
	var p Problem
	vars := make([]Var, 3)
	for i := range vars {
		vars[i] = p.NewVar("x", []int{9, 7, 5, 3, 1})
	}
	p.AddAllDifferent(vars)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{1: true, 3: true, 5: true}
	for _, v := range vars {
		if !want[sol[v]] {
			t.Errorf("value %d not among three smallest", sol[v])
		}
	}
}

// Property: random permutation domains with all-different always solve when
// domain size >= var count, and solutions are valid.
func TestAllDifferentProperty(t *testing.T) {
	f := func(nVars, extra uint8) bool {
		n := int(nVars%8) + 1
		m := n + int(extra%8)
		dom := make([]int, m)
		for i := range dom {
			dom[i] = i * 3
		}
		var p Problem
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = p.NewVar("x", dom)
		}
		p.AddAllDifferent(vars)
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range vars {
			if seen[sol[v]] {
				return false
			}
			seen[sol[v]] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStepsReported(t *testing.T) {
	var p Problem
	p.NewVar("a", []int{1})
	if _, err := p.Solve(); err != nil {
		t.Fatal(err)
	}
	if p.Steps() < 1 {
		t.Errorf("steps = %d", p.Steps())
	}
}

// NewVar adds a variable over the given candidate values (copied; any
// order, duplicates collapse). The solver tries values in ascending order
// (deterministic low-first packing).
func (p *Problem) NewVar(name string, values []int) Var {
	return p.NewVarIn(name, NewDomain(slices.Clone(values)))
}

// Solve finds an assignment satisfying all constraints, or fails with
// *ErrUnsat / *ErrLimit. The search is deterministic.
func (p *Problem) Solve() ([]int, error) {
	return p.SolveScratch(nil)
}
