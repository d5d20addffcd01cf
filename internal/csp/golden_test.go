package csp

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/solve.golden")

// goldenSeeds is how many seeded problems solve.golden records.
const goldenSeeds = 400

// goldenProblem builds a placement-shaped problem from a seed: a pool of
// singletons under all-different (some pinned to a literal or a window,
// the way xlit/ylit filter an anchor domain), rigid macros of 2-4 cells
// under pairwise non-overlap with each other and with every singleton,
// partial warm-start hints (in-domain, out-of-domain, absent), and a step
// limit low enough that the deep cases end in ErrLimit. Every tenth seed
// also installs an interrupt. Domains are handed over in shuffled order
// so value order is the solver's doing.
func goldenProblem(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	p := &Problem{}
	size := 4 + rng.Intn(44)
	fill := 60 + rng.Intn(50) // percent of the cells the clusters need
	pinned := true            // some singletons get a literal or a window
	switch {
	case seed%10 == 9: // hopeless and deep: there to be interrupted
		size, fill, pinned = 10+rng.Intn(8), 120, false
	case seed%5 == 2: // just over full and small: UNSAT proofs with real depth
		size, fill, pinned = 5+rng.Intn(5), 100+rng.Intn(25), false
	case seed%4 == 0: // small enough to settle within the limit either way
		size = 3 + rng.Intn(5)
	}
	shuffled := func(lo, hi int) []int {
		dom := make([]int, 0, hi-lo)
		for v := lo; v < hi; v++ {
			dom = append(dom, v)
		}
		rng.Shuffle(len(dom), func(i, j int) { dom[i], dom[j] = dom[j], dom[i] })
		return dom
	}

	// Macros first, then enough singletons to reach the fill: tight
	// packings are where the search backtracks.
	nMacros := rng.Intn(5)
	macros := make([]Var, nMacros)
	lens := make([]int, nMacros)
	cells := 0
	for i := range macros {
		lens[i] = 2 + rng.Intn(3)
		cells += lens[i]
		macros[i] = p.NewVar(fmt.Sprintf("m%d", i), shuffled(0, max(1, size-lens[i]+1)))
	}
	nSingles := max(0, (size*fill+99)/100-cells)
	singles := make([]Var, nSingles)
	for i := range singles {
		dom := shuffled(0, size)
		if kind := rng.Intn(12); pinned && kind == 0 { // literal
			dom = []int{rng.Intn(size)}
		} else if pinned && kind <= 2 { // window
			lo := rng.Intn(size)
			dom = shuffled(lo, lo+1+rng.Intn(size-lo))
		}
		singles[i] = p.NewVar(fmt.Sprintf("s%d", i), dom)
	}
	if nSingles > 1 {
		p.AddAllDifferent(singles)
	}
	for i := range macros {
		li := lens[i]
		for j := i + 1; j < nMacros; j++ {
			lj := lens[j]
			p.AddBinary(macros[i], macros[j], func(av, bv int) bool {
				return av+li <= bv || bv+lj <= av
			})
		}
		for _, s := range singles {
			p.AddBinary(macros[i], s, func(av, bv int) bool {
				return bv < av || bv >= av+li
			})
		}
	}

	if n := nSingles + nMacros; rng.Intn(3) != 0 {
		hints := make([]int, n)
		for i := range hints {
			switch rng.Intn(4) {
			case 0:
				hints[i] = NoHint
			case 1:
				hints[i] = size + rng.Intn(5) // in no domain
			default:
				hints[i] = rng.Intn(size)
			}
		}
		p.SetHints(hints[:rng.Intn(n+1)]) // short vectors mean NoHint for the rest
	}

	p.SetMaxSteps([]int{40, 300, 3000}[rng.Intn(3)])
	if seed%10 == 9 {
		// Polled every interruptStride steps; fires on the first to third.
		polls := 1 + rng.Intn(3)
		p.SetMaxSteps(5000)
		p.SetInterrupt(func() bool { polls--; return polls == 0 })
	}
	return p
}

// goldenLine renders one solve the way solve.golden records it.
func goldenLine(seed int64, p *Problem, sol []int, err error) string {
	kind := "ok"
	var unsat *ErrUnsat
	var limit *ErrLimit
	var intr *ErrInterrupted
	switch {
	case errors.As(err, &unsat):
		kind = "unsat"
	case errors.As(err, &limit):
		kind = fmt.Sprintf("limit@%d", limit.Steps)
	case errors.As(err, &intr):
		kind = fmt.Sprintf("interrupted@%d", intr.Steps)
	case err != nil:
		kind = "error:" + err.Error()
	}
	return fmt.Sprintf("seed=%d %s steps=%d hints=%d/%d sol=%v",
		seed, kind, p.Steps(), p.HintHits(), p.HintsTried(), sol)
}

// TestSolveGolden replays the seeded problems against the behaviour
// recorded from the map-and-swap domain representation this package used
// before domains became shared bitsets: assignment, step count, hint
// statistics and error kind must repeat to the digit, since placement's
// byte-identity (and every cached artifact) rests on them.
func TestSolveGolden(t *testing.T) {
	var buf bytes.Buffer
	kinds := map[string]int{}
	var sc Scratch
	for seed := int64(0); seed < goldenSeeds; seed++ {
		p := goldenProblem(seed)
		var sol []int
		var err error
		if seed%2 == 0 {
			sol, err = p.Solve()
		} else {
			sol, err = p.SolveScratch(&sc)
		}
		line := goldenLine(seed, p, sol, err)
		kinds[strings.SplitN(strings.Fields(line)[1], "@", 2)[0]]++
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	for _, k := range []string{"ok", "unsat", "limit", "interrupted"} {
		if kinds[k] < 15 {
			t.Errorf("only %d %q outcomes in %d seeds: the generator no longer covers that path (%v)",
				kinds[k], k, goldenSeeds, kinds)
		}
	}
	if len(kinds) != 4 {
		t.Errorf("unexpected outcome kinds: %v", kinds)
	}

	path := filepath.Join("testdata", "solve.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %v", path, kinds)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("solver behaviour drifted from %s, %s", path, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line on which two golden texts part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
