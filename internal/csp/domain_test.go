package csp

import (
	"slices"
	"sync"
	"testing"
)

// fuzzValues decodes the fuzzer's bytes into candidate values: byte b
// stands for (b-64)*stride, so sets include negatives and duplicates,
// and stride picks between a dense index (1, 3) and values spread too
// far apart for one (1<<20, where index binary-searches).
func fuzzValues(raw []byte, strideSel byte) (values []int, stride int) {
	stride = []int{1, 3, 1 << 20}[int(strideSel)%3]
	for _, b := range raw {
		values = append(values, (int(b)-64)*stride)
	}
	return values, stride
}

// FuzzDomain drives one variable's bitset state through random
// remove / mark / undo-to-mark sequences next to a map[int]bool model:
// after every operation both must agree on the live set, its size,
// membership of every probed value, and the ascending iteration order.
func FuzzDomain(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, byte(0), []byte{0, 4, 2, 8, 12, 3, 16, 3})
	f.Add([]byte{200, 10, 10, 64, 65, 66, 130, 131}, byte(1), []byte{2, 0, 4, 8, 2, 12, 16, 3, 20, 3, 3})
	f.Add([]byte{9, 1, 255, 0, 77}, byte(2), []byte{0, 4, 8, 2, 12, 16, 3, 0})
	f.Add([]byte{}, byte(0), []byte{0, 2, 3})
	wide := make([]byte, 200) // several words of liveness bits
	for i := range wide {
		wide[i] = byte(i)
	}
	f.Add(wide, byte(0), []byte{0, 255, 2, 129, 5, 3, 64, 68, 2, 252, 3, 3})

	f.Fuzz(func(t *testing.T, raw []byte, strideSel byte, ops []byte) {
		values, stride := fuzzValues(raw, strideSel)
		var p Problem
		v := p.NewVar("x", values)
		s := &p.vars[v]
		s.reset(make([]uint64, wordsFor(s.dom.Len())))

		model := map[int]bool{}
		for _, val := range values {
			model[val] = true
		}
		var trail []trailEntry
		var removed []int // the model's trail: values in removal order
		type mark struct{ trail, removed int }
		var marks []mark

		check := func(when string) {
			t.Helper()
			if s.size != len(model) {
				t.Fatalf("%s: size %d, model has %d live", when, s.size, len(model))
			}
			var want, got []int
			for val := range model {
				want = append(want, val)
			}
			slices.Sort(want)
			for i := s.next(0); i >= 0; i = s.next(i + 1) {
				got = append(got, s.dom.vals[i])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: live set iterates as %v, model %v", when, got, want)
			}
			for b := -2; b < 260; b++ { // every candidate, and some that never were
				if val := (b - 64) * stride; s.has(val) != model[val] {
					t.Fatalf("%s: has(%d) = %v, model %v", when, val, s.has(val), model[val])
				}
			}
		}
		check("fresh")
		for i, op := range ops {
			switch op % 4 {
			case 0, 1: // remove a value, in the domain or not
				val := (int(op/4)*5%260 - 66) * stride
				if op%4 == 1 && len(values) > 0 {
					val = values[int(op/4)%len(values)]
				}
				was := model[val]
				if got := p.remove(v, val, &trail); got != was {
					t.Fatalf("op %d: remove(%d) = %v, model had it live: %v", i, val, got, was)
				}
				if was {
					delete(model, val)
					removed = append(removed, val)
				}
			case 2:
				marks = append(marks, mark{len(trail), len(removed)})
			case 3: // undo to the latest mark (or to the start)
				var m mark
				if n := len(marks); n > 0 {
					m, marks = marks[n-1], marks[:n-1]
				}
				p.undo(&trail, m.trail)
				for _, val := range removed[m.removed:] {
					model[val] = true
				}
				removed = removed[:m.removed]
				if len(trail) != m.trail {
					t.Fatalf("op %d: undo left %d trail entries, want %d", i, len(trail), m.trail)
				}
			}
			check("after op")
		}
	})
}

// sharedPool builds an all-different pool of n singletons and two
// 3-cell macros, every variable over the one dom handed in.
func sharedPool(dom *Domain, n int) *Problem {
	var p Problem
	singles := make([]Var, n)
	for i := range singles {
		singles[i] = p.NewVarIn("s", dom)
	}
	p.AddAllDifferent(singles)
	for m := 0; m < 2; m++ {
		mv := p.NewVarIn("m", dom)
		for _, s := range singles {
			p.AddBinary(mv, s, func(av, bv int) bool { return bv < av || bv > av+2 })
		}
	}
	return &p
}

// TestSharedDomain: a Domain carries no solver state. Two variables over
// one *Domain prune independently, and two problems sharing it can be
// solved at the same time (run under -race) with the answers a lone
// solve gives.
func TestSharedDomain(t *testing.T) {
	values := make([]int, 150)
	for i := range values {
		values[i] = i * 2
	}
	dom := NewDomain(slices.Clone(values))

	var p Problem
	a, b := p.NewVarIn("a", dom), p.NewVarIn("b", dom)
	for _, v := range []Var{a, b} {
		p.vars[v].reset(make([]uint64, wordsFor(dom.Len())))
	}
	var trail []trailEntry
	for _, val := range []int{0, 64, 128, 298} {
		if !p.remove(a, val, &trail) {
			t.Fatalf("remove(a, %d) found nothing to remove", val)
		}
		if !p.vars[b].has(val) || p.vars[b].size != len(values) {
			t.Fatalf("pruning %d from a changed b (size %d, has %v)", val, p.vars[b].size, p.vars[b].has(val))
		}
	}
	if !slices.Equal(dom.vals, values) {
		t.Fatal("pruning a variable changed the shared Domain")
	}
	p.undo(&trail, 0)
	if p.vars[a].size != len(values) {
		t.Fatalf("undo restored %d of %d values", p.vars[a].size, len(values))
	}

	want, err := sharedPool(dom, 40).Solve()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := sharedPool(dom, 40).Solve()
				if err != nil || !slices.Equal(got, want) {
					t.Errorf("concurrent solve over a shared Domain: %v, err %v; want %v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSolveIsRepeatable: liveness lives in the scratch, so solving one
// Problem twice gives the same answer and the same step count.
func TestSolveIsRepeatable(t *testing.T) {
	p := benchProblem()
	first, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	steps := p.Steps()
	second, err := p.Solve()
	if err != nil || !slices.Equal(first, second) || p.Steps() != steps {
		t.Fatalf("second solve: %v in %d steps (err %v), first %v in %d", second, p.Steps(), err, first, steps)
	}
}

// TestNewDomainSparse: values too spread out for a dense index still
// look up correctly, duplicates collapse, and order is ascending.
func TestNewDomainSparse(t *testing.T) {
	d := NewDomain([]int{1 << 40, -5, 7, 7, -(1 << 40), 1 << 40})
	if d.dense != nil {
		t.Fatal("a 2^41-wide range got a dense index")
	}
	if want := []int{-(1 << 40), -5, 7, 1 << 40}; !slices.Equal(d.vals, want) {
		t.Fatalf("vals = %v, want %v", d.vals, want)
	}
	for i, v := range d.vals {
		if d.index(v) != i {
			t.Fatalf("index(%d) = %d, want %d", v, d.index(v), i)
		}
	}
	for _, v := range []int{0, NoHint, 6, 1<<40 + 1} {
		if d.index(v) != -1 {
			t.Fatalf("index(%d) = %d for a value not in the domain", v, d.index(v))
		}
	}
}
