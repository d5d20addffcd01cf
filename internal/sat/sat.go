// Package sat is a CDCL (conflict-driven clause learning) SAT solver:
// two-literal watching, first-UIP conflict analysis, non-chronological
// backjumping, and restarts.
//
// The paper solves instruction placement with "the Z3 SAT solver" (§5.3).
// The production placement path in this repository uses the finite-domain
// solver in internal/csp, which decides the same constraints natively; this
// package provides the propositional route as a cross-check — placement
// problems encode to CNF (internal/place/satcheck) and the two engines must
// agree on satisfiability.
package sat

import (
	"errors"
	"fmt"
)

// Lit is a literal: variables are numbered from 1; negative values negate.
type Lit int

// Var returns the literal's variable index (1-based).
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the negated literal.
func (l Lit) Neg() Lit { return -l }

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l > 0 }

// String renders the literal in DIMACS style.
func (l Lit) String() string { return fmt.Sprintf("%d", int(l)) }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// clause is a disjunction of literals; the first two are watched.
type clause struct {
	lits    []Lit
	learned bool
}

// Solver is a CDCL SAT solver. The zero value is ready to use.
type Solver struct {
	nVars   int
	clauses []*clause
	// watches[watchIndex(lit)] lists clauses watching lit.
	watches [][]*clause

	assign  []lbool // indexed by var
	level   []int   // decision level per var
	reason  []*clause
	trail   []Lit
	trailLi []int // trail index where each decision level starts

	// seen is scratch space for conflict analysis.
	seen []bool

	// Stats.
	Conflicts    int
	Decisions    int
	Propagations int

	// MaxConflicts bounds the search; 0 means 10 million.
	MaxConflicts int

	order []int // static variable order (ascending); VSIDS-lite bumping
	act   []float64
}

// ErrUnsat reports an unsatisfiable formula.
var ErrUnsat = errors.New("sat: unsatisfiable")

// ErrLimit reports an exhausted conflict budget.
var ErrLimit = errors.New("sat: conflict limit reached")

// NewVar allocates a fresh variable and returns its positive literal.
func (s *Solver) NewVar() Lit {
	s.nVars++
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.seen = append(s.seen, false)
	s.act = append(s.act, 0)
	s.watches = append(s.watches, nil, nil)
	return Lit(s.nVars)
}

func (s *Solver) watchIndex(l Lit) int {
	// Positive literal l watches index 2(v-1); negative 2(v-1)+1.
	v := l.Var() - 1
	if l.Sign() {
		return 2 * v
	}
	return 2*v + 1
}

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()-1]
	if v == lUndef {
		return lUndef
	}
	if l.Sign() == (v == lTrue) {
		return lTrue
	}
	return lFalse
}

// AddClause adds a clause; empty clauses make the formula trivially unsat.
// Unit clauses assert immediately. Returns false if the formula is already
// known unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	// Simplify: drop duplicate literals; detect tautologies.
	seen := make(map[Lit]bool, len(lits))
	var out []Lit
	for _, l := range lits {
		if l == 0 || l.Var() > s.nVars {
			panic(fmt.Sprintf("sat: bad literal %d", l))
		}
		if seen[l.Neg()] {
			return true // tautology: x OR NOT x
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		return false
	case 1:
		if s.value(out[0]) == lFalse {
			return false
		}
		if s.value(out[0]) == lUndef {
			s.enqueue(out[0], nil)
			return s.propagate() == nil
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c *clause) {
	s.watches[s.watchIndex(c.lits[0].Neg())] = append(s.watches[s.watchIndex(c.lits[0].Neg())], c)
	s.watches[s.watchIndex(c.lits[1].Neg())] = append(s.watches[s.watchIndex(c.lits[1].Neg())], c)
}

func (s *Solver) enqueue(l Lit, from *clause) {
	v := l.Var() - 1
	if l.Sign() {
		s.assign[v] = lTrue
	} else {
		s.assign[v] = lFalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLi) }

// propagate runs unit propagation over the watch lists; it returns the
// conflicting clause, if any.
func (s *Solver) propagate() *clause {
	for qhead := 0; qhead < len(s.trail); qhead++ {
		p := s.trail[qhead]
		s.Propagations++
		wi := s.watchIndex(p)
		ws := s.watches[wi]
		s.watches[wi] = ws[:0]
		for ci := 0; ci < len(ws); ci++ {
			c := ws[ci]
			// Normalize: the falsified literal at position 1.
			if c.lits[0] == p.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				s.watches[wi] = append(s.watches[wi], c)
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[s.watchIndex(c.lits[1].Neg())] =
						append(s.watches[s.watchIndex(c.lits[1].Neg())], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			s.watches[wi] = append(s.watches[wi], c)
			if s.value(c.lits[0]) == lFalse {
				// Conflict: restore remaining watches and report.
				s.watches[wi] = append(s.watches[wi], ws[ci+1:]...)
				return c
			}
			s.enqueue(c.lits[0], c)
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learned := []Lit{0} // placeholder for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1

	c := confl
	for {
		for _, q := range c.lits {
			if q == p {
				continue
			}
			v := q.Var() - 1
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.act[v]++
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Walk the trail back to the next marked literal.
		for !s.seen[s.trail[idx].Var()-1] {
			idx--
		}
		p = s.trail[idx]
		v := p.Var() - 1
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[v]
		idx--
	}
	learned[0] = p.Neg()

	// Backjump level: highest level among the other literals.
	back := 0
	for _, q := range learned[1:] {
		if lv := s.level[q.Var()-1]; lv > back {
			back = lv
		}
	}
	for _, q := range learned[1:] {
		s.seen[q.Var()-1] = false
	}
	return learned, back
}

// cancelUntil undoes assignments above the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLi[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var() - 1
		s.assign[v] = lUndef
		s.reason[v] = nil
	}
	s.trail = s.trail[:bound]
	s.trailLi = s.trailLi[:level]
}

// pickBranch selects the unassigned variable with the highest activity
// (ties by index), asserting it false first for low-first packing.
func (s *Solver) pickBranch() (Lit, bool) {
	best := -1
	for v := 0; v < s.nVars; v++ {
		if s.assign[v] != lUndef {
			continue
		}
		if best < 0 || s.act[v] > s.act[best] {
			best = v
		}
	}
	if best < 0 {
		return 0, false
	}
	return Lit(best + 1).Neg(), true
}

// Solve decides the formula. On success the model maps each variable
// (1-based) to its value.
func (s *Solver) Solve() ([]bool, error) {
	if s.MaxConflicts == 0 {
		s.MaxConflicts = 10_000_000
	}
	// Top-level propagation of unit clauses already enqueued.
	if confl := s.propagate(); confl != nil {
		return nil, ErrUnsat
	}
	restartLimit := 100
	conflictsAtRestart := 0

	for {
		confl := s.propagate()
		if confl != nil {
			s.Conflicts++
			conflictsAtRestart++
			if s.decisionLevel() == 0 {
				return nil, ErrUnsat
			}
			if s.Conflicts >= s.MaxConflicts {
				return nil, ErrLimit
			}
			learned, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learned) == 1 {
				s.enqueue(learned[0], nil)
			} else {
				c := &clause{lits: learned, learned: true}
				s.clauses = append(s.clauses, c)
				s.watch(c)
				s.enqueue(learned[0], c)
			}
			// Activity decay.
			if s.Conflicts%256 == 0 {
				for v := range s.act {
					s.act[v] *= 0.5
				}
			}
			continue
		}
		if conflictsAtRestart >= restartLimit {
			conflictsAtRestart = 0
			restartLimit += restartLimit / 2
			s.cancelUntil(0)
			continue
		}
		l, ok := s.pickBranch()
		if !ok {
			// All assigned: build the model.
			model := make([]bool, s.nVars)
			for v := 0; v < s.nVars; v++ {
				model[v] = s.assign[v] == lTrue
			}
			return model, nil
		}
		s.Decisions++
		s.trailLi = append(s.trailLi, len(s.trail))
		s.enqueue(l, nil)
	}
}

// AtMostOne adds pairwise at-most-one constraints over the literals.
func (s *Solver) AtMostOne(lits []Lit) {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			s.AddClause(lits[i].Neg(), lits[j].Neg())
		}
	}
}

// ExactlyOne adds an exactly-one constraint (one big OR plus AtMostOne).
func (s *Solver) ExactlyOne(lits []Lit) {
	s.AddClause(lits...)
	s.AtMostOne(lits)
}
