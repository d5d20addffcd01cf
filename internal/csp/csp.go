// Package csp implements a finite-domain constraint solver: backtracking
// search with minimum-remaining-values variable ordering and forward
// checking, plus a special-cased all-different propagator.
//
// It stands in for the Z3 solver the paper uses for instruction placement
// (§5.3). Placement only ever asks for: domain membership (a coordinate
// must name a slice of the right resource type), bounds, relative-offset
// equalities between coordinates, and all-different over occupied slices —
// exactly the theory a finite-domain solver decides.
package csp

import (
	"fmt"
	"math/bits"
	"slices"
)

// Var identifies a problem variable.
type Var int

// NoHint marks a variable without a warm-start hint in SetHints input.
const NoHint = -1 << 62

// Binary is a directed binary constraint: when the owning variable is
// assigned value v, values w of `to` that the constraint forbids are
// pruned. The same allow func is shared by both directions; flip says
// whether the owning variable is the second argument. Storing a flag
// instead of wrapping allow in a per-direction closure keeps the hottest
// propagation path to one indirect call and zero extra allocations.
type binary struct {
	to    Var
	allow func(v, w int) bool
	flip  bool
}

// holds reports whether the constraint permits the owning variable at
// value v alongside `to` at value w.
func (b *binary) holds(v, w int) bool {
	if b.flip {
		return b.allow(w, v)
	}
	return b.allow(v, w)
}

// Problem is a constraint satisfaction problem under construction.
// The zero value is an empty problem ready for use.
type Problem struct {
	names []string
	// vars[v] is v's candidate set and, during a solve, which of its
	// candidates are still live.
	vars []liveSet
	// adj[v] lists binary constraints propagated when v is assigned.
	adj [][]binary
	// groups lists all-different groups; member[v] lists group indices.
	groups [][]Var
	member [][]int

	// hints, when non-nil, holds a warm-start value per variable
	// (NoHint = none): the search tries a variable's hint first.
	hints []int

	steps    int
	maxSteps int
	// interrupt, when set, is polled every interruptStride steps; a true
	// return aborts the search with *ErrInterrupted.
	interrupt   func() bool
	interrupted bool

	// hintsTried/hintHits describe the last successful SolveScratch: how many
	// variables had a hint, and how many kept it in the solution.
	hintsTried int
	hintHits   int
}

// interruptStride is how many search steps pass between interrupt polls:
// frequent enough that a deadline aborts within microseconds, rare
// enough that the poll never shows up in solver profiles.
const interruptStride = 1024

// NewVarIn adds a variable over a prebuilt candidate set. Any number of
// variables, in any number of problems, may share one Domain: a variable
// owns only the record of which candidates it still has.
func (p *Problem) NewVarIn(name string, d *Domain) Var {
	p.names = append(p.names, name)
	p.vars = append(p.vars, liveSet{dom: d})
	p.adj = append(p.adj, nil)
	p.member = append(p.member, nil)
	return Var(len(p.vars) - 1)
}

// AddBinary adds a constraint allow(a, b) that must hold between the two
// variables' values. Propagation runs in both directions; both store the
// same func with a direction flag (see binary).
func (p *Problem) AddBinary(a, b Var, allow func(av, bv int) bool) {
	p.adj[a] = append(p.adj[a], binary{to: b, allow: allow})
	p.adj[b] = append(p.adj[b], binary{to: a, allow: allow, flip: true})
}

// AddAllDifferent requires all listed variables to take distinct values.
func (p *Problem) AddAllDifferent(vars []Var) {
	gi := len(p.groups)
	p.groups = append(p.groups, append([]Var(nil), vars...))
	for _, v := range vars {
		p.member[v] = append(p.member[v], gi)
	}
}

// SetMaxSteps bounds the number of search steps (assignments tried).
// Zero means the default of 2 million.
func (p *Problem) SetMaxSteps(n int) { p.maxSteps = n }

// SetInterrupt installs a poll called every ~1k search steps; returning
// true aborts SolveScratch with *ErrInterrupted. Placement uses it to observe
// per-stage deadlines mid-solve instead of burning the full step budget
// after the caller has already given up.
func (p *Problem) SetInterrupt(check func() bool) { p.interrupt = check }

// SetHints installs warm-start hints (copied): for each variable v with
// assign[v] != NoHint, the search tries that value first, then the rest
// of the domain in ascending order. Hints only reorder value selection —
// they never change satisfiability, step accounting discipline, or
// determinism (the order is a pure function of the hints and domains).
// Entries beyond the current variable count apply to variables created
// later; missing entries mean NoHint. nil clears all hints.
func (p *Problem) SetHints(assign []int) {
	if assign == nil {
		p.hints = nil
		return
	}
	p.hints = append(p.hints[:0], assign...)
}

// Steps reports how many assignments the last SolveScratch attempted.
func (p *Problem) Steps() int { return p.steps }

// HintsTried reports how many variables had a hint during the last
// successful SolveScratch; zero when no hints were set or the solve failed.
func (p *Problem) HintsTried() int { return p.hintsTried }

// HintHits reports how many hinted variables kept their hint value in
// the last successful SolveScratch's solution — the warm-start hit count.
func (p *Problem) HintHits() int { return p.hintHits }

// hintFor returns v's warm-start hint, if any.
func (p *Problem) hintFor(v Var) (int, bool) {
	if p.hints == nil || int(v) >= len(p.hints) || p.hints[v] == NoHint {
		return 0, false
	}
	return p.hints[v], true
}

// ErrUnsat is returned when the problem has no solution.
type ErrUnsat struct{ Reason string }

func (e *ErrUnsat) Error() string { return "csp: unsatisfiable: " + e.Reason }

// ErrLimit is returned when the step budget is exhausted.
type ErrLimit struct{ Steps int }

func (e *ErrLimit) Error() string {
	return fmt.Sprintf("csp: step limit reached after %d steps", e.Steps)
}

// ErrInterrupted is returned when the interrupt poll aborted the search
// (deadline expiry, soft time budget). Like *ErrLimit it says nothing
// about satisfiability — callers may fall back to a cheaper engine.
type ErrInterrupted struct{ Steps int }

func (e *ErrInterrupted) Error() string {
	return fmt.Sprintf("csp: search interrupted after %d steps", e.Steps)
}

// Scratch holds reusable solver buffers. Shrink-pass probe solves build
// a fresh Problem per probe but recycle one Scratch across all of them,
// keeping the assignment, bookkeeping, liveness and trail allocations out
// of the placement hot loop. The zero value is ready for use; a Scratch
// must not be shared between concurrent solves.
type Scratch struct {
	assign   []int
	assigned []bool
	trail    []trailEntry
	live     []uint64 // every variable's liveness words, back to back
}

// grow sizes the buffers for n variables and words liveness words,
// reusing capacity.
func (sc *Scratch) grow(n, words int) {
	if cap(sc.live) < words {
		sc.live = make([]uint64, words)
	}
	sc.live = sc.live[:words]
	if cap(sc.assign) < n {
		sc.assign = make([]int, n)
	}
	sc.assign = sc.assign[:n]
	if cap(sc.assigned) < n {
		sc.assigned = make([]bool, n)
	}
	sc.assigned = sc.assigned[:n]
	for i := range sc.assigned {
		sc.assigned[i] = false
	}
	sc.trail = sc.trail[:0]
}

// SolveScratch finds an assignment satisfying all constraints, or fails
// with *ErrUnsat / *ErrLimit; the search is deterministic. It takes
// caller-provided scratch buffers (nil is allowed and allocates fresh
// ones). The returned assignment is always a private copy, so reusing sc
// for a later solve never clobbers it. Every solve starts from full
// domains: liveness lives in the scratch, not in the (shared, immutable)
// Domains.
func (p *Problem) SolveScratch(sc *Scratch) ([]int, error) {
	if p.maxSteps == 0 {
		p.maxSteps = 2_000_000
	}
	p.steps = 0
	p.interrupted = false
	p.hintsTried, p.hintHits = 0, 0
	// Empty domains are unsatisfiable before search starts.
	words := 0
	for i := range p.vars {
		n := p.vars[i].dom.Len()
		if n == 0 {
			return nil, &ErrUnsat{Reason: fmt.Sprintf("variable %s has empty domain", p.names[i])}
		}
		words += wordsFor(n)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.grow(len(p.vars), words)
	for i, at := 0, 0; i < len(p.vars); i++ {
		ls := &p.vars[i]
		n := wordsFor(ls.dom.Len())
		ls.reset(sc.live[at : at+n : at+n])
		at += n
	}
	if p.search(sc.assign, sc.assigned, &sc.trail) {
		out := make([]int, len(sc.assign))
		copy(out, sc.assign)
		if p.hints != nil {
			for v := range out {
				if hint, ok := p.hintFor(Var(v)); ok {
					p.hintsTried++
					if out[v] == hint {
						p.hintHits++
					}
				}
			}
		}
		return out, nil
	}
	if p.interrupted {
		return nil, &ErrInterrupted{Steps: p.steps}
	}
	if p.steps >= p.maxSteps {
		return nil, &ErrLimit{Steps: p.steps}
	}
	return nil, &ErrUnsat{Reason: "search exhausted"}
}

// trailEntry records one pruning: position pos left variable v's live
// set. Positions, not values, so undo is one bit set with no lookup.
type trailEntry struct {
	v, pos int32
}

func (p *Problem) search(assign []int, assigned []bool, trail *[]trailEntry) bool {
	v, ok := p.pickVar(assigned)
	if !ok {
		return true // all assigned
	}
	d := &p.vars[v]
	// Walk the live positions in ascending order. No value can be pruned
	// from v's own domain while v is the variable being assigned (undo
	// restores all propagation effects between tries), so the positions
	// seen here are exactly the live set at node entry — the same values,
	// in the same ascending order, a per-node snapshot-and-sort would
	// produce, with zero allocation.
	hint, hasHint := p.hintFor(v)
	if hasHint && d.has(hint) {
		if done, solved := p.tryValue(v, hint, assign, assigned, trail); done {
			return solved
		}
	} else {
		hasHint = false
	}
	for i := d.next(0); i >= 0; i = d.next(i + 1) {
		val := d.dom.vals[i]
		if hasHint && val == hint {
			continue // already tried first
		}
		if done, solved := p.tryValue(v, val, assign, assigned, trail); done {
			return solved
		}
	}
	return false
}

// tryValue attempts one assignment v=val: it counts the step, polls the
// budget and interrupt, propagates, and recurses. done means the search
// below this node is finished — either solved, or aborted by the step
// limit / interrupt; !done means backtrack and try the next value.
func (p *Problem) tryValue(v Var, val int, assign []int, assigned []bool, trail *[]trailEntry) (done, solved bool) {
	if p.steps >= p.maxSteps || p.interrupted {
		return true, false
	}
	p.steps++
	if p.interrupt != nil && p.steps%interruptStride == 0 && p.interrupt() {
		p.interrupted = true
		return true, false
	}
	mark := len(*trail)
	assign[v] = val
	assigned[v] = true
	if p.propagate(v, val, assigned, trail) {
		if p.search(assign, assigned, trail) {
			return true, true
		}
	}
	assigned[v] = false
	p.undo(trail, mark)
	return false, false
}

// pickVar selects the unassigned variable with the smallest live domain.
func (p *Problem) pickVar(assigned []bool) (Var, bool) {
	best := -1
	bestSize := 1 << 62
	for i := range p.vars {
		if assigned[i] {
			continue
		}
		if s := p.vars[i].size; s < bestSize {
			best, bestSize = i, s
			if s <= 1 {
				break
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return Var(best), true
}

// propagate forward-checks after assigning val to v. It returns false on a
// domain wipeout.
func (p *Problem) propagate(v Var, val int, assigned []bool, trail *[]trailEntry) bool {
	// All-different groups: remove val from peers.
	for _, gi := range p.member[v] {
		for _, w := range p.groups[gi] {
			if w == v {
				continue
			}
			if assigned[w] {
				continue // consistency with assigned peers was enforced when they were assigned
			}
			if p.remove(w, val, trail) && p.vars[w].size == 0 {
				return false
			}
		}
	}
	// Binary constraints: filter neighbor domains.
	for i := range p.adj[v] {
		bc := &p.adj[v][i]
		w := bc.to
		if assigned[w] {
			continue
		}
		d := &p.vars[w]
		// Word by word over a copy of each word, so clearing bits in the
		// live set underneath is safe: O(words + live) per constraint.
		for k, word := range d.live {
			for ; word != 0; word &= word - 1 {
				i := k<<6 + bits.TrailingZeros64(word)
				if !bc.holds(val, d.dom.vals[i]) {
					p.removeAt(w, i, trail)
				}
			}
		}
		if d.size == 0 {
			return false
		}
	}
	return true
}

func (p *Problem) remove(v Var, val int, trail *[]trailEntry) bool {
	d := &p.vars[v]
	i := d.dom.index(val)
	if i < 0 || !d.hasAt(i) {
		return false
	}
	p.removeAt(v, i, trail)
	return true
}

func (p *Problem) removeAt(v Var, i int, trail *[]trailEntry) {
	p.vars[v].clear(i)
	*trail = append(*trail, trailEntry{v: int32(v), pos: int32(i)})
}

func (p *Problem) undo(trail *[]trailEntry, mark int) {
	t := *trail
	for _, e := range t[mark:] {
		p.vars[e.v].set(int(e.pos))
	}
	*trail = t[:mark]
}

// Domain is an immutable set of candidate values, built once and shared:
// the values in ascending order, plus an index from value to position.
// It carries no solver state, so one Domain may back any number of
// variables in any number of concurrently solved problems — placement
// builds one per cluster shape rather than one per cluster.
type Domain struct {
	vals []int // ascending, distinct
	// dense[val-vals[0]] is val's position in vals, or -1. nil when the
	// values are too spread out for a table; index then binary-searches.
	dense []int32
}

// denseSpan is the widest value range that always gets a dense index;
// wider ranges get one only while it stays within 8 entries per value.
const denseSpan = 1 << 16

// NewDomain builds the candidate set of the given values (any order,
// duplicates collapse). It takes ownership of the slice: the caller must
// not touch it afterwards.
func NewDomain(values []int) *Domain {
	if !slices.IsSorted(values) {
		slices.Sort(values)
	}
	d := &Domain{vals: slices.Compact(values)}
	n := len(d.vals)
	if n == 0 {
		return d
	}
	span := uint(d.vals[n-1]-d.vals[0]) + 1 // 0 when the range overflows
	if span == 0 || span > uint(max(denseSpan, 8*n)) {
		return d
	}
	d.dense = make([]int32, span)
	for i := range d.dense {
		d.dense[i] = -1
	}
	for i, v := range d.vals {
		d.dense[v-d.vals[0]] = int32(i)
	}
	return d
}

// Len reports how many candidates the domain holds.
func (d *Domain) Len() int { return len(d.vals) }

// index returns val's position in the ascending order, or -1.
func (d *Domain) index(val int) int {
	if d.dense != nil {
		if off := uint(val - d.vals[0]); off < uint(len(d.dense)) {
			return int(d.dense[off])
		}
		return -1
	}
	if i, ok := slices.BinarySearch(d.vals, val); ok {
		return i
	}
	return -1
}

// liveSet is one variable's state: which positions of its Domain are
// still candidates (bit i of live = dom.vals[i] is live) and how many.
// Pruning clears a bit, undo sets it back; nothing is moved or copied.
type liveSet struct {
	dom  *Domain
	live []uint64
	size int
}

func wordsFor(n int) int { return (n + 63) >> 6 }

// reset makes every candidate live, taking words as the bit storage.
func (s *liveSet) reset(words []uint64) {
	n := s.dom.Len()
	for i := range words {
		words[i] = ^uint64(0)
	}
	if tail := n & 63; tail != 0 {
		words[len(words)-1] = 1<<tail - 1
	}
	s.live, s.size = words, n
}

func (s *liveSet) hasAt(i int) bool { return s.live[i>>6]&(1<<(i&63)) != 0 }

func (s *liveSet) has(val int) bool {
	i := s.dom.index(val)
	return i >= 0 && s.hasAt(i)
}

func (s *liveSet) clear(i int) {
	s.live[i>>6] &^= 1 << (i & 63)
	s.size--
}

func (s *liveSet) set(i int) {
	s.live[i>>6] |= 1 << (i & 63)
	s.size++
}

// next returns the lowest live position >= from, or -1.
func (s *liveSet) next(from int) int {
	k := from >> 6
	if k >= len(s.live) {
		return -1
	}
	word := s.live[k] &^ (1<<(from&63) - 1)
	for word == 0 {
		if k++; k == len(s.live) {
			return -1
		}
		word = s.live[k]
	}
	return k<<6 + bits.TrailingZeros64(word)
}
