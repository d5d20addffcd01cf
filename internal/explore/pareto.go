// Package explore enumerates annotation/configuration variants of one
// kernel, compiles them through the batch tier, scores each by the
// critical path and primitive counts its compile recorded, and returns
// the non-dominated (Pareto) frontier.
//
// The frontier logic lives here, isolated from compilation, so it can
// be specified by a brute-force dominance oracle over randomized
// candidate sets (see pareto_test.go).
package explore

import "sort"

// Point is one scored candidate in objective space. Objectives are
// minimized. ID is the variant identity and the deterministic
// tie-breaker: two points with equal objective vectors are both
// non-dominated and are ordered by ID.
//
// Objective vectors must be NaN-free; comparisons against NaN are
// always false, which would make such a point incomparable to
// everything and pin it into every frontier.
type Point struct {
	ID         string
	Objectives []float64
}

// Dominates reports whether p dominates q: p is no worse in every
// objective and strictly better in at least one. Vectors of different
// lengths are incomparable.
func Dominates(p, q Point) bool {
	if len(p.Objectives) != len(q.Objectives) {
		return false
	}
	strict := false
	for i, v := range p.Objectives {
		if v > q.Objectives[i] {
			return false
		}
		if v < q.Objectives[i] {
			strict = true
		}
	}
	return strict
}

// less orders points canonically: lexicographically ascending objective
// vectors, then ID. This is the wire order of every frontier, so the
// same candidate set always serializes to the same bytes regardless of
// compile order.
func less(p, q Point) bool {
	n := len(p.Objectives)
	if len(q.Objectives) < n {
		n = len(q.Objectives)
	}
	for i := 0; i < n; i++ {
		if p.Objectives[i] != q.Objectives[i] {
			return p.Objectives[i] < q.Objectives[i]
		}
	}
	if len(p.Objectives) != len(q.Objectives) {
		return len(p.Objectives) < len(q.Objectives)
	}
	return p.ID < q.ID
}

// Archive is an incremental non-dominated set. Insertion order never
// affects the final frontier: a point is kept iff no other candidate
// dominates it, and equal-vector duplicates are all kept.
type Archive struct {
	pts []Point
}

// NewArchive returns an empty archive.
func NewArchive() *Archive { return &Archive{} }

// Insert offers p to the archive. If an archived point dominates p it
// is rejected; otherwise p is kept and every archived point p
// dominates is evicted. Reports whether p was kept.
func (a *Archive) Insert(p Point) bool {
	for _, q := range a.pts {
		if Dominates(q, p) {
			return false
		}
	}
	keep := a.pts[:0]
	for _, q := range a.pts {
		if !Dominates(p, q) {
			keep = append(keep, q)
		}
	}
	a.pts = append(keep, p)
	return true
}

// Frontier returns a copy of the non-dominated set in canonical order
// (objectives ascending, then ID).
func (a *Archive) Frontier() []Point {
	out := make([]Point, len(a.pts))
	copy(out, a.pts)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}
