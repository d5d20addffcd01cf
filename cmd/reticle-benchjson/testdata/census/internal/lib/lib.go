// Package lib declares one export of each kind the census sorts.
package lib

import "fmt"

// T has a method only an interface of the standard library calls, one the
// facade selects, and one nothing selects.
type T struct{ n int }

func (t T) String() string { return fmt.Sprint(t.n) }

func (t T) Name() string { return "t" }

func (t T) Unselected() int { return t.n }

// Iter and Cursor each declare Next. The facade calls Iter's and names
// Cursor, but never calls Cursor's: a selector of the name alone keeps
// nothing alive.
type Iter struct{ n int }

func (it *Iter) Next() int { it.n++; return it.n }

type Cursor struct{ n int }

func (c *Cursor) Next() int { c.n++; return c.n }

// FacadeUsed is referred to by the facade.
func FacadeUsed() T { return T{own()} }

// BenchOnly is referred to by the benchmark module alone.
func BenchOnly() int { return 1 }

// TestOnly is referred to by another package's test alone.
func TestOnly() int { return 2 }

// OwnTest is referred to by its own package's test alone.
func OwnTest() int { return 3 }

// Own is referred to by its own package alone.
const Own = 4

func own() int { return Own }

// Dead is referred to by nothing.
var Dead = 5
