// Package m is the facade of a fixture module for the census.
package m

import "example.com/m/internal/lib"

// Run reaches lib through the facade.
func Run() string { return lib.FacadeUsed().Name() }

// Step calls one Next and holds the other's type.
func Step() (int, lib.Cursor) {
	var it lib.Iter
	return it.Next(), lib.Cursor{}
}
