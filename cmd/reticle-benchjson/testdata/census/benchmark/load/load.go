// Package load is the fixture's benchmark module.
package load

import alias "example.com/m/internal/lib"

// N calls into the root module under a renamed import.
func N() int { return alias.BenchOnly() }
