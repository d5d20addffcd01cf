//go:build race

package server_test

// raceEnabled: the race detector adds allocations of its own and makes
// sync.Pool drop a share of what is put back, so allocation budgets only
// hold without it.
const raceEnabled = true
