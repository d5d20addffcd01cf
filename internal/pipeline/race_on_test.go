//go:build race

package pipeline

// raceEnabled: the race detector adds allocations of its own, so
// allocation budgets only hold without it.
const raceEnabled = true
