//go:build race

package cranknicolson

// raceEnabled reports that this test binary was built with the race
// detector, under which the fuzz target's lattice shrinks to stay within
// the race run's budget.
const raceEnabled = true
