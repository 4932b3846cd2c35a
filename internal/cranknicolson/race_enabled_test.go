//go:build race

package cranknicolson

// raceEnabled reports that this test binary was built with the race
// detector, under which the pair edge grid's capped lane and the fuzz
// target shrink to stay within the race run's budget.
const raceEnabled = true
