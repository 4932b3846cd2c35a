//go:build race

package binomial

// raceEnabled reports that this test binary was built with the race
// detector, under which the oracle sweep shrinks to stay within the
// race run's budget.
const raceEnabled = true
