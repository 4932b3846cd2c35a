//go:build race

package finbench_test

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation changes allocation behavior (pools
// are bypassed under -race), so allocation assertions are meaningless
// there.
const raceEnabled = true
