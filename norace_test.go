//go:build !race

package finbench_test

// raceEnabled reports whether this test binary was built with the race
// detector; see race_enabled_test.go.
const raceEnabled = false
