package finbench

// Regression tests for the RNG-reuse and batch-result bugs: Simulate used
// to rebuild the stream from ps.Seed on every call (identical output on
// repeat calls), and ProfileBatch at LevelBasic
// priced into a private AOS without copying the results back.

import (
	"runtime"
	"testing"
)

func pathsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestSimulateSuccessiveCallsDiffer pins that repeated Simulate calls draw
// fresh randomness, while two simulators with equal seeds still match
// call-for-call.
func TestSimulateSuccessiveCallsDiffer(t *testing.T) {
	a, err := NewPathSimulator(16, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewPathSimulator(16, 1, 99)
	a1 := a.Simulate(8, 100, tMkt)
	a2 := a.Simulate(8, 100, tMkt)
	if pathsEqual(a1, a2) {
		t.Fatal("two successive Simulate calls produced identical paths")
	}
	b1 := b.Simulate(8, 100, tMkt)
	b2 := b.Simulate(8, 100, tMkt)
	if !pathsEqual(a1, b1) || !pathsEqual(a2, b2) {
		t.Fatal("equal-seed simulators diverged call-for-call")
	}
}

// TestProfileBatchBasicFillsResults pins that LevelBasic copies prices back
// into the batch like the SOA levels do.
func TestProfileBatchBasicFillsResults(t *testing.T) {
	b := NewBatch(32)
	for i := range b.Spots {
		b.Spots[i], b.Strikes[i], b.Expiries[i] = 100+float64(i), 100, 1
	}
	if _, err := ProfileBatch(b, tMkt, LevelBasic, 4); err != nil {
		t.Fatal(err)
	}
	want := NewBatch(32)
	copy(want.Spots, b.Spots)
	copy(want.Strikes, b.Strikes)
	copy(want.Expiries, b.Expiries)
	if err := PriceBatch(want, tMkt, LevelBasic); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		if b.Calls[i] == 0 && b.Puts[i] == 0 {
			t.Fatalf("option %d left unpriced after basic profile", i)
		}
		if b.Calls[i] != want.Calls[i] || b.Puts[i] != want.Puts[i] {
			t.Fatalf("option %d: profile (%g, %g) != price (%g, %g)",
				i, b.Calls[i], b.Puts[i], want.Calls[i], want.Puts[i])
		}
	}
}

// TestInterleaveWidthFollowsWorkers pins the width derivation: pool worker
// count, clamped to the path count, capped at the ISA maximum, rounded
// down to a power of two.
func TestInterleaveWidthFollowsWorkers(t *testing.T) {
	cases := []struct {
		procs, n, want int
	}{
		{1, 100, 1},
		{2, 100, 2},
		{4, 100, 4},
		{6, 100, 4},  // round down to a power of two
		{8, 100, 8},  // vec.MaxWidth
		{16, 100, 8}, // capped at vec.MaxWidth
		{8, 3, 2},    // clamped to n, then rounded down
		{8, 1, 1},
	}
	for _, tc := range cases {
		old := runtime.GOMAXPROCS(tc.procs)
		got := interleaveWidth(tc.n)
		runtime.GOMAXPROCS(old)
		if got != tc.want {
			t.Errorf("interleaveWidth(n=%d) at %d procs = %d, want %d",
				tc.n, tc.procs, got, tc.want)
		}
	}
}
