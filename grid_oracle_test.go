package finbench_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"finbench"
	"finbench/internal/blackscholes"
	"finbench/internal/layout"
	"finbench/internal/scenario"
	"finbench/internal/vec"
	"finbench/internal/workload"
)

// The factored grid kernel (finbench.PriceBatchGridCtx) against the
// per-row listing it replaced: shock the spots, then run the whole
// Advanced pipeline for the row. Every comparison is exact, bit for bit.

// oracleGrid is the reference listing: each row priced standalone by
// blackscholes.AdvancedCtx over freshly shocked spots. It returns the
// rows' call and put columns.
func oracleGrid(t *testing.T, b *finbench.Batch, rows []finbench.GridRow) (calls, puts [][]float64) {
	t.Helper()
	n := b.Len()
	for r := range rows {
		row := &rows[r]
		spots := make([]float64, n)
		for i := 0; i < n; i++ {
			s := row.Scale
			if row.Scales != nil {
				s = row.Scales[i]
			}
			spots[i] = b.Spots[i] * s
		}
		soa := &layout.SOA{S: spots, X: b.Strikes, T: b.Expiries, Call: make([]float64, n), Put: make([]float64, n)}
		mkt := workload.MarketParams{R: row.Market.Rate, Sigma: row.Market.Volatility}
		if err := blackscholes.AdvancedCtx(context.Background(), soa, mkt, vec.MaxWidth, nil); err != nil {
			t.Fatal(err)
		}
		calls = append(calls, soa.Call)
		puts = append(puts, soa.Put)
	}
	return calls, puts
}

// checkGrid runs the factored kernel over rows[lo:hi] and asserts every
// row equals the reference rows wantCalls/wantPuts[lo:hi].
func checkGrid(t *testing.T, name string, b *finbench.Batch, rows []finbench.GridRow, lo, hi int, wantCalls, wantPuts [][]float64) {
	t.Helper()
	seen := 0
	err := finbench.PriceBatchGridCtx(context.Background(), b, rows[lo:hi], func(r int, calls, puts []float64) error {
		seen++
		for i := range calls {
			wc, wp := wantCalls[lo+r][i], wantPuts[lo+r][i]
			if math.Float64bits(calls[i]) != math.Float64bits(wc) || math.Float64bits(puts[i]) != math.Float64bits(wp) {
				return fmt.Errorf("%s [%d,%d) row %d option %d: got (%v,%v), want (%v,%v)",
					name, lo, hi, lo+r, i, calls[i], puts[i], wc, wp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != hi-lo {
		t.Fatalf("%s [%d,%d): onRow ran %d times, want %d", name, lo, hi, seen, hi-lo)
	}
}

// oracleBook is a deterministic book of n contracts with varied
// moneyness and expiry.
func oracleBook(n int) *finbench.Batch {
	b := finbench.NewBatch(n)
	for i := 0; i < n; i++ {
		b.Spots[i] = 80 + float64(i%41)
		b.Strikes[i] = 70 + float64(i%61)
		b.Expiries[i] = 0.1 + float64(i%10)*0.3
	}
	return b
}

var oracleMarket = finbench.Market{Rate: 0.03, Volatility: 0.25}

// oracleShocks is a 12×6×4 shock grid, the deployed scenario shape.
var oracleShocks = scenario.Grid{
	SpotShocks: []float64{-0.3, -0.25, -0.2, -0.15, -0.1, -0.05, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3},
	VolShocks:  []float64{-0.1, -0.05, 0, 0.05, 0.1, 0.15},
	RateShifts: []float64{-0.01, 0, 0.01, 0.02},
}

// oracleGridRows lays the shock grid out as the scenario engine does:
// spot-major, then vol, then rate.
func oracleGridRows() []finbench.GridRow {
	g := oracleShocks
	var rows []finbench.GridRow
	for _, ds := range g.SpotShocks {
		for _, dv := range g.VolShocks {
			for _, dr := range g.RateShifts {
				rows = append(rows, finbench.GridRow{
					Market: finbench.Market{Rate: oracleMarket.Rate + dr, Volatility: oracleMarket.Volatility + dv},
					Scale:  1 + ds,
				})
			}
		}
	}
	return rows
}

// TestGridOracleEverySubRange checks every contiguous cell sub-range of
// the 12×6×4 grid — so every partition a router can cut, and every key
// arriving first in any row — plus the ranges scenario.PartitionCells
// yields for 1–4 partitions at the deployed book size.
func TestGridOracleEverySubRange(t *testing.T) {
	rows := oracleGridRows()
	b := oracleBook(7)
	wc, wp := oracleGrid(t, b, rows)
	for lo := 0; lo < len(rows); lo++ {
		for hi := lo + 1; hi <= len(rows); hi++ {
			checkGrid(t, "sub-range", b, rows, lo, hi, wc, wp)
		}
	}

	b = oracleBook(1024)
	wc, wp = oracleGrid(t, b, rows)
	req := &scenario.Request{Grid: oracleShocks}
	for parts := 1; parts <= 4; parts++ {
		for _, p := range scenario.PartitionCells(req, parts) {
			checkGrid(t, fmt.Sprintf("partition %d/%d", p.Start, parts), b, rows, p.Start, p.Start+p.Count, wc, wp)
		}
	}
}

// oracleMixedRows interleaves the grid with per-contract Scales rows,
// rows that revisit keys out of order, a Scale equal to a Scales row's
// entries, and more distinct keys than the cache holds.
func oracleMixedRows(n int) []finbench.GridRow {
	grid := oracleGridRows()
	var rows []finbench.GridRow
	for k := 0; k < 40; k++ {
		// Generator-like rows: a fresh scale and vol every row, overflowing
		// the key table.
		rows = append(rows, finbench.GridRow{
			Market: finbench.Market{Rate: oracleMarket.Rate, Volatility: 0.1 + 0.007*float64(k)},
			Scale:  0.8 + 0.011*float64(k),
		})
		if k%5 == 0 {
			scales := make([]float64, n)
			for i := range scales {
				scales[i] = 0.9 + 0.02*float64((i+k)%11)
			}
			rows = append(rows, finbench.GridRow{Market: oracleMarket, Scales: scales})
		}
	}
	// The grid backwards, then a stride through it: every key revisited
	// out of its first-seen order.
	for r := len(grid) - 1; r >= 0; r-- {
		rows = append(rows, grid[r])
	}
	for r := 0; r < len(grid); r += 7 {
		rows = append(rows, grid[(r*37)%len(grid)])
	}
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = grid[100].Scale
	}
	rows = append(rows, finbench.GridRow{Market: grid[100].Market, Scales: uniform}, grid[100])
	return rows
}

// TestGridOracleMixedRows covers Scales rows beside uniform rows, keys
// revisited out of order and a full key table, at batch lengths either
// side of the kernel's chunk (blackscholes.VMLChunk) and its SIMD width.
func TestGridOracleMixedRows(t *testing.T) {
	for _, n := range []int{1, 7, 1024, 2049, 4099} {
		rows := oracleMixedRows(n)
		b := oracleBook(n)
		wc, wp := oracleGrid(t, b, rows)
		checkGrid(t, fmt.Sprintf("mixed n=%d", n), b, rows, 0, len(rows), wc, wp)
		grid := oracleGridRows()
		wc, wp = oracleGrid(t, b, grid)
		checkGrid(t, fmt.Sprintf("grid n=%d", n), b, grid, 0, len(grid), wc, wp)
	}
}

// TestGridOracleOverflowsBudget prices a book whose columns do not all
// fit the column cache's byte budget, so later keys compute per chunk.
func TestGridOracleOverflowsBudget(t *testing.T) {
	const n = 100_000 // 800 kB a column: five fit in 4 MiB, the grid needs 22 keys
	rows := oracleGridRows()[:48]
	rows = append(rows, rows[0], rows[47], rows[24])
	b := oracleBook(n)
	wc, wp := oracleGrid(t, b, rows)
	checkGrid(t, "overflow", b, rows, 0, len(rows), wc, wp)
}

// TestGridWorkerCountInvariant pins the forked path (n > VMLChunk),
// whose workers fill and read the shared columns, to the same bits at
// every worker count.
func TestGridWorkerCountInvariant(t *testing.T) {
	const n = 2*blackscholes.VMLChunk + 3
	rows := oracleMixedRows(n)
	b := oracleBook(n)
	wc, wp := oracleGrid(t, b, rows)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		checkGrid(t, fmt.Sprintf("GOMAXPROCS=%d", procs), b, rows, 0, len(rows), wc, wp)
	}
}

// TestPriceBatchGridAllocs pins the steady state at zero allocations on
// the scenario shape (1024 positions × cells 0–143 of the 12×6×4 grid)
// and on a new spot scale every row at one market.
func TestPriceBatchGridAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	b := oracleBook(1024)
	fresh := make([]finbench.GridRow, 288)
	for i := range fresh {
		fresh[i] = finbench.GridRow{Market: oracleMarket, Scale: 1 + 0.001*float64(i)}
	}
	var sink float64
	onRow := func(_ int, calls, _ []float64) error {
		sink += calls[0]
		return nil
	}
	for name, rows := range map[string][]finbench.GridRow{
		"scenario 1024x144":   oracleGridRows()[:144],
		"new scale every row": fresh,
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := finbench.PriceBatchGridCtx(context.Background(), b, rows, onRow); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
	_ = sink
}
