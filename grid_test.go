package finbench

import (
	"context"
	"errors"
	"math"
	"testing"
)

func gridTestBatch(n int) *Batch {
	b := NewBatch(n)
	for i := 0; i < n; i++ {
		b.Spots[i] = 80 + float64(i%41)
		b.Strikes[i] = 70 + float64(i%61)
		b.Expiries[i] = 0.1 + float64(i%10)*0.3
	}
	return b
}

// TestPriceBatchGridMatchesPriceBatch pins the composition-independence
// contract: each grid row must be bit-identical to pricing a standalone
// LevelAdvanced batch with the same shocked inputs.
func TestPriceBatchGridMatchesPriceBatch(t *testing.T) {
	b := gridTestBatch(37)
	rows := []GridRow{
		{Market: Market{Rate: 0.02, Volatility: 0.3}, Scale: 1},
		{Market: Market{Rate: 0.03, Volatility: 0.25}, Scale: 0.8},
		{Market: Market{Rate: 0.01, Volatility: 0.45}, Scale: 1.2},
	}
	perScales := make([]float64, b.Len())
	for i := range perScales {
		perScales[i] = 0.9 + 0.02*float64(i%11)
	}
	rows = append(rows, GridRow{Market: Market{Rate: 0.02, Volatility: 0.3}, Scales: perScales})

	seen := 0
	err := PriceBatchGrid(b, rows, func(r int, calls, puts []float64) error {
		seen++
		ref := NewBatch(b.Len())
		copy(ref.Strikes, b.Strikes)
		copy(ref.Expiries, b.Expiries)
		for i := range ref.Spots {
			s := rows[r].Scale
			if rows[r].Scales != nil {
				s = rows[r].Scales[i]
			}
			ref.Spots[i] = b.Spots[i] * s
		}
		if err := PriceBatch(ref, rows[r].Market, LevelAdvanced); err != nil {
			return err
		}
		for i := range calls {
			if calls[i] != ref.Calls[i] || puts[i] != ref.Puts[i] {
				t.Fatalf("row %d option %d: grid (%v,%v) != batch (%v,%v)",
					r, i, calls[i], puts[i], ref.Calls[i], ref.Puts[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(rows) {
		t.Fatalf("onRow ran %d times, want %d", seen, len(rows))
	}
}

// TestPriceBatchGridCtxCancelsBetweenRows proves the per-row cancellation
// checkpoint: cancelling inside onRow stops the evaluation before the
// next row.
func TestPriceBatchGridCtxCancelsBetweenRows(t *testing.T) {
	b := gridTestBatch(8)
	rows := make([]GridRow, 10)
	for r := range rows {
		rows[r] = GridRow{Market: Market{Rate: 0.02, Volatility: 0.3}, Scale: 1}
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err := PriceBatchGridCtx(ctx, b, rows, func(r int, calls, puts []float64) error {
		seen++
		if r == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != 3 {
		t.Fatalf("onRow ran %d times after cancel at row 2, want 3", seen)
	}
}

// TestPriceBatchGridRejectsBadRows pins the input validation: a
// non-positive or NaN scale and a mismatched Scales length all fail with
// ErrGridRow before any kernel work.
func TestPriceBatchGridRejectsBadRows(t *testing.T) {
	b := gridTestBatch(4)
	for _, rows := range [][]GridRow{
		{{Market: Market{Rate: 0.02, Volatility: 0.3}}},                                         // Scale zero
		{{Market: Market{Rate: 0.02, Volatility: 0.3}, Scale: -1}},                              // negative
		{{Market: Market{Rate: 0.02, Volatility: 0.3}, Scales: []float64{1, 1}}},                // short
		{{Market: Market{Rate: 0.02, Volatility: 0.3}, Scales: []float64{1, 1, 0, 1}}},          // zero entry
		{{Market: Market{Rate: 0.02, Volatility: 0.3}, Scale: math.NaN()}},                      // NaN
		{{Market: Market{Rate: 0.02, Volatility: 0.3}, Scales: []float64{1, math.NaN(), 1, 1}}}, // NaN entry
	} {
		err := PriceBatchGrid(b, rows, func(int, []float64, []float64) error { return nil })
		if !errors.Is(err, ErrGridRow) {
			t.Fatalf("rows %+v: err = %v, want ErrGridRow", rows, err)
		}
	}
	// An onRow error aborts and surfaces verbatim.
	boom := errors.New("boom")
	err := PriceBatchGrid(b, []GridRow{
		{Market: Market{Rate: 0.02, Volatility: 0.3}, Scale: 1},
	}, func(int, []float64, []float64) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want onRow's error", err)
	}
}
