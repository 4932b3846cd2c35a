package finbench

import (
	"context"
	"errors"
	"sync"

	"finbench/internal/blackscholes"
	"finbench/internal/layout"
	"finbench/internal/vec"
)

// Grid evaluation: price one batch of contracts under a sequence of
// scenario rows, each row a shocked market plus a spot perturbation. This
// is the kernel under the scenario engine (internal/scenario): a risk
// request is one portfolio repriced across a shock grid, so the batch's
// strikes and expiries are loaded once and only the spots and market
// change per row. Rows evaluate in order over pooled scratch columns —
// the SOA batch path — and the engine is always LevelAdvanced, so every
// row's prices are bit-identical no matter how the grid is partitioned
// across processes (composition independence, the property the shard
// router's scatter-gather path relies on).

// GridRow is one scenario of a grid evaluation: a full market and a spot
// perturbation, either uniform (Scale) or per-contract (Scales).
type GridRow struct {
	// Market is the market this row prices under.
	Market Market
	// Scale multiplies every spot in the batch (1 = unshocked). Ignored
	// when Scales is non-nil.
	Scale float64
	// Scales, when non-nil, gives a per-contract spot multiplier; its
	// length must equal the batch length.
	Scales []float64
}

// ErrGridRow indicates an invalid grid row (non-positive scale or a
// Scales length mismatching the batch).
var ErrGridRow = errors.New("finbench: grid row needs positive spot scales matching the batch length")

// PriceBatchGrid evaluates the batch under every row in order, invoking
// onRow with each row's call and put prices. The slices passed to onRow
// are scratch reused by the next row: consume or copy them before
// returning. A non-nil error from onRow aborts the evaluation.
// finlint:ignore unreached documented one-line delegate of PriceBatchGridCtx
func PriceBatchGrid(b *Batch, rows []GridRow, onRow func(row int, calls, puts []float64) error) error {
	return PriceBatchGridCtx(context.Background(), b, rows, onRow)
}

// PriceBatchGridCtx is PriceBatchGrid with cancellation checked before
// every grid row (and inside the row's kernel between option blocks). On
// a non-nil error any rows not yet delivered to onRow are lost. An
// uncancelled run is bit-identical to PriceBatchGrid.
func PriceBatchGridCtx(ctx context.Context, b *Batch, rows []GridRow, onRow func(row int, calls, puts []float64) error) error {
	n := b.Len()
	if n == 0 || len(rows) == 0 {
		return ctx.Err()
	}
	sc := gridScratchPool.Get().(*gridScratch)
	sc.grow(n)
	spots, calls, puts := sc.spots[:n], sc.calls[:n], sc.puts[:n]
	defer gridScratchPool.Put(sc)

	soa := soaPool.Get().(*layout.SOA)
	defer func() {
		*soa = layout.SOA{} // drop the slice references before pooling
		soaPool.Put(soa)
	}()

	for r := range rows {
		if err := ctx.Err(); err != nil {
			return err
		}
		row := &rows[r]
		switch {
		case row.Scales != nil:
			if len(row.Scales) != n {
				return ErrGridRow
			}
			for i := 0; i < n; i++ {
				if row.Scales[i] <= 0 {
					return ErrGridRow
				}
				spots[i] = b.Spots[i] * row.Scales[i]
			}
		case row.Scale > 0:
			for i := 0; i < n; i++ {
				spots[i] = b.Spots[i] * row.Scale
			}
		default:
			return ErrGridRow
		}
		*soa = layout.SOA{S: spots, X: b.Strikes, T: b.Expiries, Call: calls, Put: puts}
		if err := blackscholes.AdvancedCtx(ctx, soa, row.Market.internal(), vec.MaxWidth, nil); err != nil {
			return err
		}
		if err := onRow(r, calls, puts); err != nil {
			return err
		}
	}
	return nil
}

// gridScratch holds the per-evaluation scratch columns: the shocked spot
// inputs and the row's price outputs. Pooled so a serving-tier scenario
// request does not allocate three columns per call.
type gridScratch struct {
	spots, calls, puts []float64
}

func (sc *gridScratch) grow(n int) {
	if cap(sc.spots) < n {
		sc.spots = make([]float64, n)
		sc.calls = make([]float64, n)
		sc.puts = make([]float64, n)
	}
}

var gridScratchPool = sync.Pool{New: func() any { return new(gridScratch) }}
