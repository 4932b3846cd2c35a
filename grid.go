package finbench

import (
	"context"
	"errors"
	"math"
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
// change per row. The engine is always LevelAdvanced, so every row's
// prices are bit-identical no matter how the grid is partitioned across
// processes (composition independence, the property the shard router's
// scatter-gather path relies on).
//
// The grid is factored, the paper's Advanced step of hoisting what the
// layout shows to be invariant. Within one batch the Advanced pipeline's
// log-moneyness column depends only on the row's spot scale, its inverse
// vol-time column only on σ and its discount column only on r
// (blackscholes.Columns). A call keeps each column it computes, keyed on
// the exact bits of that one input, so a row whose inputs an earlier row
// already had runs only the per-valuation tail (d1/d2, two erf, parity):
// on a 12×6×4 shock grid the Log, Sqrt and Exp run once per distinct
// shock rather than once per valuation, with bits unchanged. Per-contract
// Scales rows have no key and compute their log-moneyness per chunk, as
// does any miss once the column cache is full.

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

// ErrGridRow indicates an invalid grid row (a scale that is not
// positive, NaN included, or a Scales length mismatching the batch).
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
	sc.reset(n)
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
		mkt := row.Market.internal()
		var cols blackscholes.Columns
		switch {
		case row.Scales != nil:
			if len(row.Scales) != n {
				return ErrGridRow
			}
			for i := 0; i < n; i++ {
				if !(row.Scales[i] > 0) {
					return ErrGridRow
				}
				spots[i] = b.Spots[i] * row.Scales[i]
			}
		case row.Scale > 0:
			for i := 0; i < n; i++ {
				spots[i] = b.Spots[i] * row.Scale
			}
			cols.QLog = sc.column(blackscholes.StageQLog, row.Scale, &cols.Fill)
		default:
			return ErrGridRow
		}
		cols.Denom = sc.column(blackscholes.StageDenom, mkt.Sigma, &cols.Fill)
		cols.Disc = sc.column(blackscholes.StageDisc, mkt.R, &cols.Fill)
		*soa = layout.SOA{S: spots, X: b.Strikes, T: b.Expiries, Call: calls, Put: puts}
		if err := blackscholes.AdvancedColumnsCtx(ctx, soa, mkt, vec.MaxWidth, cols); err != nil {
			return err
		}
		if err := onRow(r, calls, puts); err != nil {
			return err
		}
	}
	return nil
}

// Column cache bounds: the stored columns never exceed gridCacheBytes,
// whatever the batch length, and at most gridCacheKeys of them are kept
// (the lookup is a linear scan; a 12×6×4 grid needs 22). A miss beyond
// either bound computes its column per chunk without caching it.
const (
	gridCacheBytes = 4 << 20
	gridCacheKeys  = 64
)

// gridKey names one cached column: the stage that computes it and the
// exact bits of the one input it depends on (spot scale, σ or r).
type gridKey struct {
	stage blackscholes.Stages
	bits  uint64
}

// gridScratch holds the per-evaluation scratch: the shocked spot inputs,
// the row's price outputs and the column cache, whose slot k is
// store[k*n:(k+1)*n] for the key keys[k]. The cache lives for one call
// (reset clears its keys); pooling it with the columns means a steady
// stream of scenario requests allocates nothing.
type gridScratch struct {
	spots, calls, puts []float64
	n                  int
	keys               []gridKey
	store              []float64
}

func (sc *gridScratch) reset(n int) {
	if cap(sc.spots) < n {
		sc.spots = make([]float64, n)
		sc.calls = make([]float64, n)
		sc.puts = make([]float64, n)
	}
	size := min(gridCacheKeys, gridCacheBytes/8/n) * n
	if cap(sc.store) < size {
		sc.store = make([]float64, size)
	}
	sc.store = sc.store[:size]
	sc.n = n
	sc.keys = sc.keys[:0]
}

// column returns the cached column of stage for input v. A new key takes
// the next slot and adds stage to fill, so the kernel computes the column
// into place; with no slot left it returns nil, a per-chunk column.
func (sc *gridScratch) column(stage blackscholes.Stages, v float64, fill *blackscholes.Stages) []float64 {
	k := gridKey{stage: stage, bits: math.Float64bits(v)}
	for i, have := range sc.keys {
		if have == k {
			return sc.store[i*sc.n : (i+1)*sc.n]
		}
	}
	lo := len(sc.keys) * sc.n
	if lo+sc.n > len(sc.store) {
		return nil
	}
	sc.keys = append(sc.keys, k)
	*fill |= stage
	return sc.store[lo : lo+sc.n]
}

var gridScratchPool = sync.Pool{New: func() any { return new(gridScratch) }}
