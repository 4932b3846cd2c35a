package blackscholes

import (
	"context"

	"finbench/internal/layout"
	"finbench/internal/mathx"
	"finbench/internal/parallel"
	"finbench/internal/perf"
	"finbench/internal/vec"
	"finbench/internal/workload"
)

// GreeksSOA holds per-option sensitivities for a batch risk sweep (the
// risk-management workload of the paper's STAC citation: a book's deltas,
// gammas and vegas recomputed on every market tick).
type GreeksSOA struct {
	DeltaCall, DeltaPut []float64
	Gamma, Vega         []float64
}

// NewGreeksSOA allocates outputs for n options.
func NewGreeksSOA(n int) *GreeksSOA {
	return &GreeksSOA{
		DeltaCall: make([]float64, n),
		DeltaPut:  make([]float64, n),
		Gamma:     make([]float64, n),
		Vega:      make([]float64, n),
	}
}

// GreeksBatch computes closed-form delta, gamma and vega for every option
// in the SOA batch with SIMD across options (the Intermediate-level
// treatment applied to the greeks formulas: one erf and one exp per option
// cover all four outputs).
func GreeksBatch(s *layout.SOA, out *GreeksSOA, mkt workload.MarketParams, width int, c *perf.Counts) {
	n := s.Len()
	r, sig := mkt.R, mkt.Sigma
	sig22 := sig * sig / 2
	// Region-invariant constants: broadcast (and counted) once.
	pre := vec.New(width, c)
	one := pre.Broadcast(1)
	half := pre.Broadcast(0.5)
	invSqrt2 := pre.Broadcast(mathx.InvSqrt2)
	invSqrt2Pi := pre.Broadcast(mathx.InvSqrt2Pi)
	run := func(lo, hi int, c *perf.Counts) {
		ctx := vec.New(width, c)
		i := lo
		for ; i+width <= hi; i += width {
			sp := ctx.Load(s.S, i)
			x := ctx.Load(s.X, i)
			t := ctx.Load(s.T, i)
			sqT := ctx.Sqrt(t)
			sigSqT := ctx.Mul(ctx.Broadcast(sig), sqT)
			qlog := ctx.Log(ctx.Div(sp, x))
			d1 := ctx.Div(ctx.FMA(ctx.Broadcast(r+sig22), t, qlog), sigSqT)
			// N(d1) via the erf substitution; phi(d1) via one exp.
			nd1 := ctx.Mul(ctx.Add(one, ctx.Erf(ctx.Mul(d1, invSqrt2))), half)
			pd1 := ctx.Mul(invSqrt2Pi, ctx.Exp(ctx.Mul(ctx.Broadcast(-0.5), ctx.Mul(d1, d1))))
			ctx.Store(out.DeltaCall, i, nd1)
			ctx.Store(out.DeltaPut, i, ctx.Sub(nd1, one))
			ctx.Store(out.Gamma, i, ctx.Div(pd1, ctx.Mul(sp, sigSqT)))
			ctx.Store(out.Vega, i, ctx.Mul(ctx.Mul(sp, pd1), sqT))
		}
		for ; i < hi; i++ {
			g := ComputeGreeks(s.S[i], s.X[i], s.T[i], mkt)
			out.DeltaCall[i] = g.DeltaCall
			out.DeltaPut[i] = g.DeltaPut
			out.Gamma[i] = g.Gamma
			out.Vega[i] = g.Vega
		}
	}
	// Background cannot be cancelled, so the region cannot fail.
	_ = parallel.Region(context.Background(), n, width, c, run)
	if c != nil {
		c.AddBytes(uint64(24*n), uint64(32*n))
		c.Items += uint64(n)
	}
}
