// Package blackscholes implements the closed-form Black-Scholes European
// option pricing kernel at the paper's three optimization levels
// (Sec. IV-A, Fig. 4):
//
//   - Basic: the reference loop of Lis. 1, autovectorized over AOS data.
//     Each input field becomes a strided gather and each output a scatter,
//     which is what makes the reference version 3x slower on KNC than on
//     SNB-EP.
//   - Intermediate: the AOS-to-SOA data transposition, turning every
//     gather into an aligned vector load. This is the paper's key
//     Black-Scholes optimization (10x on KNC).
//   - Advanced: VML-style batch evaluation over cache-blocked SOA chunks,
//     with the call/put parity and cnd->erf substitutions of Sec. IV-A2.
//
// A pure-scalar reference (RefScalar) provides the correctness baseline
// every optimized variant is tested against.
package blackscholes // finlint:hot — allocation-free loops enforced by internal/lint

import (
	"context"
	"sync"

	"finbench/internal/layout"
	"finbench/internal/mathx"
	"finbench/internal/parallel"
	"finbench/internal/perf"
	"finbench/internal/vec"
	"finbench/internal/workload"
)

// ctxBlock is the option-count granularity of the cancellable variants'
// context checks. It must be a multiple of every supported SIMD width so
// blocking the loops does not move the vector-group boundaries (keeping
// blocked and unblocked runs bit-identical).
const ctxBlock = 1024

// PriceScalar prices a single European call and put.
// d1 = (ln(S/X) + (r + sig^2/2) T) / (sig sqrt(T)), d2 = d1 - sig sqrt(T);
// call = S Phi(d1) - X e^{-rT} Phi(d2), put by symmetry.
func PriceScalar(s, x, t float64, mkt workload.MarketParams) (call, put float64) {
	r, sig := mkt.R, mkt.Sigma
	sig22 := sig * sig / 2
	qlog := mathx.Log(s / x)
	denom := 1 / (sig * mathx.Sqrt(t))
	d1 := (qlog + (r+sig22)*t) * denom
	d2 := (qlog + (r-sig22)*t) * denom
	xexp := x * mathx.Exp(-r*t)
	call = s*mathx.CND(d1) - xexp*mathx.CND(d2)
	put = xexp*mathx.CND(-d2) - s*mathx.CND(-d1)
	return call, put
}

// RefScalar prices the batch with the reference scalar loop (Lis. 1),
// recording the scalar operation mix. It is the "naively-written C/C++
// code" side of the Ninja gap.
func RefScalar(a layout.AOS, mkt workload.MarketParams, c *perf.Counts) {
	n := a.Len()
	for i := 0; i < n; i++ {
		call, put := PriceScalar(a.S(i), a.X(i), a.T(i), mkt)
		a.SetResult(i, call, put)
	}
	if c != nil {
		// Per option: 1 log, 1 sqrt, 1 exp, 1 divide, 4 cnd, ~12 flops,
		// 3 scalar loads, 2 scalar stores.
		un := uint64(n)
		c.Add(perf.OpLog, un)
		c.Add(perf.OpSqrt, un)
		c.Add(perf.OpExp, un)
		c.Add(perf.OpCND, 4*un)
		c.Add(perf.OpScalar, 14*un) // flops incl. the two divides
		c.Add(perf.OpScalarLoad, 3*un)
		c.Add(perf.OpScalarStore, 2*un)
		c.AddBytes(uint64(40*n), uint64(16*n))
		c.Items += un
	}
}

// priceVec prices one vector of options given input registers, using the
// reference formula (cnd four times, no parity), as the autovectorizer
// emits for Lis. 1.
func priceVec(ctx vec.Ctx, s, x, t vec.Vec, mkt workload.MarketParams) (call, put vec.Vec) {
	r, sig := mkt.R, mkt.Sigma
	sig22 := sig * sig / 2
	qlog := ctx.Log(ctx.Div(s, x))
	denom := ctx.Div(ctx.Broadcast(1), ctx.Mul(ctx.Broadcast(sig), ctx.Sqrt(t)))
	d1 := ctx.Mul(ctx.FMA(ctx.Broadcast(r+sig22), t, qlog), denom)
	d2 := ctx.Mul(ctx.FMA(ctx.Broadcast(r-sig22), t, qlog), denom)
	xexp := ctx.Mul(x, ctx.Exp(ctx.Mul(ctx.Broadcast(-r), t)))
	call = ctx.Sub(ctx.Mul(s, ctx.CND(d1)), ctx.Mul(xexp, ctx.CND(d2)))
	put = ctx.Sub(ctx.Mul(xexp, ctx.CND(ctx.Neg(d2))), ctx.Mul(s, ctx.CND(ctx.Neg(d1))))
	return call, put
}

// Basic prices the AOS batch with inner-loop vectorization over the AOS
// layout: the compiler-only optimization level. Inputs are gathered from
// (and outputs scattered to) records spread across `width` cache lines.
// The batch length must be a multiple of the vector width (callers pad
// with layout.PadTo).
func Basic(a layout.AOS, mkt workload.MarketParams, width int, c *perf.Counts) {
	_ = BasicCtx(context.Background(), a, mkt, width, c)
}

// BasicCtx is Basic with cancellation checked every ctxBlock options; an
// uncancelled run is bit-identical to Basic (blocking at a multiple of the
// width preserves the vector-group boundaries). On a non-nil return the
// batch outputs are partial.
func BasicCtx(cx context.Context, a layout.AOS, mkt workload.MarketParams, width int, c *perf.Counts) error {
	done := cx.Done()
	n := a.Len()
	run := func(lo, hi int, c *perf.Counts) {
		ctx := vec.New(width, c)
		for blo := lo; blo < hi; blo += ctxBlock {
			bhi := blo + ctxBlock
			if bhi > hi {
				bhi = hi
			}
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			i := blo
			for ; i+width <= bhi; i += width {
				base := i * layout.Stride
				s := ctx.GatherStride(a.Data, base+layout.FieldS, layout.Stride)
				x := ctx.GatherStride(a.Data, base+layout.FieldX, layout.Stride)
				t := ctx.GatherStride(a.Data, base+layout.FieldT, layout.Stride)
				call, put := priceVec(ctx, s, x, t, mkt)
				ctx.ScatterStride(a.Data, base+layout.FieldCall, layout.Stride, call)
				ctx.ScatterStride(a.Data, base+layout.FieldPut, layout.Stride, put)
			}
			// Scalar remainder (SIMD-efficiency loss at loop end, Sec. IV-B1).
			for ; i < bhi; i++ {
				call, put := PriceScalar(a.S(i), a.X(i), a.T(i), mkt)
				a.SetResult(i, call, put)
			}
		}
	}
	if err := parallel.Region(cx, n, width, c, run); err != nil {
		return err
	}
	if c != nil {
		c.AddBytes(uint64(40*n), uint64(16*n))
		c.Items += uint64(n)
	}
	return nil
}

// Intermediate prices the SOA batch with SIMD across options: aligned
// loads, call/put parity and the cnd->erf substitution (Sec. IV-A2).
func Intermediate(s *layout.SOA, mkt workload.MarketParams, width int, c *perf.Counts) {
	_ = IntermediateCtx(context.Background(), s, mkt, width, c)
}

// IntermediateCtx is Intermediate with cancellation checked every ctxBlock
// options; an uncancelled run is bit-identical to Intermediate (ctxBlock is
// a multiple of the width, so the vector/scalar-tail split per worker chunk
// is unchanged). On a non-nil return the batch outputs are partial.
func IntermediateCtx(cx context.Context, s *layout.SOA, mkt workload.MarketParams, width int, c *perf.Counts) error {
	done := cx.Done()
	n := s.Len()
	r, sig := mkt.R, mkt.Sigma
	sig22 := sig * sig / 2
	// Region-invariant constants are broadcast (and counted) once, outside
	// the region, so the op mix does not grow with the chunk count.
	pre := vec.New(width, c)
	half := pre.Broadcast(0.5)
	one := pre.Broadcast(1)
	invSqrt2 := pre.Broadcast(mathx.InvSqrt2)
	run := func(lo, hi int, c *perf.Counts) {
		ctx := vec.New(width, c)
		for blo := lo; blo < hi; blo += ctxBlock {
			bhi := blo + ctxBlock
			if bhi > hi {
				bhi = hi
			}
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			i := blo
			for ; i+width <= bhi; i += width {
				sp := ctx.Load(s.S, i)
				x := ctx.Load(s.X, i)
				t := ctx.Load(s.T, i)
				qlog := ctx.Log(ctx.Div(sp, x))
				denom := ctx.Div(one, ctx.Mul(ctx.Broadcast(sig), ctx.Sqrt(t)))
				d1 := ctx.Mul(ctx.FMA(ctx.Broadcast(r+sig22), t, qlog), denom)
				d2 := ctx.Mul(ctx.FMA(ctx.Broadcast(r-sig22), t, qlog), denom)
				xexp := ctx.Mul(x, ctx.Exp(ctx.Mul(ctx.Broadcast(-r), t)))
				// cnd(d) = (1 + erf(d/sqrt2))/2; two erf calls replace four cnd.
				nd1 := ctx.Mul(ctx.Add(one, ctx.Erf(ctx.Mul(d1, invSqrt2))), half)
				nd2 := ctx.Mul(ctx.Add(one, ctx.Erf(ctx.Mul(d2, invSqrt2))), half)
				call := ctx.Sub(ctx.Mul(sp, nd1), ctx.Mul(xexp, nd2))
				// Put-call parity: put = call - S + X e^{-rT}.
				put := ctx.Add(ctx.Sub(call, sp), xexp)
				ctx.Store(s.Call, i, call)
				ctx.Store(s.Put, i, put)
			}
			for ; i < bhi; i++ {
				call, put := PriceScalar(s.S[i], s.X[i], s.T[i], mkt)
				s.Call[i] = call
				s.Put[i] = put
			}
		}
	}
	if err := parallel.Region(cx, n, width, c, run); err != nil {
		return err
	}
	if c != nil {
		c.AddBytes(uint64(24*n), uint64(16*n))
		c.Items += uint64(n)
	}
	return nil
}

// VMLChunk is the cache-resident batch size of the Advanced variant: the
// intermediate arrays of a chunk must fit in L2 (paper Sec. IV-A3 notes
// VML's "larger cache footprint").
const VMLChunk = 2048

// vmlScratch is one worker's set of VML intermediate arrays (5 x 16KiB,
// cache-blocked). Pooled: the arrays are scratch whose live range is a
// single AdvancedCtx worker invocation.
type vmlScratch struct {
	qlog, denom, xexp, d1, d2 [VMLChunk]float64
}

var vmlScratchPool = sync.Pool{New: func() any { return new(vmlScratch) }}

// Stages selects invariant columns of the Advanced pipeline (see
// Columns).
type Stages uint8

// The Advanced pipeline's three invariant stages. Each column depends on
// the batch and one market input only: the log-moneyness ln(S/X) on the
// spots, the inverse vol-time 1/(σ√T) on σ and the discount e^{−rT} on
// r. Only the tail (d1/d2, two erf, parity) needs all of them.
const (
	StageQLog Stages = 1 << iota
	StageDenom
	StageDisc
)

// Columns supplies the invariant columns of an AdvancedColumnsCtx call,
// each of the batch's length. A nil column is computed per chunk into
// worker scratch, as AdvancedCtx does; a non-nil one is computed into
// place when its stage is in Fill and read as given otherwise. Rows of a
// scenario grid that share a market input share its column, so a caller
// that keeps the columns of one batch prices later rows with the tail
// alone.
type Columns struct {
	QLog, Denom, Disc []float64
	Fill              Stages
}

// logMoneyness is the first invariant stage: qlog[i] = ln(S[i]/X[i]).
func logMoneyness(qlog, s, x []float64) {
	x = x[:len(qlog)]
	s = s[:len(qlog)]
	for i := range qlog {
		qlog[i] = s[i] / x[i]
	}
	mathx.LogArray(qlog, qlog)
}

// invVolSqrtT is the second invariant stage: denom[i] = 1/(σ√T[i]).
func invVolSqrtT(denom, t []float64, sig float64) {
	t = t[:len(denom)]
	for i := range denom {
		denom[i] = sig * sig * t[i]
	}
	mathx.SqrtArray(denom, denom)
	mathx.InvArray(denom, denom)
}

// discount is the third invariant stage: disc[i] = e^{−r T[i]}.
func discount(disc, t []float64, r float64) {
	t = t[:len(disc)]
	for i := range disc {
		disc[i] = -r * t[i]
	}
	mathx.ExpArray(disc, disc)
}

// advancedTail is the per-valuation stage: d1/d2 from the invariant
// columns, two erf (the cnd->erf substitution) and put-call parity. d1
// and d2 are scratch. Every product that feeds an add or a subtraction
// is rounded first (float64(a*b)), so arm64 fuses none of them and the
// tail's bits are those of amd64, where nothing fuses.
func advancedTail(call, put, s, x, t, qlog, denom, disc, d1, d2 []float64, r, sig22 float64) {
	m := len(call)
	put, s, x, t = put[:m], s[:m], x[:m], t[:m]
	qlog, denom, disc, d1, d2 = qlog[:m], denom[:m], disc[:m], d1[:m], d2[:m]
	for i := 0; i < m; i++ {
		t := t[i]
		d1[i] = (qlog[i] + float64((r+sig22)*t)) * denom[i] * mathx.InvSqrt2
		d2[i] = (qlog[i] + float64((r-sig22)*t)) * denom[i] * mathx.InvSqrt2
	}
	mathx.ErfArray(d1, d1)
	mathx.ErfArray(d2, d2)
	for i := 0; i < m; i++ {
		x := float64(x[i] * disc[i])
		sp := s[i]
		c := float64(sp*0.5*(1+d1[i])) - float64(x*0.5*(1+d2[i]))
		call[i] = c
		put[i] = c - sp + x
	}
}

// chunkColumn resolves one invariant column for the chunk [base, base+m):
// a nil col is the worker's scratch and always computed; a supplied one
// is sliced and computed only when fill is set.
func chunkColumn(col []float64, fill bool, base, m int, scratch []float64) ([]float64, bool) {
	if col == nil {
		return scratch[:m], true
	}
	return col[base : base+m], fill
}

// advancedChunk evaluates one cache-blocked chunk [base, base+m) of the
// VML-style pipeline: the invariant stages cols does not supply, then the
// tail. Every scratch prefix it reads is overwritten first, so stale pool
// contents cannot leak into results.
func advancedChunk(s *layout.SOA, base, m int, r, sig, sig22 float64, cols Columns, sc *vmlScratch) {
	sp, x, t := s.S[base:base+m], s.X[base:base+m], s.T[base:base+m]
	qlog, fill := chunkColumn(cols.QLog, cols.Fill&StageQLog != 0, base, m, sc.qlog[:])
	if fill {
		logMoneyness(qlog, sp, x)
	}
	denom, fill := chunkColumn(cols.Denom, cols.Fill&StageDenom != 0, base, m, sc.denom[:])
	if fill {
		invVolSqrtT(denom, t, sig)
	}
	disc, fill := chunkColumn(cols.Disc, cols.Fill&StageDisc != 0, base, m, sc.xexp[:])
	if fill {
		discount(disc, t, r)
	}
	advancedTail(s.Call[base:base+m], s.Put[base:base+m], sp, x, t, qlog, denom, disc, sc.d1[:m], sc.d2[:m], r, sig22)
}

// Advanced prices the SOA batch VML-style: whole-array transcendental
// calls over cache-blocked chunks, with parity and erf substitution.
func Advanced(s *layout.SOA, mkt workload.MarketParams, width int, c *perf.Counts) {
	_ = AdvancedCtx(context.Background(), s, mkt, width, c)
}

// AdvancedCtx is Advanced with cancellation checked once per VMLChunk (the
// loop is already cache-blocked, so the check adds no extra structure); an
// uncancelled run is bit-identical to Advanced. On a non-nil return the
// batch outputs are partial.
func AdvancedCtx(cx context.Context, s *layout.SOA, mkt workload.MarketParams, width int, c *perf.Counts) error {
	if err := advancedRun(cx, s, mkt, width, c == nil, Columns{}); err != nil {
		return err
	}
	n := s.Len()
	if c != nil {
		// VML mix per option (vector-instruction counts per `width`
		// options): the transcendentals, one divide, and the extra
		// loads/stores of streaming intermediates through cache. The mix is
		// analytic, so it is charged once for the whole batch.
		un := uint64(n)
		// VML's long-array transcendentals amortize the per-call setup
		// of the SVML kernels (~15%), the reason "using the Intel VML
		// is more efficient on SNB-EP" (Sec. IV-A3); the extra
		// intermediate-array traffic below is what cancels the benefit
		// on KNC.
		disc := func(n uint64) uint64 { return n * 17 / 20 }
		c.Add(perf.OpLog, disc(un))
		c.Add(perf.OpSqrt, disc(un))
		c.Add(perf.OpExp, disc(un))
		c.Add(perf.OpErf, disc(2*un))
		vecIters := un / uint64(width)
		c.Add(perf.OpVecDiv, 2*vecIters)
		c.Add(perf.OpVecMul, 10*vecIters)
		c.Add(perf.OpVecAdd, 7*vecIters)
		c.Add(perf.OpVecFMA, 2*vecIters)
		// Intermediate arrays are re-loaded/stored by each VML pass:
		// ~12 extra vector loads and ~8 stores per vector of options.
		c.Add(perf.OpVecLoad, 12*vecIters)
		c.Add(perf.OpVecStore, 8*vecIters)
		if c.Width == 0 {
			c.Width = width
		}
		c.AddBytes(uint64(24*n), uint64(16*n))
		c.Items += un
	}
	return nil
}

// AdvancedColumnsCtx is AdvancedCtx (uncounted) over a batch whose
// invariant columns cols supplies or receives: stages in cols.Fill are
// computed into their columns, other non-nil columns are read as given,
// and nil ones are computed per chunk as AdvancedCtx does. With every
// read column holding what its stage computes for this batch and market,
// the outputs are bit-identical to AdvancedCtx's. Chunking and
// cancellation are AdvancedCtx's; on a non-nil return the outputs and the
// filled columns are partial.
func AdvancedColumnsCtx(cx context.Context, s *layout.SOA, mkt workload.MarketParams, width int, cols Columns) error {
	return advancedRun(cx, s, mkt, width, true, cols)
}

// advancedRun is the Advanced region shared by AdvancedCtx and
// AdvancedColumnsCtx: one advancedChunk per VMLChunk options, serially
// when the batch is one chunk and serial is allowed (an uncounted call),
// else across parallel.Region workers writing disjoint chunks.
func advancedRun(cx context.Context, s *layout.SOA, mkt workload.MarketParams, width int, serial bool, cols Columns) error {
	done := cx.Done()
	n := s.Len()
	r, sig := mkt.R, mkt.Sigma
	sig22 := sig * sig / 2
	if n <= VMLChunk && serial {
		// Single-chunk serial fast path: the serving tier's common case.
		// A one-chunk region has exactly one cancellation check, which
		// the entry check below provides, so no fork-join structure (and
		// none of its closure allocations) is needed. advancedChunk is
		// the same chunk body the forked path runs, so results stay
		// bit-identical.
		if err := cx.Err(); err != nil {
			return err
		}
		sc := vmlScratchPool.Get().(*vmlScratch)
		advancedChunk(s, 0, n, r, sig, sig22, cols, sc)
		vmlScratchPool.Put(sc)
		return nil
	}
	run := func(lo, hi int, _ *perf.Counts) {
		// Per-worker scratch (cache-resident intermediates), pooled so a
		// steady request stream prices without per-call slice allocations.
		sc := vmlScratchPool.Get().(*vmlScratch)
		defer vmlScratchPool.Put(sc)
		for base := lo; base < hi; base += VMLChunk {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			m := hi - base
			if m > VMLChunk {
				m = VMLChunk
			}
			advancedChunk(s, base, m, r, sig, sig22, cols, sc)
		}
	}
	return parallel.Region(cx, n, width, nil, run)
}
