// Package montecarlo implements the European Monte Carlo option pricing
// kernel of Sec. IV-D (Lis. 5) and Table II.
//
// Each option is priced by integrating the terminal Black-Scholes density
// over npath sampled paths: res = max(0, S*exp(vol*sqrt(T)*z + mu*T) - X)
// with mu = r - vol^2/2, accumulating the payoff sum (v0) and the sum of
// squares (v1) for the confidence interval.
//
// Two practical modes mirror Table II's rows:
//
//   - Stream: normals are pre-generated and streamed from memory (m_r);
//     the same sequence is reused for every option. Instruction overhead
//     of the double-precision exp keeps the kernel compute-bound anyway.
//   - Compute: normals are generated inline (vectorized MT19937+ICDF per
//     worker); generation dominates the runtime.
//
// Variants: RefScalar (the naive loop), Vectorized (inner-loop SIMD with
// lane accumulators and unrolling — the paper reaches peak with basic
// pragmas here). Those run on the software vector ISA to record op mixes;
// SharedStreamCtx is the host path finbench.Price and the server run. It
// is the stream mode across requests as well: the normals it draws are
// kept in a process-wide store bounded at 16 MiB (store.go) and read back
// by later requests with the same seed, bit for bit as if drawn again.
package montecarlo // finlint:hot — allocation-free loops enforced by internal/lint

import (
	"context"
	"math"

	"finbench/internal/mathx"
	"finbench/internal/parallel"
	"finbench/internal/perf"
	"finbench/internal/rng"
	"finbench/internal/vec"
	"finbench/internal/workload"
)

// Result is the Monte Carlo estimate for one option.
type Result struct {
	// Price is the discounted mean payoff.
	Price float64
	// StdErr is the discounted standard error of the mean.
	StdErr float64
}

// estimate converts payoff accumulators into a discounted estimate. The
// square of the mean is rounded before the subtraction so that no
// architecture fuses the two.
func estimate(v0, v1 float64, npath int, t float64, mkt workload.MarketParams) Result {
	n := float64(npath)
	mean := v0 / n
	variance := v1/n - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	df := mathx.Exp(-mkt.R * t)
	return Result{
		Price:  df * mean,
		StdErr: df * mathx.Sqrt(variance/n),
	}
}

// PriceScalarStream prices one option from a pre-generated normal stream
// (Lis. 5 with STREAM true).
func PriceScalarStream(s, x, t float64, z []float64, mkt workload.MarketParams) Result {
	vRtT := mathx.Sqrt(t) * mkt.Sigma
	muT := t * (mkt.R - mkt.Sigma*mkt.Sigma/2)
	var v0, v1 float64
	for _, r := range z {
		res := s*mathx.Exp(vRtT*r+muT) - x
		if res < 0 {
			res = 0
		}
		v0 += res
		v1 += res * res
	}
	return estimate(v0, v1, len(z), t, mkt)
}

// RefScalar prices every option in the SOA batch against the shared normal
// stream z, one path at a time (the reference code path). Put outputs hold
// the standard error.
// finlint:ignore unreached reference the vectorized variants are tested against
func RefScalar(s *workload.MCBatch, z []float64, mkt workload.MarketParams, c *perf.Counts) {
	n := len(s.S)
	_ = parallel.Region(context.Background(), n, 1, c, func(lo, hi int, c *perf.Counts) {
		for i := lo; i < hi; i++ {
			res := PriceScalarStream(s.S[i], s.X[i], s.T[i], z, mkt)
			s.Price[i] = res.Price
			s.StdErr[i] = res.StdErr
		}
		if c != nil {
			paths := uint64(hi-lo) * uint64(len(z))
			c.Add(perf.OpExp, paths)
			c.Add(perf.OpScalar, paths*5)
			c.Add(perf.OpScalarLoad, paths)
		}
	})
	if c != nil {
		// The shared normal buffer is streamed from DRAM once and then
		// served from the cache hierarchy across options ("the same set of
		// numbers is used for all options"; the paper observes the kernel
		// "remains compute-bound", Sec. IV-D1, which requires this reuse).
		c.AddBytes(uint64(len(z))*8, uint64(16*n))
		c.Items += uint64(n)
	}
}

// Vectorized prices the batch with the paper's peak configuration:
// inner-loop SIMD over paths with `unroll` independent accumulator pairs
// (the #pragma unroll that breaks the back-to-back dependence), streaming
// normals from z. Path counts must be a multiple of width*unroll for the
// vector body; a scalar tail handles the rest.
func Vectorized(s *workload.MCBatch, z []float64, mkt workload.MarketParams, width, unroll int, c *perf.Counts) {
	if unroll < 1 {
		unroll = 1
	}
	n := len(s.S)
	_ = parallel.Region(context.Background(), n, 1, c, func(lo, hi int, c *perf.Counts) {
		ctx := vec.New(width, c)
		for i := lo; i < hi; i++ {
			v0, v1 := pathLoopStream(ctx, s.S[i], s.X[i], s.T[i], z, mkt, unroll)
			res := estimate(v0, v1, len(z), s.T[i], mkt)
			s.Price[i] = res.Price
			s.StdErr[i] = res.StdErr
		}
	})
	if c != nil {
		// See RefScalar: the shared normal buffer is charged once.
		c.AddBytes(uint64(len(z))*8, uint64(16*n))
		c.Items += uint64(n)
	}
}

// pathLoopStream is the vector inner loop shared by the streamed variants.
func pathLoopStream(ctx vec.Ctx, s, x, t float64, z []float64, mkt workload.MarketParams, unroll int) (v0, v1 float64) {
	vRtT := ctx.Broadcast(mathx.Sqrt(t) * mkt.Sigma)
	muT := ctx.Broadcast(float64(t * (mkt.R - float64(mkt.Sigma*mkt.Sigma/2))))
	sv := ctx.Broadcast(s)
	xv := ctx.Broadcast(x)
	zero := ctx.Zero()
	width := ctx.W
	block := width * unroll
	acc0 := make([]vec.Vec, unroll)
	acc1 := make([]vec.Vec, unroll)
	p := 0
	for ; p+block <= len(z); p += block {
		for u := 0; u < unroll; u++ {
			r := ctx.Load(z, p+u*width)
			res := ctx.Max(zero, ctx.Sub(ctx.Mul(sv, ctx.Exp(ctx.FMA(vRtT, r, muT))), xv))
			acc0[u] = ctx.Add(acc0[u], res)
			acc1[u] = ctx.FMA(res, res, acc1[u])
		}
	}
	for u := 0; u < unroll; u++ {
		v0 += ctx.ReduceAdd(acc0[u])
		v1 += ctx.ReduceAdd(acc1[u])
	}
	// Scalar tail. Products that feed an add are rounded explicitly, as
	// in pathSums, so that no architecture fuses them.
	vrt := mathx.Sqrt(t) * mkt.Sigma
	mut := float64(t * (mkt.R - float64(mkt.Sigma*mkt.Sigma/2)))
	for ; p < len(z); p++ {
		res := float64(s*mathx.Exp(float64(vrt*z[p])+mut)) - x
		if res < 0 {
			res = 0
		}
		v0 += res
		v1 += float64(res * res)
	}
	return v0, v1
}

// RNGChunk is the buffer size (normals) of the compute-RNG mode; sized to
// stay cache-resident per worker.
const RNGChunk = 4096

// VectorizedComputeRNG prices the batch generating normals inline: each
// worker owns an independent stream and refills a cache-resident chunk as
// the path loop consumes it ("the random-number generation process
// dominates the performance", Sec. IV-D3). A fresh set of normals is drawn
// for every option, matching the paper's computed mode. RNG work IS
// charged here (unlike the Brownian-bridge accounting).
func VectorizedComputeRNG(s *workload.MCBatch, npath int, seed uint64, mkt workload.MarketParams, width, unroll int, c *perf.Counts) {
	n := len(s.S)
	_ = parallel.Region(context.Background(), n, 1, c, func(lo, hi int, c *perf.Counts) {
		ctx := vec.New(width, c)
		stream := rng.NewStream(lo, seed)
		stream.C = c
		buf := make([]float64, RNGChunk)
		for i := lo; i < hi; i++ {
			var v0, v1 float64
			remaining := npath
			for remaining > 0 {
				m := RNGChunk
				if m > remaining {
					m = remaining
				}
				stream.NormalICDF(buf[:m])
				a0, a1 := pathLoopStream(ctx, s.S[i], s.X[i], s.T[i], buf[:m], mkt, unroll)
				v0 += a0
				v1 += a1
				remaining -= m
			}
			res := estimate(v0, v1, npath, s.T[i], mkt)
			s.Price[i] = res.Price
			s.StdErr[i] = res.StdErr
		}
	})
	if c != nil {
		c.AddBytes(0, uint64(16*n))
		c.Items += uint64(n)
	}
}

// The host path: SharedStreamCtx is what finbench.PriceCtx and the server
// call. It consumes the normals with plain scalar arithmetic; the
// vec-based variants above exist to produce the Table II op mixes.
// hostWidth and hostUnroll fix the accumulator layout whose summation
// order defines the served bits: VectorizedComputeRNG(..., 8, 2, nil).
const (
	hostWidth  = 8
	hostUnroll = 2
	hostLanes  = hostWidth * hostUnroll
)

// SharedStreamCtx prices the options of one request, each bit for bit as
// if it were alone in a VectorizedComputeRNG(·, npath, seed, mkt,
// hostWidth, hostUnroll, nil) batch — that is, alone on stream (0, seed).
// Since every option would draw the same normals, each RNGChunk is
// generated once and every option's path loop runs over it (the paper's
// stream mode, Sec. IV-D1: "the same set of numbers is used for all
// options"), so a k-option request pays for npath normals, not k*npath.
// The normals are also kept across requests: they are read from the
// process-wide store when it holds npath of them for seed, and otherwise
// generated, priced chunk by chunk as they are drawn, and stored once the
// last chunk is priced (a stream longer than the store's per-entry cap is
// drawn into one reused chunk and not stored). It is serial and its
// results depend only on (option, npath, seed, mkt): never on k, the
// worker count, the other options or what the store holds. cx is checked
// once per chunk; on a non-nil return the outputs are partial and must be
// discarded, and nothing is stored.
func SharedStreamCtx(cx context.Context, s *workload.MCBatch, npath int, seed uint64, mkt workload.MarketParams) error {
	n := len(s.S)
	// One allocation for a chunk of normals and pathSums' index scratch,
	// which every chunk overwrites without zeroing.
	scratch := new(struct {
		z    [RNGChunk]float64
		kept [RNGChunk]int32
	})
	// z holds the request's normals: stored ones, or a fresh slice the
	// stream draws into for the store. It is nil when npath is over the
	// store's cap, and each chunk is then drawn into scratch.z.
	var stream *rng.Stream // nil when the normals come from the store
	z := streams.get(seed, npath)
	if z == nil {
		stream = rng.NewStream(0, seed)
		if npath <= streams.maxPaths() {
			z = make([]float64, npath)
		}
	}
	// sums[2i] and sums[2i+1] are option i's payoff sum and sum of squares.
	sums := make([]float64, 2*n)
	for off := 0; off < npath; off += RNGChunk {
		select {
		case <-cx.Done():
			return cx.Err()
		default:
		}
		m := min(RNGChunk, npath-off)
		c := scratch.z[:m]
		if z != nil {
			c = z[off : off+m]
		}
		if stream != nil {
			stream.NormalICDF(c)
		}
		for i := 0; i < n; i++ {
			a0, a1 := pathSums(s.S[i], s.X[i], s.T[i], c, scratch.kept[:], mkt)
			sums[2*i] += a0
			sums[2*i+1] += a1
		}
	}
	if stream != nil {
		streams.put(seed, z)
	}
	for i := 0; i < n; i++ {
		res := estimate(sums[2*i], sums[2*i+1], npath, s.T[i], mkt)
		s.Price[i] = res.Price
		s.StdErr[i] = res.StdErr
	}
	return nil
}

// pathSums is pathLoopStream at width hostWidth, unroll hostUnroll,
// without the vector ISA: accumulator p mod hostLanes takes path p
// of every full block, the lanes are summed in ReduceAdd's order (lanes
// ascending within a vector, vectors ascending), and the scalar tail
// follows. Every expression keeps the shape of its vec counterpart
// (float64(a*b) + c for FMA, acc + x for Add) so the sums agree bit for
// bit, and every product that feeds an add is rounded explicitly so that
// no architecture fuses it. The payoff clamp is the branchless max
// builtin — the branch is taken on about half the paths of an
// at-the-money option and mispredicts. It differs from vec.Max only in
// returning +0 for a payoff of -0, which s*e - x cannot produce for x > 0
// and which would add identically.
//
// A full-block path whose normal is at most zc pays exactly +0, and adding
// +0 to acc0 and +0*+0 to acc1 leaves both unchanged, so such paths are
// skipped without evaluating the exponential: the block's indices with
// z > zc are compacted into kept (len(kept) >= len(z)), and only those
// are priced, each into its lane in ascending order as before. zc solves
// vrt*zc + mut = log(x/s) - margin, with a margin of 1e-9 relative to the
// logarithm's size, about 10^6 times the rounding of Log, Exp, s*e and
// -x together (DESIGN §5). When vrt is not positive, x/s is not a normal
// double or zc is not finite, the skip is off: zc is -Inf and every
// (finite) normal is kept.
func pathSums(s, x, t float64, z []float64, kept []int32, mkt workload.MarketParams) (v0, v1 float64) {
	vrt := mathx.Sqrt(t) * mkt.Sigma
	mut := float64(t * (mkt.R - float64(mkt.Sigma*mkt.Sigma/2)))
	var acc0, acc1 [hostLanes]float64
	full := len(z) &^ (hostLanes - 1)
	zc := math.Inf(-1) // keeps every path: the skip is off
	if q := x / s; q >= 0x1p-1022 && vrt > 0 {
		l := mathx.Log(q)
		c := (l - mut - float64(1e-9*(1+math.Abs(l)+math.Abs(mut)))) / vrt
		if !math.IsNaN(c) && !math.IsInf(c, 0) {
			zc = c
		}
	}
	kept = kept[:full]
	k := 0
	for p, r := range z[:full] {
		kept[k] = int32(p)
		var pays int
		if r > zc {
			pays = 1
		}
		k += pays
	}
	for _, p := range kept[:k] {
		res := max(float64(s*mathx.Exp(float64(vrt*z[p])+mut))-x, 0)
		l := p & (hostLanes - 1)
		acc0[l] = acc0[l] + res
		acc1[l] = float64(res*res) + acc1[l]
	}
	for u := 0; u < hostLanes; u += hostWidth {
		var r0, r1 float64
		for l := u; l < u+hostWidth; l++ {
			r0 += acc0[l]
			r1 += acc1[l]
		}
		v0 += r0
		v1 += r1
	}
	for _, r := range z[full:] {
		res := max(float64(s*mathx.Exp(float64(vrt*r)+mut))-x, 0)
		v0 += res
		v1 += float64(res * res)
	}
	return v0, v1
}
