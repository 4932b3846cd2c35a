// Package binomial implements the 1D binomial-tree option pricing kernel at
// the paper's optimization levels (Sec. IV-B, Fig. 5):
//
//   - RefScalar: the reference per-option backward induction of Lis. 2.
//   - Basic: inner-loop (j) vectorization of the reference code, with the
//     unaligned Call[j+1] load and the SIMD-efficiency loss at row ends
//     that the paper calls out.
//   - Intermediate: SIMD across options — one option per lane over a
//     lane-blocked layout, eliminating unaligned loads.
//   - Advanced: the paper's novel register-tiling scheme (Lis. 3, Fig. 2b):
//     TS time steps are fused so each Call value is loaded and stored once
//     per TS steps, with the rest of the reduction kept in registers. The
//     unrolled variant additionally eliminates the wavefront register move
//     (a 1.4x effect on in-order KNC, none on out-of-order SNB-EP).
//
// All variants price European options under the Cox-Ross-Rubinstein
// parameterization and compute identical arithmetic per tree node, so
// results agree bitwise across variants (verified by tests).
//
// The American put (PriceAmericanPutScalarCtx, and its trinomial twin in
// trinomial.go) is the host path finbench.Price and the server run: plain
// slices, a precomputed early-exercise ladder instead of an exponential
// per node, and a two-level tiled reduction. It records no op mix; it is
// pinned bit for bit against the per-node listing in oracle_test.go.
package binomial // finlint:hot — allocation-free loops enforced by internal/lint

import (
	"context"

	"finbench/internal/layout"
	"finbench/internal/mathx"
	"finbench/internal/parallel"
	"finbench/internal/perf"
	"finbench/internal/vec"
	"finbench/internal/workload"
)

// Params binds the tree discretization for one option.
type Params struct {
	// Steps is the tree depth N.
	Steps int
	// VDt is sigma*sqrt(dt).
	VDt float64
	// PuByDf and PdByDf are the discounted up/down probabilities.
	PuByDf, PdByDf float64
}

// NewParams derives CRR tree parameters: u = e^{sigma sqrt(dt)}, d = 1/u,
// pu = (e^{r dt} - d)/(u - d), discounted by e^{-r dt}.
func NewParams(t float64, steps int, mkt workload.MarketParams) Params {
	dt := t / float64(steps)
	vDt := mkt.Sigma * mathx.Sqrt(dt)
	u := mathx.Exp(vDt)
	d := 1 / u
	a := mathx.Exp(mkt.R * dt)
	pu := (a - d) / (u - d)
	df := 1 / a
	return Params{Steps: steps, VDt: vDt, PuByDf: pu * df, PdByDf: (1 - pu) * df}
}

// leaf returns the European call payoff at leaf j: max(S e^{(2j-N) vDt}-X, 0).
func leaf(s, x float64, p Params, j int) float64 {
	v := s*mathx.Exp(p.VDt*float64(2*j-p.Steps)) - x
	if v < 0 {
		return 0
	}
	return v
}

// ctxLevelBlock is how many tree levels the lattice walks reduce between
// context checks: fine enough that a deep tree stops within tens of
// microseconds, coarse enough that the check never shows in profiles.
const ctxLevelBlock = 128

// PriceScalar prices one European call via the reference backward
// induction (Lis. 2).
func PriceScalar(s, x, t float64, steps int, mkt workload.MarketParams) float64 {
	// Background cannot be cancelled, so the walk cannot fail.
	v, _ := PriceScalarCtx(context.Background(), s, x, t, steps, mkt)
	return v
}

// PriceScalarCtx is PriceScalar with cancellation checked every
// ctxLevelBlock tree levels.
func PriceScalarCtx(cx context.Context, s, x, t float64, steps int, mkt workload.MarketParams) (float64, error) {
	if err := cx.Err(); err != nil {
		return 0, err
	}
	p := NewParams(t, steps, mkt)
	call := make([]float64, steps+1)
	for j := 0; j <= steps; j++ {
		call[j] = leaf(s, x, p, j)
	}
	if !reduceScalar(call, p, cx.Done()) {
		return 0, cx.Err()
	}
	return call[0], nil
}

// reduceScalar is the Lis. 2 kernel, the in-place ascending-j update,
// with a cancellation check every ctxLevelBlock levels; it returns false
// if abandoned mid-reduction. It stays its own function: inlined into
// PriceScalarCtx the two-flop inner loop compiles ~12% slower.
func reduceScalar(call []float64, p Params, done <-chan struct{}) bool {
	n := len(call) - 1
	for i := n; i > 0; i-- {
		if (n-i)%ctxLevelBlock == 0 {
			select {
			case <-done:
				return false
			default:
			}
		}
		for j := 0; j <= i-1; j++ {
			call[j] = p.PuByDf*call[j+1] + p.PdByDf*call[j]
		}
	}
	return true
}

// PriceAmericanPutScalarCtx prices one American put on the same tree,
// applying the early-exercise maximum at every node (Sec. II-B), with
// cancellation checked every ctxLevelBlock tree levels: the paper's
// 3 flops per node plus the exercise compare, and 2N+1 exponentials per
// option. It is the cross-validation oracle for the Crank-Nicolson kernel.
func PriceAmericanPutScalarCtx(cx context.Context, s, x, t float64, steps int, mkt workload.MarketParams) (float64, error) {
	if err := cx.Err(); err != nil {
		return 0, err
	}
	v, ok := americanPut(cx.Done(), s, x, NewParams(t, steps, mkt))
	if !ok {
		return 0, cx.Err()
	}
	return v, nil
}

// treeTile is how many tree levels one pass of americanPut reduces: the
// register tiling of Lis. 3 over plain slices, with the intermediate
// level held in locals so each value is loaded and stored once per
// treeTile levels. The depth is fixed by measurement, not a parameter
// (EXPERIMENTS.md, "Served heavy kernels"): per 1024-step option on the
// development host, depth 1 costs 0.85-1.2 ms, depth 2 0.45 ms, depth 3
// the same within noise for half as much code again, and at depth 4 the
// Go compiler spills the tile and the walk slows to 0.76-0.96 ms.
const treeTile = 2

// exerciseLadder fills buf (2N+1 values) with the early-exercise value
// x - S e^{k vDt} for every k in [-N, N], split by parity so that each
// tree level reads one contiguous run: node j of level L sits at
// k = 2j-L, which is entry j + (N-L)/2 of half (N-L)&1. Half 0 holds
// k = -N, -N+2, ..., N (the leaves' spots), half 1 holds k = -N+1, ...,
// N-1. Each entry is the expression the per-node listing evaluates, so
// the walk's values are bit-identical to it with 2N+1 exponentials
// instead of N(N+1)/2.
func exerciseLadder(buf []float64, s, x float64, p Params) [2][]float64 {
	n := p.Steps
	lad := [2][]float64{buf[:n+1], buf[n+1 : 2*n+1]}
	for k := -n; k <= n; k++ {
		lad[(k+n)&1][(k+n)>>1] = x - s*mathx.Exp(p.VDt*float64(k))
	}
	return lad
}

// americanPut is the American-put backward induction. It returns the root
// value; ok is false if done fired, which is polled every ctxLevelBlock
// levels.
func americanPut(done <-chan struct{}, s, x float64, p Params) (price float64, ok bool) {
	n := p.Steps
	buf := make([]float64, 3*n+2) // the ladder, then the level being reduced
	lad := exerciseLadder(buf, s, x, p)
	val := buf[2*n+1:]
	for j, v := range lad[0] {
		if v < 0 {
			v = 0
		}
		val[j] = v
	}
	// level returns the exercise values of tree level l, nodes 0..l.
	level := func(l int) []float64 { return lad[(n-l)&1][(n-l)>>1:][:l+1] }
	for i := n; i > 0; {
		select {
		case <-done: // nil, so never ready, when the walk cannot be cancelled
			return 0, false
		default:
		}
		stop := i - ctxLevelBlock
		if stop < 0 {
			stop = 0
		}
		// Tiled passes take level i to level i-treeTile; the single-level
		// tail finishes the block.
		for ; i-treeTile >= stop; i -= treeTile {
			reduceTwoLevels(val[:i+1], level(i-1), level(i-2), p)
		}
		for ; i > stop; i-- {
			reduceLevel(val[:i+1], level(i-1), p)
		}
	}
	return val[0], true
}

// reduceLevel takes val from tree level i = len(val)-1 to level i-1 in
// place: the continuation value of Lis. 2 against the early-exercise
// value ex[j]. Like reduceScalar it stays its own function so the inner
// loop's few live values are all the register allocator sees.
func reduceLevel(val, ex []float64, p Params) {
	pu, pd := p.PuByDf, p.PdByDf
	in := val[1:][:len(ex)]
	lo := val[0]
	for j, e := range ex {
		hi := in[j]
		cont := pu*hi + pd*lo
		if e > cont {
			cont = e
		}
		val[j] = cont
		lo = hi
	}
}

// reduceTwoLevels takes val from level i = len(val)-1 to level i-2 in
// place (treeTile = 2): node j of level i-1 lives only in the locals
// a0/a1 between being formed from val[j], val[j+1] and being consumed by
// nodes j-1 and j of level i-2, so val is read once and written once per
// two levels. exA and exB are the exercise values of levels i-1 and i-2.
// Every node is the same expression reduceLevel evaluates.
func reduceTwoLevels(val, exA, exB []float64, p Params) {
	pu, pd := p.PuByDf, p.PdByDf
	in := val[2:][:len(exB)]
	out := val[:len(exB)]
	v1 := val[1]
	a0 := pu*v1 + pd*val[0]
	if e := exA[0]; e > a0 {
		a0 = e
	}
	exA = exA[1:][:len(exB)]
	for j, eb := range exB {
		v2 := in[j]
		a1 := pu*v2 + pd*v1
		if e := exA[j]; e > a1 {
			a1 = e
		}
		b := pu*a1 + pd*a0
		if eb > b {
			b = eb
		}
		out[j] = b
		v1, a0 = v2, a1
	}
}

// RefScalar prices the batch with the scalar reference, recording the
// scalar op mix: 3 flops per inner iteration, ~3N(N+1)/2 flops per option
// (the paper's compute bound).
func RefScalar(a layout.AOS, steps int, mkt workload.MarketParams, c *perf.Counts) {
	n := a.Len()
	_ = parallel.Region(context.Background(), n, 1, c, func(lo, hi int, c *perf.Counts) {
		for i := lo; i < hi; i++ {
			price := PriceScalar(a.S(i), a.X(i), a.T(i), steps, mkt)
			a.SetResult(i, price, 0)
		}
		if c != nil {
			un := uint64(hi - lo)
			iters := uint64(steps) * uint64(steps+1) / 2
			c.Add(perf.OpScalar, un*iters*3)
			c.Add(perf.OpScalarLoad, un*iters*2)
			c.Add(perf.OpScalarStore, un*iters)
			c.Add(perf.OpExp, un*uint64(steps+1)) // leaf initialization
			c.Add(perf.OpScalar, un*uint64(steps+1)*3)
		}
	})
	finish(c, n)
}

// Basic prices the batch with the compiler-level optimization: the j loop
// of the reference code autovectorized. Call[j+1] becomes an unaligned
// vector load and each row end leaves a scalar remainder (Sec. IV-B1).
func Basic(a layout.AOS, steps int, mkt workload.MarketParams, width int, c *perf.Counts) {
	n := a.Len()
	_ = parallel.Region(context.Background(), n, 1, c, func(lo, hi int, c *perf.Counts) {
		ctx := vec.New(width, c)
		call := make([]float64, steps+1+vec.MaxWidth)
		for o := lo; o < hi; o++ {
			p := NewParams(a.T(o), steps, mkt)
			for j := 0; j <= steps; j++ {
				call[j] = leaf(a.S(o), a.X(o), p, j)
			}
			if c != nil {
				c.Add(perf.OpExp, uint64(steps+1))
				c.Add(perf.OpScalar, uint64(steps+1)*3)
			}
			pu := ctx.Broadcast(p.PuByDf)
			pd := ctx.Broadcast(p.PdByDf)
			for i := steps; i > 0; i-- {
				j := 0
				for ; j+width <= i; j += width {
					lo1 := ctx.Load(call, j)    // aligned Call[j]
					hi1 := ctx.LoadU(call, j+1) // unaligned Call[j+1]
					res := ctx.FMA(pu, hi1, vecMulLocal(ctx, pd, lo1))
					ctx.Store(call, j, res)
				}
				// Scalar remainder: SIMD-efficiency loss at row end.
				for ; j <= i-1; j++ {
					call[j] = p.PuByDf*call[j+1] + p.PdByDf*call[j]
					if c != nil {
						c.Add(perf.OpScalar, 3)
						c.Add(perf.OpScalarLoad, 2)
						c.Add(perf.OpScalarStore, 1)
					}
				}
			}
			a.SetResult(o, call[0], 0)
		}
	})
	finish(c, n)
}

func vecMulLocal(ctx vec.Ctx, a, b vec.Vec) vec.Vec { return ctx.Mul(a, b) }

// Batch is the lane-blocked state for the SIMD-across-options variants:
// Call[j] holds the value at tree level j for `width` options at once.
type Batch struct {
	width  int
	params []Params  // per lane
	call   []vec.Vec // tree levels, one vector per level
	pu, pd vec.Vec
}

// newBatch builds the blocked state for options [base, base+width) of a.
func newBatch(ctx vec.Ctx, a layout.AOS, base, steps int, mkt workload.MarketParams, c *perf.Counts) *Batch {
	w := ctx.W
	b := &Batch{width: w, params: make([]Params, w), call: make([]vec.Vec, steps+1)}
	n := a.Len()
	for l := 0; l < w; l++ {
		idx := base + l
		if idx >= n {
			idx = n - 1 // pad with the last option
		}
		b.params[l] = NewParams(a.T(idx), steps, mkt)
		b.pu.X[l] = b.params[l].PuByDf
		b.pd.X[l] = b.params[l].PdByDf
	}
	for j := 0; j <= steps; j++ {
		var v vec.Vec
		for l := 0; l < w; l++ {
			idx := base + l
			if idx >= n {
				idx = n - 1
			}
			v.X[l] = leaf(a.S(idx), a.X(idx), b.params[l], j)
		}
		b.call[j] = v
	}
	if c != nil {
		c.Add(perf.OpExp, uint64(steps+1)*uint64(w))
		c.Add(perf.OpVecMul, uint64(steps+1))
		c.Add(perf.OpVecAdd, uint64(steps+1))
		c.Add(perf.OpVecMax, uint64(steps+1))
	}
	return b
}

// Intermediate prices the batch with SIMD across options (one option per
// lane, F64vec8-style outer-loop vectorization). Loads are aligned; the
// per-group working set grows by the vector width (Sec. III-B).
func Intermediate(a layout.AOS, steps int, mkt workload.MarketParams, width int, c *perf.Counts) {
	groups := (a.Len() + width - 1) / width
	_ = parallel.Region(context.Background(), groups, 1, c, func(glo, ghi int, c *perf.Counts) {
		ctx := vec.New(width, c)
		for g := glo; g < ghi; g++ {
			b := newBatch(ctx, a, g*width, steps, mkt, c)
			for i := steps; i > 0; i-- {
				for j := 0; j <= i-1; j++ {
					// One vector load of Call[j+1], one of Call[j] — the
					// counting context charges them via explicit ops.
					hi1 := loadVec(ctx, b.call, j+1)
					lo1 := loadVec(ctx, b.call, j)
					res := ctx.FMA(b.pu, hi1, ctx.Mul(b.pd, lo1))
					storeVec(ctx, b.call, j, res)
				}
			}
			writeResults(a, g*width, width, b.call[0])
		}
	})
	finish(c, a.Len())
}

// loadVec/storeVec model the Call-array traffic of the blocked layout: in
// real code these are aligned vector loads/stores of one cache line.
func loadVec(ctx vec.Ctx, arr []vec.Vec, j int) vec.Vec {
	if ctx.C != nil {
		ctx.C.Add(perf.OpVecLoad, 1)
	}
	return arr[j]
}

func storeVec(ctx vec.Ctx, arr []vec.Vec, j int, v vec.Vec) {
	if ctx.C != nil {
		ctx.C.Add(perf.OpVecStore, 1)
	}
	arr[j] = v
}

// writeResults stores the batch's `width` live lanes, skipping the padded
// lanes of a final partial group. Lanes at and beyond width are never
// computed and belong to the next group's options.
func writeResults(a layout.AOS, base, width int, v vec.Vec) {
	n := a.Len()
	for l := 0; l < width; l++ {
		if base+l >= n {
			break
		}
		a.SetResult(base+l, v.X[l], 0)
	}
}

// Advanced prices the batch with the register-tiled reduction of Lis. 3.
// For TS time steps each Call value is read once and written once; the
// rest of the work happens in registers, raising arithmetic intensity
// (Sec. IV-B2). unrolled selects the variant with the wavefront register
// move eliminated (the paper's final optimization; 1.4x on KNC only).
// steps%tile must be 0 (the harness uses 1024/2048 with tile 8).
func Advanced(a layout.AOS, steps int, mkt workload.MarketParams, width, tile int, unrolled bool, c *perf.Counts) {
	if steps%tile != 0 {
		panic("binomial: steps must be a multiple of the tile size")
	}
	groups := (a.Len() + width - 1) / width
	_ = parallel.Region(context.Background(), groups, 1, c, func(glo, ghi int, c *perf.Counts) {
		ctx := vec.New(width, c)
		tileBuf := make([]vec.Vec, tile)
		for g := glo; g < ghi; g++ {
			b := newBatch(ctx, a, g*width, steps, mkt, c)
			for m := steps; m >= tile; m -= tile {
				// Triangle: initialize the wavefront from Call[0..TS-1]
				// entirely in registers (lower-triangular part, Fig. 2b).
				for j := 0; j < tile; j++ {
					tileBuf[j] = loadVec(ctx, b.call, j)
				}
				for s := 1; s <= tile-1; s++ {
					for j := 0; j <= tile-1-s; j++ {
						tileBuf[j] = ctx.FMA(b.pu, tileBuf[j+1], ctx.Mul(b.pd, tileBuf[j]))
					}
				}
				// Steady state: the shaded trapezoid of Fig. 2b. Each i
				// reads Call[i] once, advances the wavefront TS steps, and
				// writes Call[i-TS] once.
				for i := tile; i <= m; i++ {
					m1 := loadVec(ctx, b.call, i)
					for j := tile - 1; j >= 0; j-- {
						m2 := ctx.FMA(b.pu, m1, ctx.Mul(b.pd, tileBuf[j]))
						if unrolled {
							// Unrolled code renames registers statically;
							// no move instruction is issued.
							tileBuf[j] = m1
						} else {
							tileBuf[j] = ctx.Move(m1)
						}
						m1 = m2
					}
					storeVec(ctx, b.call, i-tile, m1)
				}
			}
			writeResults(a, g*width, width, b.call[0])
		}
	})
	finish(c, a.Len())
}

// finish adds the per-option input/output DRAM traffic (the tree itself is
// cache-resident) and the item count.
func finish(c *perf.Counts, n int) {
	if c != nil {
		c.AddBytes(uint64(24*n), uint64(8*n))
		c.Items += uint64(n)
	}
}
