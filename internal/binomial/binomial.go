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
// The American put (PriceAmericanPutScalarCtx) is the host path
// finbench.Price and the server run: plain slices, a precomputed
// early-exercise ladder instead of an exponential per node, and a
// two-level tiled reduction over each level's live window only. The nodes
// outside the window are known exactly, +0 in the zero cone above it and
// the exercise value in the provably exercised region below it, so a
// served tree evaluates about 30% of its N(N+1)/2 nodes (EXPERIMENTS.md)
// where the counted variants above evaluate all of them at 3 flops each.
// It records no op mix; it is pinned bit for bit against the per-node
// listing in oracle_test.go and window_oracle_test.go. The trinomial put
// (trinomial.go) takes the ladder but still reduces every node.
package binomial // finlint:hot — allocation-free loops enforced by internal/lint

import (
	"context"
	"math"

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
// cancellation checked every ctxLevelBlock tree levels. It computes the
// per-node listing's value, 2N+1 exponentials per option, and evaluates
// only each level's live window (walkAmericanPut). It is the
// cross-validation oracle for the Crank-Nicolson kernel.
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

// treeTile is how many tree levels one pass of walkAmericanPut reduces: the
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
		lad[(k+n)&1][(k+n)>>1] = x - float64(s*mathx.Exp(p.VDt*float64(k)))
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
	return walkAmericanPut(done, buf[2*n+1:], lad, p, p.exerciseSkips(s, x))
}

// exerciseSkips reports whether the walk may take nodes whose children
// hold their exercise values as exercised. It checks the premises of the
// proof in DESIGN §5: both discounted probabilities > 0, so the
// continuation is a cancellation-free sum; the one-step gap
// 1 - (PuByDf + PdByDf) above exerciseMargin; a positive spot; a finite
// strike of at least 2^-960, so every rounding's absolute floor is far
// below the margin; and a ladder whose exponentials are normal doubles
// (N·vΔt <= 700). Any NaN fails. The sign premise keeps the proof short;
// no price a contract can produce depends on it (DESIGN §5).
func (p Params) exerciseSkips(s, x float64) bool {
	return p.PuByDf > 0 && p.PdByDf > 0 && 1-(p.PuByDf+p.PdByDf) > exerciseMargin &&
		s > 0 && x >= 0x1p-960 && x <= math.MaxFloat64 && float64(p.Steps)*p.VDt <= 700
}

// walkAmericanPut reduces the tree whose exercise values lad holds (as
// exerciseLadder lays them out) into val, N+1 values, and returns
// the root. Each level is reduced only over its live window [lo, hi);
// every value outside it is known exactly:
//
//   - The zero cone. Nodes j >= z, at every level, are +0: z starts the
//     longest top run of ladder entries that are < 0 or +0, over every k,
//     so each such node's subtree has +0 leaves and non-positive exercise
//     values, and its continuation of two +0 children is checked to be +0
//     (it is for any finite pair of probabilities not both negative).
//     Those slots keep the leaves' +0 and are never written.
//   - The exercised prefix, when skip holds (exerciseSkips). e counts
//     the leading nodes whose value has their exercise value's bits; a
//     node whose two children both do is exercised (DESIGN §5), so a
//     two-level pass starts at e-2 and a single level at e-1. The
//     exercise values of the two slots under lo are written so the next
//     window reads correct children.
//
// The tiled kernels run on the window's sub-slices, so every value
// computed is the per-node listing's expression.
func walkAmericanPut(done <-chan struct{}, val []float64, lad [2][]float64, p Params, skip bool) (price float64, ok bool) {
	n := p.Steps
	for j, v := range lad[0] {
		if v < 0 {
			v = 0
		}
		val[j] = v
	}
	z := n + 1
	if zeroStaysZero(float64(p.PuByDf*0) + float64(p.PdByDf*0)) {
		k := n
		for k >= -n && atMostZero(lad[(k+n)&1][(k+n)>>1]) {
			k--
		}
		z = (k + n + 2) >> 1 // the first j with 2j-N above k
	}
	e := 0 // the leaves with a positive payoff hold their exercise value
	for e <= n && lad[0][e] > 0 {
		e++
	}
	// level returns the exercise values of tree level l, nodes 0..l.
	level := func(l int) []float64 { return lad[(n-l)&1][(n-l)>>1:][:l+1] }
	for i := n; i > 0; {
		select {
		case <-done: // nil, so never ready, when the walk cannot be cancelled
			return 0, false
		default:
		}
		stop := max(i-ctxLevelBlock, 0)
		// Tiled passes take level i to level i-treeTile; the single-level
		// tail finishes the block.
		for ; i-treeTile >= stop; i -= treeTile {
			lo, hi := 0, min(z, i-1)
			if skip {
				lo = max(e-2, 0)
			}
			exA, exB := level(i-1), level(i-2)
			if lo < hi {
				reduceTwoLevels(val[lo:hi+2], exA[lo:hi+1], exB[lo:hi], p)
			}
			if skip {
				e = heldPrefix(val, exB, lo, hi)
			}
		}
		for ; i > stop; i-- {
			lo, hi := 0, min(z, i)
			if skip {
				lo = max(e-1, 0)
			}
			ex := level(i - 1)
			if lo < hi {
				reduceLevel(val[lo:hi+1], ex[lo:hi], p)
			}
			if skip {
				e = heldPrefix(val, ex, lo, hi)
			}
		}
	}
	return val[0], true
}

// exerciseMargin is the smallest gap 1 - df (df = PuByDf + PdByDf, the
// one-step discount) at which walkAmericanPut takes a node whose children
// both hold their exercise value as exercised without evaluating it. The
// exact continuation of such a node is x·df - S_k, a gap of x·(1 - df)
// below its exercise value x - S_k; 1e-9 is over 10^4 times the rounding
// of the ladder, the probabilities and the sum (DESIGN §5). It is a
// constant of the proof, not a knob.
const exerciseMargin = 1e-9

// zeroStaysZero reports whether a node's continuation of +0 children, c,
// is +0, so that a node whose subtree holds only +0 leaves and
// non-positive exercise values is +0 too.
func zeroStaysZero(c float64) bool { return math.Float64bits(c) == 0 }

// atMostZero reports whether an exercise value v leaves its node at +0:
// v < 0 or v = +0 (a -0 leaf payoff would stay -0).
func atMostZero(v float64) bool { return v < 0 || math.Float64bits(v) == 0 }

// heldPrefix finishes a window [lo, hi) of one level whose nodes below lo
// are exercised: it writes the exercise values ex of the (at most two)
// slots just under lo, which the next window may read as children, and
// returns the new exercised prefix, lo plus the window's leading run of
// nodes whose value has their exercise value's bits. A NaN ends the run.
func heldPrefix(val, ex []float64, lo, hi int) int {
	for j := max(lo-2, 0); j < lo; j++ {
		val[j] = ex[j]
	}
	for lo < hi && math.Float64bits(val[lo]) == math.Float64bits(ex[lo]) && !math.IsNaN(ex[lo]) {
		lo++
	}
	return lo
}

// reduceLevel takes val from tree level i = len(val)-1 to level i-1 in
// place: the continuation value of Lis. 2 against the early-exercise
// value ex[j]. It is the single-level tail of walkAmericanPut, which it
// inlines into.
func reduceLevel(val, ex []float64, p Params) {
	pu, pd := p.PuByDf, p.PdByDf
	in := val[1:][:len(ex)]
	lo := val[0]
	for j, e := range ex {
		hi := in[j]
		cont := float64(pu*hi) + float64(pd*lo)
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
	a0 := float64(pu*v1) + float64(pd*val[0])
	if e := exA[0]; e > a0 {
		a0 = e
	}
	exA = exA[1:][:len(exB)]
	for j, eb := range exB {
		v2 := in[j]
		a1 := float64(pu*v2) + float64(pd*v1)
		if e := exA[j]; e > a1 {
			a1 = e
		}
		b := float64(pu*a1) + float64(pd*a0)
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
