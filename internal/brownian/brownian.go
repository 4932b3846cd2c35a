// Package brownian implements the depth-level Brownian-bridge path
// construction kernel at the paper's optimization levels (Sec. IV-C,
// Fig. 6):
//
//   - RefScalar: the reference depth-level construction of Lis. 4, one
//     simulation at a time, ping-ponging src/dst buffers, consuming a
//     pre-generated stream of normal random numbers.
//   - Intermediate: SIMD across paths — one simulation per lane, with
//     random numbers consumed in vector-width chunks (the "minor
//     modification" that enables outer-loop vectorization).
//   - AdvancedInterleaved: random-number generation interleaved with
//     bridge construction in cache-sized chunks, removing the DRAM stream
//     of random inputs (the bandwidth bottleneck of the streamed variant).
//   - AdvancedC2C: additionally leaves each constructed path in cache for
//     an immediate consumer instead of writing it back to memory
//     ("cache-to-cache", the top bar of Fig. 6).
//
// Following the paper ("the timings in Fig. 6 do not account for the time
// taken for random number generation"), the operation counts cover bridge
// construction and its memory traffic only; RNG work is generated but not
// charged, and Table II is the separate accounting of RNG cost.
package brownian

import (
	"context"

	"finbench/internal/mathx"
	"finbench/internal/parallel"
	"finbench/internal/perf"
	"finbench/internal/rng"
	"finbench/internal/vec"
)

// Bridge holds the precomputed interpolation weights of a depth-level
// Brownian bridge over [0, T]: at level d, midpoint c interpolates its
// bracketing points with weights WL[d][c], WR[d][c] and adds an
// independent normal scaled by Sig[d][c]. For the uniform grids used here
// WL = WR = 1/2 and Sig[d][c] = sqrt(T/2^(d+2)), but the weights are kept
// in the general (non-uniform) form the reference code uses, computed from
// the grid times.
type Bridge struct {
	// Depth is the level count minus one; levels run d = 0..Depth.
	Depth int
	// Steps is the number of increments, 2^(Depth+1).
	Steps int
	// T is the horizon.
	T float64
	// LastSig scales the terminal point: sqrt(T).
	LastSig float64
	// WL, WR, Sig are the per-level weight tables (length 2^d at level d).
	WL, WR, Sig [][]float64
}

// New builds the weight tables for a bridge of the given depth over [0,T].
func New(depth int, t float64) *Bridge {
	b := &Bridge{
		Depth:   depth,
		Steps:   1 << uint(depth+1),
		T:       t,
		LastSig: mathx.Sqrt(t),
	}
	b.WL = make([][]float64, depth+1)
	b.WR = make([][]float64, depth+1)
	b.Sig = make([][]float64, depth+1)
	for d := 0; d <= depth; d++ {
		n := 1 << uint(d)
		b.WL[d] = make([]float64, n)
		b.WR[d] = make([]float64, n)
		b.Sig[d] = make([]float64, n)
		for c := 0; c < n; c++ {
			// Interval [tl, tr] at this level; midpoint tm.
			tl := t * float64(c) / float64(n)
			tr := t * float64(c+1) / float64(n)
			tm := (tl + tr) / 2
			b.WL[d][c] = (tr - tm) / (tr - tl)
			b.WR[d][c] = (tm - tl) / (tr - tl)
			b.Sig[d][c] = mathx.Sqrt((tm - tl) * (tr - tm) / (tr - tl))
		}
	}
	return b
}

// PathLen returns the number of points per simulation (Steps+1, including
// the pinned origin v(0) = 0).
func (b *Bridge) PathLen() int { return b.Steps + 1 }

// BuildScalar constructs one path from the Steps normals in z, writing
// PathLen() points to out (out[0] = 0). This is Lis. 4 for one simulation.
func (b *Bridge) BuildScalar(z []float64, out []float64) {
	steps := b.Steps
	src := make([]float64, steps+1)
	dst := make([]float64, steps+1)
	b.buildScalarInto(z, src, dst, out)
}

// buildScalarInto is BuildScalar with caller-provided ping-pong scratch.
func (b *Bridge) buildScalarInto(z, src, dst, out []float64) {
	i := 0
	src[0] = 0
	src[1] = z[i] * b.LastSig
	i++
	for d := 0; d <= b.Depth; d++ {
		dst[0] = src[0]
		for c := 0; c < 1<<uint(d); c++ {
			dst[2*c+1] = src[c]*b.WL[d][c] + src[c+1]*b.WR[d][c] + b.Sig[d][c]*z[i]
			dst[2*c+2] = src[c+1]
			i++
		}
		src, dst = dst, src
	}
	copy(out, src[:b.Steps+1])
}

// RefScalar runs sims simulations from the pre-generated normal stream z
// (len >= sims*Steps), writing paths consecutively into out
// (len >= sims*PathLen()). Counts record the scalar mix and the DRAM
// traffic of streaming z in and the paths out.
func (b *Bridge) RefScalar(z []float64, out []float64, sims int, c *perf.Counts) {
	plen := b.PathLen()
	_ = parallel.Region(context.Background(), sims, 1, c, func(lo, hi int, c *perf.Counts) {
		src := make([]float64, plen)
		dst := make([]float64, plen)
		for s := lo; s < hi; s++ {
			b.buildScalarInto(z[s*b.Steps:(s+1)*b.Steps], src, dst, out[s*plen:(s+1)*plen])
		}
		if c != nil {
			un := uint64(hi - lo)
			nodes := uint64(b.Steps - 1) // interior midpoints across levels
			// Per midpoint the naive code performs five dependent/indirect
			// reads (src[c], src[c+1] and the three 2-D weight-table
			// lookups), one streaming read of the normal, two stores, five
			// flops and ~4 index operations.
			c.Add(perf.OpScalar, un*(nodes*9+2))
			c.Add(perf.OpScalarLoadDep, un*nodes*5)
			c.Add(perf.OpScalarLoad, un*nodes)
			c.Add(perf.OpScalarStore, un*nodes*2)
		}
	})
	if c != nil {
		c.AddBytes(uint64(sims*b.Steps*8), uint64(sims*plen*8))
		c.Items += uint64(sims)
	}
}

// Intermediate runs sims simulations with SIMD across paths: `width`
// simulations are constructed per vector pass, with random numbers loaded
// in vector-width chunks (z must be laid out so that the W values consumed
// together are consecutive — the layout RandomsBlocked produces). The
// random stream still comes from DRAM, so the kernel is bandwidth-bound.
func (b *Bridge) Intermediate(z []float64, out []float64, sims, width int, c *perf.Counts) {
	b.vectorRun(out, sims, width, c, func(group, consumed int, ctx vec.Ctx) vec.Vec {
		// One aligned vector load per consumed chunk: W normals, one per
		// lane/simulation.
		return ctx.Load(z, (group*b.Steps+consumed)*width)
	})
	if c != nil {
		c.AddBytes(uint64(sims*b.Steps*8), uint64(sims*b.PathLen()*8))
		c.Items += uint64(sims)
	}
}

// InterleaveChunk is the number of normals generated per cache-resident
// chunk in the interleaved variants (sized well inside an L2 slice).
const InterleaveChunk = 4096

// AdvancedInterleaved interleaves normal generation (per-worker stream,
// ICDF transform) with bridge construction so random numbers never travel
// through DRAM; paths are still written out. seed derives per-worker
// streams.
func (b *Bridge) AdvancedInterleaved(seed uint64, out []float64, sims, width int, c *perf.Counts) {
	_ = b.AdvancedInterleavedCtx(context.Background(), seed, out, sims, width, c)
}

// AdvancedInterleavedCtx is AdvancedInterleaved with cancellation checked
// once per path group; an uncancelled run is bit-identical (per-group
// streams and the group decomposition are unchanged). On a non-nil return
// the output paths are partial.
func (b *Bridge) AdvancedInterleavedCtx(cx context.Context, seed uint64, out []float64, sims, width int, c *perf.Counts) error {
	if err := b.interleavedCtx(cx, seed, out, sims, width, c, nil); err != nil {
		return err
	}
	if c != nil {
		c.AddBytes(0, uint64(sims*b.PathLen()*8))
		c.Items += uint64(sims)
	}
	return nil
}

// AdvancedC2C is AdvancedInterleaved with the constructed paths handed to
// consume (per group of `width` paths, blocked lane layout: paths[p] is
// point p across lanes) while still cache-resident, eliminating the
// write-back traffic too. out may be nil.
func (b *Bridge) AdvancedC2C(seed uint64, sims, width int, c *perf.Counts, consume func(group int, paths []vec.Vec)) {
	_ = b.interleavedCtx(context.Background(), seed, nil, sims, width, c, consume)
	if c != nil {
		c.Items += uint64(sims)
	}
}

func (b *Bridge) interleavedCtx(cx context.Context, seed uint64, out []float64, sims, width int, c *perf.Counts, consume func(int, []vec.Vec)) error {
	done := cx.Done()
	groups := (sims + width - 1) / width
	perGroup := b.Steps * width
	return parallel.Region(cx, groups, 1, c, func(glo, ghi int, c *perf.Counts) {
		// Per-worker stream; chunked generation into a cache-resident
		// buffer. RNG work is deliberately not charged (see package doc).
		stream := rng.NewStream(glo, seed)
		bufCap := InterleaveChunk / perGroup * perGroup
		if bufCap < perGroup {
			bufCap = perGroup
		}
		buf := make([]float64, bufCap)
		pos := bufCap // force an initial fill
		scratch := make([]vec.Vec, b.PathLen())
		outv := make([]vec.Vec, b.PathLen())
		ctx := vec.New(width, c)
		for g := glo; g < ghi; g++ {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			if pos == bufCap {
				stream.NormalICDF(buf)
				pos = 0
			}
			chunk := buf[pos : pos+perGroup]
			pos += perGroup
			b.buildVec(ctx, func(consumed int) vec.Vec {
				return ctx.Load(chunk, consumed*width)
			}, scratch, outv)
			if consume != nil {
				consume(g, outv)
			} else {
				writeGroup(out, outv, g, b.PathLen(), width, sims, ctx)
			}
		}
	})
}

// vectorRun drives the SIMD-across-paths construction for streamed
// variants.
func (b *Bridge) vectorRun(out []float64, sims, width int, c *perf.Counts, load func(group, consumed int, ctx vec.Ctx) vec.Vec) {
	groups := (sims + width - 1) / width
	plen := b.PathLen()
	_ = parallel.Region(context.Background(), groups, 1, c, func(glo, ghi int, c *perf.Counts) {
		ctx := vec.New(width, c)
		scratch := make([]vec.Vec, plen)
		outv := make([]vec.Vec, plen)
		for g := glo; g < ghi; g++ {
			b.buildVec(ctx, func(consumed int) vec.Vec { return load(g, consumed, ctx) }, scratch, outv)
			writeGroup(out, outv, g, plen, width, sims, ctx)
		}
	})
}

// buildVec constructs `width` paths at once. next(consumed) returns the
// consumed-th vector of normals for this group. The ping-pong of Lis. 4
// operates on vectors of lanes.
func (b *Bridge) buildVec(ctx vec.Ctx, next func(consumed int) vec.Vec, scratch, out []vec.Vec) {
	src, dst := scratch, out
	consumed := 0
	src[0] = ctx.Zero()
	src[1] = ctx.Mul(next(consumed), ctx.Broadcast(b.LastSig))
	consumed++
	for d := 0; d <= b.Depth; d++ {
		dst[0] = src[0]
		for cidx := 0; cidx < 1<<uint(d); cidx++ {
			z := next(consumed)
			consumed++
			m := ctx.FMA(src[cidx], ctx.Broadcast(b.WL[d][cidx]),
				ctx.Mul(src[cidx+1], ctx.Broadcast(b.WR[d][cidx])))
			dst[2*cidx+1] = ctx.FMA(z, ctx.Broadcast(b.Sig[d][cidx]), m)
			dst[2*cidx+2] = src[cidx+1]
			if ctx.C != nil {
				// The copy dst[2c+2] = src[c+1] is a load+store pair in
				// the real code.
				ctx.C.Add(perf.OpVecLoad, 2)
				ctx.C.Add(perf.OpVecStore, 2)
			}
		}
		src, dst = dst, src
	}
	// The bridge has Depth+1 levels; results sit in src after the final
	// swap. Ensure the caller's out buffer holds them.
	if &src[0] != &out[0] {
		copy(out, src)
	}
}

// writeGroup stores a group of lane-blocked paths to the flat output
// (path-major), skipping padded lanes.
func writeGroup(out []float64, paths []vec.Vec, group, plen, width, sims int, ctx vec.Ctx) {
	if out == nil {
		return
	}
	if ctx.C != nil {
		// Transpose + streaming stores: one store per point per lane.
		ctx.C.Add(perf.OpVecStore, uint64(plen))
		ctx.C.Add(perf.OpVecMisc, uint64(plen)) // transpose shuffles
	}
	for l := 0; l < width; l++ {
		s := group*width + l
		if s >= sims {
			break
		}
		row := out[s*plen : (s+1)*plen]
		for p := 0; p < plen; p++ {
			row[p] = paths[p].X[l]
		}
	}
}

// RandomsBlocked lays out sims*Steps normals from stream so that the
// Intermediate kernel's vector loads read W consecutive values: chunk k of
// group g holds the k-th normal of each of the group's W simulations.
// This is the data reformatting Sec. IV-C2 describes.
func RandomsBlocked(stream *rng.Stream, sims, steps, width int) []float64 {
	groups := (sims + width - 1) / width
	z := make([]float64, groups*steps*width)
	stream.NormalICDF(z)
	return z
}

// RandomsScalar generates the sims*Steps normal stream consumed by
// RefScalar (simulation-major order).
func RandomsScalar(stream *rng.Stream, sims, steps int) []float64 {
	z := make([]float64, sims*steps)
	stream.NormalICDF(z)
	return z
}
