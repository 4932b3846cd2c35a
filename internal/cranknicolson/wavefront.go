package cranknicolson

import (
	"finbench/internal/perf"
	"finbench/internal/vec"
)

// The wavefront GSOR of Fig. 7: the convergence loop is unrolled by the
// vector width W; lane l executes sweep base+l displaced 2(l) points
// behind lane l-1. With in-place updates this ordering computes exactly
// the values of W sequential Gauss-Seidel sweeps: at virtual step s, lane
// l relaxes point j = 1 + s - 2l, reading u[j-1] (own sweep, written at
// s-1), u[j] and u[j+1] (previous sweep, written by lane l-1 at s-2 and
// s-1). Steps where some lanes fall outside 1..J-1 form the prologue and
// epilogue triangles and run scalar; full steps run SIMD.
//
// storage abstracts the two data layouts: flat arrays (lane accesses
// stride by -2 => gathers; the Intermediate variant) and even/odd split
// arrays (same-parity accesses are contiguous reversed loads; the Advanced
// variant after the paper's data-structure transformation).

type storage interface {
	// get/set access logical index j of each array (scalar path).
	getU(j int) float64
	setU(j int, v float64)
	getB(j int) float64
	getG(j int) float64
	// vectors load lanes l=0..W-1 at logical index base-2l (+off applied
	// first); the store writes the same pattern.
	loadU(ctx vec.Ctx, base, off int) vec.Vec
	loadB(ctx vec.Ctx, base int) vec.Vec
	loadG(ctx vec.Ctx, base int) vec.Vec
	storeU(ctx vec.Ctx, base int, v vec.Vec)
}

// flatStorage keeps the solver's plain arrays; vector accesses are
// stride -2 gathers/scatters (the "irregular accesses" of Sec. IV-E2).
type flatStorage struct{ u, b, g []float64 }

func (f *flatStorage) getU(j int) float64    { return f.u[j] }
func (f *flatStorage) setU(j int, v float64) { f.u[j] = v }
func (f *flatStorage) getB(j int) float64    { return f.b[j] }
func (f *flatStorage) getG(j int) float64    { return f.g[j] }

func (f *flatStorage) loadU(ctx vec.Ctx, base, off int) vec.Vec {
	return ctx.GatherStride(f.u, base+off, -2)
}
func (f *flatStorage) loadB(ctx vec.Ctx, base int) vec.Vec {
	return ctx.GatherStride(f.b, base, -2)
}
func (f *flatStorage) loadG(ctx vec.Ctx, base int) vec.Vec {
	return ctx.GatherStride(f.g, base, -2)
}
func (f *flatStorage) storeU(ctx vec.Ctx, base int, v vec.Vec) {
	ctx.ScatterStride(f.u, base, -2, v)
}

// splitStorage is the transformed layout: even and odd logical indices
// live in separate contiguous arrays, so a stride -2 lane pattern becomes
// one reversed contiguous load. The per-time-step rearrangement cost is
// charged by the caller (the paper attributes the residual gap to exactly
// this overhead).
type splitStorage struct {
	u, b, g [2][]float64
}

func newSplitStorage(jmax int) *splitStorage {
	s := &splitStorage{}
	ne := jmax/2 + 1
	no := (jmax + 1) / 2
	s.u[0], s.u[1] = make([]float64, ne), make([]float64, no)
	s.b[0], s.b[1] = make([]float64, ne), make([]float64, no)
	s.g[0], s.g[1] = make([]float64, ne), make([]float64, no)
	return s
}

// fill converts the flat arrays into the split layout, counting the copy
// traffic (the "cost of physically rearranging", Sec. IV-E3).
func (s *splitStorage) fill(u, b, g []float64, c *perf.Counts) {
	for j := range u {
		s.u[j&1][j>>1] = u[j]
		s.b[j&1][j>>1] = b[j]
		s.g[j&1][j>>1] = g[j]
	}
	if c != nil {
		n := uint64(len(u))
		c.Add(perf.OpScalarLoad, 3*n)
		c.Add(perf.OpScalarStore, 3*n)
	}
}

// drain writes the solved U back to the flat array.
func (s *splitStorage) drain(u []float64, c *perf.Counts) {
	for j := range u {
		u[j] = s.u[j&1][j>>1]
	}
	if c != nil {
		n := uint64(len(u))
		c.Add(perf.OpScalarLoad, n)
		c.Add(perf.OpScalarStore, n)
	}
}

func (s *splitStorage) getU(j int) float64    { return s.u[j&1][j>>1] }
func (s *splitStorage) setU(j int, v float64) { s.u[j&1][j>>1] = v }
func (s *splitStorage) getB(j int) float64    { return s.b[j&1][j>>1] }
func (s *splitStorage) getG(j int) float64    { return s.g[j&1][j>>1] }

// loadSplit loads lanes base-2l from the parity-split array arr: indices
// base, base-2, ... share parity base&1 and map to m, m-1, ... in the
// half-array — one reversed contiguous load.
func loadSplit(ctx vec.Ctx, arr [2][]float64, base int) vec.Vec {
	m := base >> 1
	return ctx.LoadRev(arr[base&1], m-ctx.W+1)
}

func (s *splitStorage) loadU(ctx vec.Ctx, base, off int) vec.Vec {
	return loadSplit(ctx, s.u, base+off)
}
func (s *splitStorage) loadB(ctx vec.Ctx, base int) vec.Vec { return loadSplit(ctx, s.b, base) }
func (s *splitStorage) loadG(ctx vec.Ctx, base int) vec.Vec { return loadSplit(ctx, s.g, base) }
func (s *splitStorage) storeU(ctx vec.Ctx, base int, v vec.Vec) {
	m := base >> 1
	ctx.StoreRev(s.u[base&1], m-ctx.W+1, v)
}

// gsorWavefront runs PSOR with the convergence loop unrolled by the vector
// width over the given storage; returns the sweep count.
func (s *Solver) gsorWavefront(st storage, omega float64, width int, c *perf.Counts) int {
	coeff, alpha2 := s.implicitCoeffs()
	m := s.J - 1 // interior point count
	ctx := vec.New(width, c)
	coeffV := ctx.Broadcast(coeff)
	alpha2V := ctx.Broadcast(alpha2)
	omegaV := ctx.Broadcast(omega)
	loops := 0
	errs := make([]float64, width)
	for {
		for l := range errs {
			errs[l] = 0
		}
		var errAcc vec.Vec
		// Virtual steps: lane l active when 0 <= s-2l <= m-1.
		smax := (m - 1) + 2*(width-1)
		for step := 0; step <= smax; step++ {
			if step >= 2*(width-1) && step <= m-1 {
				// Steady state: all lanes active, SIMD (the trapezoid of
				// Fig. 7).
				base := 1 + step // lane 0's j; lane l at base-2l
				um1 := st.loadU(ctx, base, -1)
				u0 := st.loadU(ctx, base, 0)
				up1 := st.loadU(ctx, base, 1)
				bv := st.loadB(ctx, base)
				gv := st.loadG(ctx, base)
				y := ctx.Mul(coeffV, ctx.FMA(alpha2V, ctx.Add(um1, up1), bv))
				un := ctx.FMA(omegaV, ctx.Sub(y, u0), u0)
				if s.American {
					un = ctx.Max(gv, un)
				}
				d := ctx.Sub(un, u0)
				errAcc = ctx.FMA(d, d, errAcc)
				st.storeU(ctx, base, un)
				continue
			}
			// Prologue/epilogue triangles: scalar per active lane.
			for l := 0; l < width; l++ {
				jrel := step - 2*l
				if jrel < 0 || jrel > m-1 {
					continue
				}
				j := 1 + jrel
				un := relax(st.getU(j), st.getU(j-1), st.getU(j+1), st.getB(j), st.getG(j), omega, coeff, alpha2, s.American)
				d := un - st.getU(j)
				errs[l] += d * d
				st.setU(j, un)
				if c != nil {
					// Triangle points run the same serial relaxation as
					// the scalar reference.
					c.Add(perf.OpScalarChain, 6)
					c.Add(perf.OpScalar, 5)
					c.Add(perf.OpScalarLoad, 4)
					c.Add(perf.OpScalarStore, 1)
				}
			}
		}
		for l := 0; l < width; l++ {
			errs[l] += errAcc.X[l]
		}
		loops += width
		// Convergence checked once per block, on the final sweep.
		if s.converged(errs[width-1], loops) {
			return loops
		}
	}
}

// SolveWavefront runs the time loop with the wavefront GSOR over flat
// storage (the Intermediate variant: manual SIMD, gather-bound accesses).
func (s *Solver) SolveWavefront(width int, c *perf.Counts) ([]float64, int) {
	u, total, _ := s.solveOne(c, nil, func(b, u, g []float64, omega float64, c *perf.Counts) int {
		st := &flatStorage{u: u, b: b, g: g}
		return s.gsorWavefront(st, omega, width, c)
	})
	return u, total
}

// SolveWavefrontSplit runs the time loop with the wavefront GSOR over the
// even/odd split layout (the Advanced variant), paying the per-step
// rearrangement cost.
func (s *Solver) SolveWavefrontSplit(width int, c *perf.Counts) ([]float64, int) {
	var split *splitStorage
	u, total, _ := s.solveOne(c, nil, func(b, u, g []float64, omega float64, c *perf.Counts) int {
		if split == nil {
			split = newSplitStorage(s.J)
		}
		split.fill(u, b, g, c)
		loops := s.gsorWavefront(split, omega, width, c)
		split.drain(u, c)
		return loops
	})
	return u, total
}
