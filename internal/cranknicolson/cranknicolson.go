// Package cranknicolson implements the Crank-Nicolson American option
// pricing kernel of Sec. IV-E (Lis. 6/7, Figs. 7 and 8).
//
// The Black-Scholes PDE is transformed to the heat equation u_tau = u_xx
// with x = ln(S/K) and tau = sigma^2 (T-t)/2 (the Wilmott student-intro
// formulation the paper cites). Each Crank-Nicolson step averages an
// explicit half-step B_j = (1-alpha) u_j + (alpha/2)(u_{j+1} + u_{j-1})
// with an implicit half-step, under the early-exercise obstacle g that
// enforces the American constraint. That is the one scheme the solver
// runs: the half-steps weigh equally (theta = 1/2) at the reference
// lattice ratio alpha = dtau/dx^2 = 0.73 (DefaultAlpha).
//
// The paper's listing solves the implicit half-step iteratively by
// Projected Successive Over-Relaxation: sweeps of
//
//	y   = (B_j + (alpha/2)(u_{j-1} + u_{j+1})) / (1 + alpha)
//	u_j = max(g_j, u_j + omega (y - u_j))
//
// until the summed squared update falls below epsilon, with omega adapted
// across time steps as in Lis. 6. Its optimization levels (Fig. 8), the
// counted rungs of the model:
//
//   - RefScalar: the reference scalar GSOR — the j loop and the
//     convergence loop both carry dependences, so the compiler cannot
//     vectorize it.
//   - Intermediate: manual wavefront SIMD (Fig. 7). The convergence loop
//     is unrolled by the vector width; lane l runs sweep base+l displaced
//     two points behind lane l-1, so all lanes advance legally in one
//     in-place array. Prologue/epilogue triangles run scalar; lane
//     accesses stride by -2, requiring gathers.
//   - Advanced: the data-structure transformation — U, B, G are split into
//     even/odd-index halves each time step so the wavefront's same-parity
//     accesses become contiguous (reversed) vector loads.
//
// Convergence is checked every `width` sweeps in the vector variants, as
// the paper notes ("we now check for convergence every 4 or 8 iterations").
//
// The served path (PricePutsCtx) iterates nothing. The implicit matrix,
// 1 + alpha on the diagonal and -alpha/2 beside it, is the same at every
// time step and for every option of a request, so its elimination
// coefficients are computed once per call, and each time step is the
// direct projected solve of Brennan & Schwartz (J. Finance, 1977): a
// right-to-left elimination pass, then a left-to-right substitution pass
// that takes max(g_j, ·) at each point. For a put, whose early-exercise
// region is the low-x end of the grid, that is the exact solution of the
// discrete complementarity problem PSOR approaches (Jaillet, Lamberton &
// Lapeyre, Acta Appl. Math., 1990); without the max it is the Thomas
// algorithm for the European put. The PSOR solve driven to a tight Eps is
// its test oracle.
package cranknicolson // finlint:hot — allocation-free loops enforced by internal/lint

import (
	"context"

	"finbench/internal/mathx"
	"finbench/internal/perf"
	"finbench/internal/workload"
)

// Solver holds the transformed-coordinate grid for one option maturity.
type Solver struct {
	// J is the highest grid index; points run 0..J.
	J int
	// N is the number of time steps.
	N int
	// K2R is k = 2r/sigma^2, the transformed rate.
	K2R float64
	// Dx and DTau are the grid spacings; Alpha = DTau/Dx^2.
	Dx, DTau, Alpha float64
	// XMin is the left edge; x_j = XMin + j*Dx, centered on x = 0.
	XMin   float64
	TauMax float64
	// American selects the projected (obstacle) solve; false gives the
	// plain European solve used for validation.
	American bool
	// Eps is the PSOR convergence threshold on the summed squared update;
	// the served direct solve has none.
	Eps float64
}

// DefaultAlpha is the lattice ratio used by the reference code (Lis. 6).
const DefaultAlpha = 0.73

// NewSolver builds the grid for maturity t: tauMax = sigma^2 t/2 split
// into nsteps, with dx chosen so dtau/dx^2 = DefaultAlpha and jpoints+1
// grid points centered on the money.
func NewSolver(t float64, jpoints, nsteps int, mkt workload.MarketParams) *Solver {
	tauMax := float64(mkt.Sigma*mkt.Sigma) * t / 2
	dtau := tauMax / float64(nsteps)
	dx := mathx.Sqrt(dtau / DefaultAlpha)
	return &Solver{
		J:        jpoints,
		N:        nsteps,
		K2R:      2 * mkt.R / (mkt.Sigma * mkt.Sigma),
		Dx:       dx,
		DTau:     dtau,
		Alpha:    DefaultAlpha,
		XMin:     -dx * float64(jpoints) / 2,
		TauMax:   tauMax,
		American: true,
		Eps:      1e-14,
	}
}

// x returns the coordinate of grid point j.
func (s *Solver) x(j int) float64 { return s.XMin + float64(float64(j)*s.Dx) }

// The transformed American-put obstacle (u_payoff of Lis. 6) is
// g(x,tau) = e^{(k+1)^2 tau/4} max(e^{(k-1)x/2} - e^{(k+1)x/2}, 0). It is
// separable, and the solve exploits that: the space factor is tabulated
// once per solve and the time factor once per step, so no grid point pays
// an exponential.

// spaceFactor is the obstacle's x-dependence, max(e^{(k-1)x/2} - e^{(k+1)x/2}, 0).
func (s *Solver) spaceFactor(x float64) float64 {
	k := s.K2R
	v := mathx.Exp((k-1)*x/2) - mathx.Exp((k+1)*x/2)
	if v < 0 {
		v = 0
	}
	return v
}

// timeFactor is the obstacle's tau-dependence, e^{(k+1)^2 tau/4}.
func (s *Solver) timeFactor(tau float64) float64 {
	k := s.K2R
	return mathx.Exp((k + 1) * (k + 1) * tau / 4)
}

// euroLeftBC is the exact left boundary of the European put in transformed
// coordinates: e^{(k-1)x/2 + (k-1)^2 tau/4}.
func (s *Solver) euroLeftBC(tau float64) float64 {
	k := s.K2R
	return mathx.Exp(float64((k-1)*s.XMin/2) + float64((k-1)*(k-1)*tau/4))
}

// explicitStep fills G with the obstacle at tau and B with the explicit
// half-step, then applies boundary conditions to U and G. h is the
// tabulated space factor, h[j] = spaceFactor(x_j), so G[j] is the product
// Payoff forms. The counted mix stays that of the reference listing,
// which calls u_payoff at every point (Lis. 6): it describes the
// modelled machine's code, not this host loop.
func (s *Solver) explicitStep(u, b, g, h []float64, tau float64, c *perf.Counts) {
	alpha1 := 1 - s.Alpha
	alpha2 := s.Alpha / 2
	tf := s.timeFactor(tau)
	jmax := s.J
	for j := 1; j < jmax; j++ {
		g[j] = tf * h[j]
		b[j] = float64(alpha1*u[j]) + float64(alpha2*(u[j+1]+u[j-1]))
	}
	if s.American {
		g[0] = tf * h[0]
	} else {
		g[0] = s.euroLeftBC(tau)
	}
	g[jmax] = tf * h[jmax] // zero-side boundary
	u[0] = g[0]
	u[jmax] = g[jmax]
	b[0], b[jmax] = g[0], g[jmax]
	if c != nil {
		nj := uint64(s.J - 1)
		c.Add(perf.OpExp, nj*3) // two spatial + one time factor per point
		c.Add(perf.OpScalar, nj*8)
		c.Add(perf.OpScalarLoad, nj*3)
		c.Add(perf.OpScalarStore, nj*2)
	}
}

// implicitCoeffs returns the PSOR sweep's loop invariants, 1/(1+alpha)
// and alpha/2.
func (s *Solver) implicitCoeffs() (coeff, alpha2 float64) {
	return 1 / (1 + s.Alpha), s.Alpha / 2
}

// relax performs the projected relaxation at one point and returns the new
// value. It is the one spelling of the point update: gsorScalar and the
// wavefront triangles call it (it inlines), and the wavefront's vector
// body issues the same operations in the same order, so numerics agree.
// Each product that feeds an add is rounded explicitly, so no
// architecture fuses it.
func relax(uj, ujm1, ujp1, bj, gj, omega, coeff, alpha2 float64, american bool) float64 {
	y := float64(coeff * (bj + float64(alpha2*(ujm1+ujp1))))
	un := uj + float64(omega*(y-uj))
	if american && gj > un {
		un = gj
	}
	return un
}

// converged reports whether a PSOR solve stops after a sweep whose summed
// squared update is errSum, loops sweeps into the time step. It is a
// termination guard as well as the convergence test: a blown-up lattice
// yields NaN or overflowing error sums, which stop the solve rather than
// spin to the 10,000-sweep cap.
func (s *Solver) converged(errSum float64, loops int) bool {
	return !(errSum > s.Eps) || errSum > 1e200 || loops > 10000
}

// gsorScalar runs scalar PSOR sweeps until convergence (Lis. 7) and
// returns the time step's sweep count. The sweep is relax at every
// interior point with the loop invariants (grid size, the American flag)
// read once and u[j-1] carried in a local: the stores to u could alias the
// Solver, so read through s they would be reloaded at every point of the
// Gauss-Seidel chain.
func (s *Solver) gsorScalar(b, u, g []float64, omega float64, c *perf.Counts) int {
	coeff, alpha2 := s.implicitCoeffs()
	jmax, american := s.J, s.American
	b, g = b[:jmax], g[:jmax]
	loops := 0
	for {
		loops++
		var errSum float64
		um1 := u[0]
		for j := 1; j < jmax; j++ {
			uj := u[j]
			un := relax(uj, um1, u[j+1], b[j], g[j], omega, coeff, alpha2, american)
			d := un - uj
			errSum += float64(d * d)
			u[j] = un
			um1 = un
		}
		if c != nil {
			nj := uint64(s.J - 1)
			// Six of the ~11 flops per point sit on the loop-carried
			// Gauss-Seidel chain through u[j-1] (y, the relaxation and the
			// projection); the rest issue in their shadow.
			c.Add(perf.OpScalarChain, nj*6)
			c.Add(perf.OpScalar, nj*5)
			c.Add(perf.OpScalarLoad, nj*4)
			c.Add(perf.OpScalarStore, nj)
		}
		if s.converged(errSum, loops) {
			return loops
		}
	}
}

// SolveScalar runs the full reference time loop (Lis. 6) and returns the
// final u grid and the total GSOR sweep count.
func (s *Solver) SolveScalar(c *perf.Counts) ([]float64, int) {
	return s.solveOne(c, nil)
}

// initGrid tabulates the obstacle's space factor into h, h[j] =
// spaceFactor(x_j), and sets u to the payoff at tau = 0.
func (s *Solver) initGrid(u, h []float64) {
	tf0 := s.timeFactor(0)
	for j := range h {
		h[j] = s.spaceFactor(s.x(j))
		u[j] = tf0 * h[j]
	}
}

// gsorFunc is a PSOR solve of one time step over the grids; it returns
// the step's sweep count.
type gsorFunc func(b, u, g []float64, omega float64, c *perf.Counts) int

// solveOne is the Lis. 6 driver over freshly allocated grids: the space
// factor and initial grid, then per time step the explicit step, the PSOR
// solve (gsorScalar, or sweeps when it is non-nil: the wavefront
// variants) and the omega adaptation. It returns the final u grid and the
// total sweep count.
func (s *Solver) solveOne(c *perf.Counts, sweeps gsorFunc) ([]float64, int) {
	np := s.J + 1
	grids := make([]float64, 4*np)
	u, b, g, h := grids[:np:np], grids[np:2*np:2*np], grids[2*np:3*np:3*np], grids[3*np:]
	s.initGrid(u, h)
	const domega = 0.05
	omega, oldloops, total := 1.0, 1<<30, 0
	for n := 1; n <= s.N; n++ {
		s.explicitStep(u, b, g, h, float64(n)*s.DTau, c)
		var loops int
		if sweeps != nil {
			loops = sweeps(b, u, g, omega, c)
		} else {
			loops = s.gsorScalar(b, u, g, omega, c)
		}
		total += loops
		if loops > oldloops && omega < 1.9 {
			omega += domega
		}
		oldloops = loops
	}
	return u, total
}

// Price recovers the option value at spot from the final grid:
// V = K u(x*) e^{-(k-1)x*/2 - (k+1)^2 tauMax/4}, x* = ln(spot/strike),
// linearly interpolated between grid points.
func (s *Solver) Price(u []float64, spot, strike float64) float64 {
	xq := mathx.Log(spot / strike)
	pos := (xq - s.XMin) / s.Dx
	j := int(pos)
	if j < 0 {
		j, pos = 0, 0
	}
	if j >= s.J {
		j, pos = s.J-1, float64(s.J)
	}
	frac := pos - float64(j)
	uq := float64(u[j]*(1-frac)) + float64(u[j+1]*frac)
	k := s.K2R
	return strike * uq * mathx.Exp(float64(-(k-1)*xq/2)-float64((k+1)*(k+1)*s.TauMax/4))
}

// Put is one put contract for PricePutsCtx; Price receives its value.
type Put struct {
	Spot, Strike, T float64
	// American selects the projected (obstacle) solve; false prices the
	// European put.
	American bool
	Price    float64
}

// eliminate fills the Brennan–Schwartz elimination coefficients of the
// implicit matrix (1 + alpha on the diagonal, -alpha/2 beside it) for a
// grid of len(e) points: e[j] = (alpha/2)/d'_{j+1} and invd[j] = 1/d'_j at
// every interior j, where eliminating the superdiagonal from the right
// leaves the pivots d'_j = 1 + alpha - (alpha/2) e[j]. The right boundary
// u_J is known, a row of pivot 1 coupled to nothing, so e[J-1] = alpha/2
// carries it into the elimination and d'_{J-1} = 1 + alpha. They depend
// on alpha and J alone.
func eliminate(e, invd []float64, alpha float64) {
	alpha2 := alpha / 2
	jmax := len(e) - 1
	if jmax < 2 {
		return
	}
	d := 1 + alpha
	e[jmax-1], invd[jmax-1] = alpha2, 1/d
	for j := jmax - 2; j >= 1; j-- {
		e[j] = alpha2 / d
		d = 1 + alpha - float64(alpha2*e[j])
		invd[j] = 1 / d
	}
}

// directStep advances u one time step, to tau, by the Brennan–Schwartz
// solve of the implicit half-step, with eliminate's coefficients e and
// invd; r is scratch and h the tabulated space factor. The right-to-left
// pass forms the explicit half-step b_j from the old u and eliminates,
// r_j = b_j + e_j r_{j+1}, starting from the new right boundary; the
// left-to-right pass substitutes from the new left boundary,
// u_j = max(g_j, (r_j + (alpha/2) u_{j-1}) / d'_j), forming the obstacle
// g_j = tf h_j as it goes. A European put skips the max, so the step is
// the Thomas algorithm. Boundaries are explicitStep's. Each product that
// feeds an add is rounded explicitly, so no architecture fuses it.
func (s *Solver) directStep(u, r, h, e, invd []float64, tau float64) {
	alpha1, alpha2 := 1-s.Alpha, s.Alpha/2
	tf := s.timeFactor(tau)
	jmax, american := s.J, s.American
	u, r, h, e, invd = u[:jmax+1], r[:jmax], h[:jmax+1], e[:jmax], invd[:jmax]
	left := s.euroLeftBC(tau)
	if american {
		left = tf * h[0]
	}
	right := tf * h[jmax]
	rn := right
	for j := jmax - 1; j >= 1; j-- {
		b := float64(alpha1*u[j]) + float64(alpha2*(u[j+1]+u[j-1]))
		rn = b + float64(e[j]*rn)
		r[j] = rn
	}
	um1 := left
	for j := 1; j < jmax; j++ {
		v := (r[j] + float64(alpha2*um1)) * invd[j]
		if american {
			if g := tf * h[j]; g > v {
				v = g
			}
		}
		u[j] = v
		um1 = v
	}
	u[0], u[jmax] = left, right
}

// PricePutsCtx prices puts on one jpoints x nsteps lattice, one after
// another, each time step by directStep's exact projected solve; the
// elimination coefficients are computed once for all of them. A put's
// price does not depend on the other puts of the call, so each equals its
// lone call's bit for bit. Cancellation is checked once per time step.
func PricePutsCtx(cx context.Context, puts []Put, jpoints, nsteps int, mkt workload.MarketParams) error {
	np := jpoints + 1
	grids := make([]float64, 5*np)
	e, invd := grids[:np:np], grids[np:2*np:2*np]
	u, r, h := grids[2*np:3*np:3*np], grids[3*np:4*np:4*np], grids[4*np:]
	eliminate(e, invd, DefaultAlpha)
	done := cx.Done()
	for i := range puts {
		p := &puts[i]
		s := *NewSolver(p.T, jpoints, nsteps, mkt)
		s.American = p.American
		s.initGrid(u, h)
		for n := 1; n <= s.N; n++ {
			select {
			case <-done:
				return cx.Err()
			default:
			}
			s.directStep(u, r, h, e, invd, float64(n)*s.DTau)
		}
		p.Price = s.Price(u, p.Spot, p.Strike)
	}
	return nil
}
