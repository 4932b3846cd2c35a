// Package cranknicolson implements the Crank-Nicolson American option
// pricing kernel of Sec. IV-E (Lis. 6/7, Figs. 7 and 8).
//
// The Black-Scholes PDE is transformed to the heat equation u_tau = u_xx
// with x = ln(S/K) and tau = sigma^2 (T-t)/2 (the Wilmott student-intro
// formulation the paper cites). Each Crank-Nicolson step averages an
// explicit half-step B_j = (1-alpha) u_j + (alpha/2)(u_{j+1} + u_{j-1})
// with an implicit half-step solved iteratively by Projected Successive
// Over-Relaxation: sweeps of
//
//	y   = (B_j + (alpha/2)(u_{j-1} + u_{j+1})) / (1 + alpha)
//	u_j = max(g_j, u_j + omega (y - u_j))
//
// until the summed squared update falls below epsilon, with the
// early-exercise obstacle g enforcing the American constraint and omega
// adapted across time steps as in Lis. 6.
//
// Optimization levels (Fig. 8):
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
	// plain European GSOR used for validation.
	American bool
	// Eps is the GSOR convergence threshold on the summed squared update.
	Eps float64
	// stepsDone counts completed time steps (drives the Rannacher switch).
	stepsDone int
	// Theta selects the time-stepping scheme: 0 = fully explicit
	// (conditionally stable, alpha <= 1/2), 1 = fully implicit
	// (unconditionally stable, first-order), 0.5 = Crank-Nicolson
	// (unconditionally stable, second-order — the paper's method).
	Theta float64
	// RannacherSteps runs that many initial steps fully implicitly before
	// switching to Theta, damping the spurious oscillation Crank-Nicolson
	// exhibits against the non-smooth payoff (Rannacher startup). Zero
	// reproduces the paper's plain scheme.
	RannacherSteps int
}

// DefaultAlpha is the lattice ratio used by the reference code (Lis. 6).
const DefaultAlpha = 0.73

// NewSolver builds the grid for maturity t: tauMax = sigma^2 t/2 split
// into nsteps, with dx chosen so dtau/dx^2 = alpha and jpoints+1 grid
// points centered on the money.
func NewSolver(t float64, jpoints, nsteps int, alpha float64, mkt workload.MarketParams) *Solver {
	tauMax := mkt.Sigma * mkt.Sigma * t / 2
	dtau := tauMax / float64(nsteps)
	dx := mathx.Sqrt(dtau / alpha)
	return &Solver{
		J:        jpoints,
		N:        nsteps,
		K2R:      2 * mkt.R / (mkt.Sigma * mkt.Sigma),
		Dx:       dx,
		DTau:     dtau,
		Alpha:    alpha,
		XMin:     -dx * float64(jpoints) / 2,
		TauMax:   tauMax,
		American: true,
		Eps:      1e-14,
		Theta:    0.5,
	}
}

// alphaExplicit and alphaImplicit split the lattice ratio between the two
// half-steps according to the theta scheme:
// u^{n+1} - u^n = alpha [ theta d2 u^{n+1} + (1-theta) d2 u^n ].
// Theta = 1/2 recovers the paper's alpha1/alpha2 coefficients. The
// effective theta is 1 (fully implicit) during the Rannacher startup.
func (s *Solver) alphaExplicit() float64 { return s.Alpha * (1 - s.effTheta()) * 2 }
func (s *Solver) alphaImplicit() float64 { return s.Alpha * s.effTheta() * 2 }

func (s *Solver) effTheta() float64 {
	if s.stepsDone < s.RannacherSteps {
		return 1
	}
	return s.Theta
}

// x returns the coordinate of grid point j.
func (s *Solver) x(j int) float64 { return s.XMin + float64(j)*s.Dx }

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
	return mathx.Exp((k-1)*s.XMin/2 + (k-1)*(k-1)*tau/4)
}

// explicitStep fills G with the obstacle at tau and B with the explicit
// half-step, then applies boundary conditions to U and G. h is the
// tabulated space factor, h[j] = spaceFactor(x_j), so G[j] is the product
// Payoff forms. The counted mix stays that of the reference listing,
// which calls u_payoff at every point (Lis. 6): it describes the
// modelled machine's code, not this host loop.
func (s *Solver) explicitStep(u, b, g, h []float64, tau float64, c *perf.Counts) {
	ae := s.alphaExplicit()
	alpha1 := 1 - ae
	alpha2 := ae / 2
	tf := s.timeFactor(tau)
	jmax := s.J
	for j := 1; j < jmax; j++ {
		g[j] = tf * h[j]
		b[j] = alpha1*u[j] + alpha2*(u[j+1]+u[j-1])
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

// relax performs the projected relaxation at one point and returns the new
// value. The wavefront triangles call it; gsorScalar and the wavefront's
// vector body spell out the same expressions, so numerics agree.
func (s *Solver) relax(uj, ujm1, ujp1, bj, gj, omega, coeff, alpha2 float64) float64 {
	y := coeff * (bj + alpha2*(ujm1+ujp1))
	un := uj + omega*(y-uj)
	if s.American && gj > un {
		un = gj
	}
	return un
}

// gsorScalar runs scalar PSOR sweeps until convergence; returns the sweep
// count (Lis. 7). The sweep is relax at every interior point with the
// loop invariants (grid size, the American flag) read once and u[j-1]
// carried in a local: the stores to u could alias the Solver, so read
// through s they would be reloaded at every point of the Gauss-Seidel
// chain.
func (s *Solver) gsorScalar(b, u, g []float64, omega float64, c *perf.Counts) int {
	ai := s.alphaImplicit()
	coeff := 1 / (1 + ai)
	alpha2 := ai / 2
	jmax, american := s.J, s.American
	b, g = b[:jmax], g[:jmax]
	loops := 0
	for {
		loops++
		var errSum float64
		um1 := u[0]
		for j := 1; j < jmax; j++ {
			uj := u[j]
			y := coeff * (b[j] + alpha2*(um1+u[j+1]))
			un := uj + omega*(y-uj)
			if gj := g[j]; american && gj > un {
				un = gj
			}
			d := un - uj
			errSum += d * d
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
		// Divergence-safe: a blown-up lattice (explicit scheme past its
		// stability bound) yields NaN or overflowing error sums, which
		// must terminate rather than spin to the sweep cap.
		if !(errSum > s.Eps) || errSum > 1e200 || loops > 10000 {
			return loops
		}
	}
}

// SolveScalar runs the full reference time loop (Lis. 6) and returns the
// final u grid and the total GSOR sweep count.
func (s *Solver) SolveScalar(c *perf.Counts) ([]float64, int) {
	// Background cannot be cancelled, so the solve cannot fail.
	u, total, _ := s.SolveScalarCtx(context.Background(), c)
	return u, total
}

// SolveScalarCtx is SolveScalar with cancellation checked once per time
// step (each step is an explicit half-step plus a full PSOR solve, the
// natural chunk of this kernel). On cancellation it returns a nil grid and
// ctx.Err().
func (s *Solver) SolveScalarCtx(cx context.Context, c *perf.Counts) ([]float64, int, error) {
	u, total, ok := s.solveDone(c, cx.Done(), func(b, u, g []float64, omega float64, c *perf.Counts) int {
		return s.gsorScalar(b, u, g, omega, c)
	})
	if !ok {
		return nil, total, cx.Err()
	}
	return u, total, nil
}

// solveDone is the shared Lis. 6 driver: init, time loop with explicit
// step, GSOR solve, and omega adaptation. The cancellation channel is
// checked before every time step (a nil done skips the checks entirely);
// ok=false means the loop was abandoned mid-solve.
func (s *Solver) solveDone(c *perf.Counts, done <-chan struct{}, gsor func(b, u, g []float64, omega float64, c *perf.Counts) int) ([]float64, int, bool) {
	np := s.J + 1
	u := make([]float64, np)
	// One scratch array for the solve's private grids: the explicit
	// half-step b, the obstacle g, and g's space factor h.
	scratch := make([]float64, 3*np)
	b, g, h := scratch[:np], scratch[np:2*np], scratch[2*np:]
	tf0 := s.timeFactor(0)
	for j := range h {
		h[j] = s.spaceFactor(s.x(j))
		u[j] = tf0 * h[j]
	}
	omega := 1.0
	const domega = 0.05
	oldloops := 1 << 30
	total := 0
	s.stepsDone = 0
	for n := 1; n <= s.N; n++ {
		if done != nil {
			select {
			case <-done:
				return u, total, false
			default:
			}
		}
		tau := float64(n) * s.DTau
		s.explicitStep(u, b, g, h, tau, c)
		loops := gsor(b, u, g, omega, c)
		total += loops
		if loops > oldloops && omega < 1.9 {
			omega += domega
		}
		oldloops = loops
		s.stepsDone++
	}
	return u, total, true
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
	uq := u[j]*(1-frac) + u[j+1]*frac
	k := s.K2R
	return strike * uq * mathx.Exp(-(k-1)*xq/2-(k+1)*(k+1)*s.TauMax/4)
}

// PriceAmericanPutCtx prices one American put with the scalar reference
// solve, with per-time-step cancellation.
func PriceAmericanPutCtx(cx context.Context, spot, strike, t float64, jpoints, nsteps int, mkt workload.MarketParams) (float64, error) {
	return pricePutCtx(cx, true, spot, strike, t, jpoints, nsteps, mkt)
}

// PriceEuropeanPutCtx prices a European put on the same lattice
// (validation against the closed form), with per-time-step cancellation.
func PriceEuropeanPutCtx(cx context.Context, spot, strike, t float64, jpoints, nsteps int, mkt workload.MarketParams) (float64, error) {
	return pricePutCtx(cx, false, spot, strike, t, jpoints, nsteps, mkt)
}

// pricePutCtx prices one put with the scalar reference solve; american
// selects the projected (obstacle) solve.
func pricePutCtx(cx context.Context, american bool, spot, strike, t float64, jpoints, nsteps int, mkt workload.MarketParams) (float64, error) {
	s := NewSolver(t, jpoints, nsteps, DefaultAlpha, mkt)
	s.American = american
	u, _, err := s.SolveScalarCtx(cx, nil)
	if err != nil {
		return 0, err
	}
	return s.Price(u, spot, strike), nil
}
