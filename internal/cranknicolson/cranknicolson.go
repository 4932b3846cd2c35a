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
//
// The served path (PricePutsCtx) takes Fig. 7's wavefront as scalar
// instruction-level parallelism instead of SIMD lanes. A request's options
// are solved two at a time and each option of a pair keeps two sweeps in
// flight, the second one point behind the first, so one j loop carries
// four independent Gauss-Seidel chains and each point's relaxation issues
// in the latency shadow of the others. Convergence stays exact: the
// trailing sweep reads only values the leading sweep has finished and
// writes a spare grid, both error sums are tested in sweep order, and the
// spare is discarded when the leading sweep converged. A lane whose
// partner has converged, and an odd last option, finish with the
// reference sweeps. Every grid value, sweep count and price equals the
// reference solve's.
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
	tauMax := float64(mkt.Sigma*mkt.Sigma) * t / 2
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
func (s *Solver) alphaExplicit() float64 { return float64(s.Alpha*(1-s.effTheta())) * 2 }
func (s *Solver) alphaImplicit() float64 { return float64(s.Alpha*s.effTheta()) * 2 }

func (s *Solver) effTheta() float64 {
	if s.stepsDone < s.RannacherSteps {
		return 1
	}
	return s.Theta
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
	ae := s.alphaExplicit()
	alpha1 := 1 - ae
	alpha2 := ae / 2
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

// implicitCoeffs returns the PSOR sweep's loop invariants at the current
// time step: 1/(1+a) and a/2 for the implicit half-step's lattice ratio a.
func (s *Solver) implicitCoeffs() (coeff, alpha2 float64) {
	ai := s.alphaImplicit()
	return 1 / (1 + ai), ai / 2
}

// relax performs the projected relaxation at one point and returns the new
// value. It is the one spelling of the point update: gsorScalar, the
// pipelined pair (gsorPair) and the wavefront triangles call it (it
// inlines), and the wavefront's vector body issues the same
// operations in the same order, so numerics agree. Each product that feeds
// an add is rounded explicitly, so no architecture fuses it.
func relax(uj, ujm1, ujp1, bj, gj, omega, coeff, alpha2 float64, american bool) float64 {
	y := float64(coeff * (bj + float64(alpha2*(ujm1+ujp1))))
	un := uj + float64(omega*(y-uj))
	if american && gj > un {
		un = gj
	}
	return un
}

// converged reports whether a PSOR solve stops after a sweep whose summed
// squared update is errSum, loops sweeps into the time step. It is
// divergence-safe: a blown-up lattice (explicit scheme past its stability
// bound) yields NaN or overflowing error sums, which must terminate rather
// than spin to the sweep cap.
func (s *Solver) converged(errSum float64, loops int) bool {
	return !(errSum > s.Eps) || errSum > 1e200 || loops > 10000
}

// gsorScalar runs scalar PSOR sweeps until convergence (Lis. 7) and
// returns the time step's sweep count; loops is the number of sweeps the
// step has already run (nonzero when gsorPair hands over a lane that is
// still converging). The sweep is relax at every interior point with the
// loop invariants (grid size, the American flag) read once and u[j-1]
// carried in a local: the stores to u could alias the Solver, so read
// through s they would be reloaded at every point of the Gauss-Seidel
// chain. That chain bounds the sweep by floating-point latency, not
// throughput, which is what gsorPair exploits.
func (s *Solver) gsorScalar(b, u, g []float64, omega float64, loops int, c *perf.Counts) int {
	coeff, alpha2 := s.implicitCoeffs()
	jmax, american := s.J, s.American
	b, g = b[:jmax], g[:jmax]
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

// The paired sweeps are pipelined two deep, the scalar form of Fig. 7's
// wavefront: while sweep k relaxes point j in place on u, sweep k+1
// relaxes point j-1 into the lane's spare grid v. Sweep k+1's operands
// there are sweep k's u[j-1] (relaxed one iteration earlier, in a
// register), sweep k's u[j] (just relaxed) and its own v[j-2] (in a
// register), exactly those of the sequential sweep, so it is the
// sequential sweep k+1, one Gauss-Seidel chain trailing the other. The
// prologue is sweep k's point 1 and the epilogue sweep k+1's point J-1,
// whose right neighbour is the boundary u[J]. settle then decides the pair
// as two sequential sweeps would.

// settle tests a sweep pair's error sums in sweep order, k being the
// leading sweep's count, and returns the time step's sweep count, or 0 if
// neither sweep converged. If sweep k converged, u already holds it and
// the trailing sweep in v is discarded; otherwise u and v swap roles, so u
// holds sweep k+1.
func (l *lane) settle(e0, e1 float64, k int) int {
	if l.s.converged(e0, k) {
		return k
	}
	l.u, l.v = l.v, l.u
	if l.s.converged(e1, k+1) {
		return k + 1
	}
	return 0
}

// psorHead is a sweep pair's prologue on one lane: it copies u's
// boundaries into v, relaxes point 1 of the leading sweep and returns that
// value, the trailing sweep's left neighbour u[0] and the leading sweep's
// squared update (0 + d*d is d*d, so it starts the error sum exactly).
// Without interior points (J = 1) it relaxes nothing.
func psorHead(u, v, b, g []float64, omega, coeff, alpha2 float64, american bool) (lead, trail, e float64) {
	jmax := len(u) - 1
	v[0], v[jmax] = u[0], u[jmax]
	if jmax < 2 {
		return 0, 0, 0
	}
	uj := u[1]
	un := relax(uj, u[0], u[2], b[1], g[1], omega, coeff, alpha2, american)
	u[1] = un
	d := un - uj
	return un, u[0], float64(d * d)
}

// psorTail is a sweep pair's epilogue on one lane: the trailing sweep's
// point J-1, from the leading sweep's value there and the boundary u[J];
// it returns the trailing sweep's error sum with that point added.
func psorTail(u, v, b, g []float64, lead, trail, e1, omega, coeff, alpha2 float64, american bool) float64 {
	jmax := len(u) - 1
	if jmax < 2 {
		return e1
	}
	un := relax(lead, trail, u[jmax], b[jmax-1], g[jmax-1], omega, coeff, alpha2, american)
	v[jmax-1] = un
	d := un - lead
	return e1 + float64(d*d)
}

// gsorPair runs the PSOR solves of two lanes' time step with four
// Gauss-Seidel chains in one j loop: each lane keeps two sweeps in
// flight, and the lanes' chains are independent, so every point's update
// issues in the latency shadow of three others. Each lane keeps its own
// coefficients, omega, American flag and error sums, and settles each
// sweep pair on its own; once either lane converges the other finishes
// alone in gsorScalar from the shared sweep count, so each lane runs
// exactly the sweeps, in exactly the order, of its lone solve. A pair is
// uncounted. Returns the two sweep counts.
func gsorPair(a, b *lane) (int, int) {
	sa, sb := a.s, b.s
	coeffA, alpha2A := sa.implicitCoeffs()
	coeffB, alpha2B := sb.implicitCoeffs()
	omegaA, omegaB := a.omega, b.omega
	amA, amB := sa.American, sb.American
	np := sa.J + 1
	for loops := 0; ; loops += 2 {
		ua, va, ba, ga := a.u[:np], a.v[:np], a.b[:np], a.g[:np]
		ub, vb, bb, gb := b.u[:np], b.v[:np], b.b[:np], b.g[:np]
		leadA, trailA, eA0 := psorHead(ua, va, ba, ga, omegaA, coeffA, alpha2A, amA)
		leadB, trailB, eB0 := psorHead(ub, vb, bb, gb, omegaB, coeffB, alpha2B, amB)
		var eA1, eB1 float64
		for j := 2; j < len(ua)-1; j++ {
			uja, ujb := ua[j], ub[j]
			xa := relax(uja, leadA, ua[j+1], ba[j], ga[j], omegaA, coeffA, alpha2A, amA)
			xb := relax(ujb, leadB, ub[j+1], bb[j], gb[j], omegaB, coeffB, alpha2B, amB)
			ya := relax(leadA, trailA, xa, ba[j-1], ga[j-1], omegaA, coeffA, alpha2A, amA)
			yb := relax(leadB, trailB, xb, bb[j-1], gb[j-1], omegaB, coeffB, alpha2B, amB)
			da0, db0 := xa-uja, xb-ujb
			da1, db1 := ya-leadA, yb-leadB
			eA0 += float64(da0 * da0)
			eB0 += float64(db0 * db0)
			eA1 += float64(da1 * da1)
			eB1 += float64(db1 * db1)
			ua[j], ub[j], va[j-1], vb[j-1] = xa, xb, ya, yb
			leadA, leadB, trailA, trailB = xa, xb, ya, yb
		}
		eA1 = psorTail(ua, va, ba, ga, leadA, trailA, eA1, omegaA, coeffA, alpha2A, amA)
		eB1 = psorTail(ub, vb, bb, gb, leadB, trailB, eB1, omegaB, coeffB, alpha2B, amB)
		la, lb := a.settle(eA0, eA1, loops+1), b.settle(eB0, eB1, loops+1)
		if la == 0 && lb == 0 {
			continue
		}
		if la == 0 {
			la = sa.gsorScalar(a.b, a.u, a.g, omegaA, loops+2, nil)
		}
		if lb == 0 {
			lb = sb.gsorScalar(b.b, b.u, b.g, omegaB, loops+2, nil)
		}
		return la, lb
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
	u, total, ok := s.solveOne(c, cx.Done(), nil)
	if !ok {
		return nil, total, cx.Err()
	}
	return u, total, nil
}

// lane is one solver's grids and omega adaptation in the shared time
// loop: the solution u, the explicit half-step b, the obstacle g, g's
// space factor h and, in a lane of a pair, the pipelined sweeps' spare
// grid v, each J+1 points. u and v swap roles as a pair's sweeps settle.
type lane struct {
	s             *Solver
	u, b, g, h, v []float64
	omega         float64
	oldloops      int
	// total is the lane's GSOR sweep count over the solve.
	total int
}

// pairGrids is the number of J+1-point grids a lane of a pair holds; a
// lone lane needs one fewer, having no v.
const pairGrids = 5

// newLane carves a lane for s out of grids, which holds pairGrids*(s.J+1)
// floats for a lane of a pair and (pairGrids-1)*(s.J+1) for a lone lane.
func newLane(s *Solver, grids []float64) lane {
	np := s.J + 1
	l := lane{
		s: s,
		u: grids[:np:np], b: grids[np : 2*np : 2*np],
		g: grids[2*np : 3*np : 3*np], h: grids[3*np : 4*np : 4*np],
	}
	if len(grids) >= pairGrids*np {
		l.v = grids[4*np : 5*np : 5*np]
	}
	return l
}

// solveOne runs the time loop for s as a lone lane over freshly allocated
// grids, with solveDone's sweeps; it returns the final u grid, the total
// sweep count and solveDone's ok.
func (s *Solver) solveOne(c *perf.Counts, done <-chan struct{}, sweeps gsorFunc) ([]float64, int, bool) {
	ls := [1]lane{newLane(s, make([]float64, (pairGrids-1)*(s.J+1)))}
	ok := solveDone(ls[:], c, done, sweeps)
	return ls[0].u, ls[0].total, ok
}

// gsorFunc is a PSOR solve of one time step over a lane's grids; it
// returns the step's sweep count.
type gsorFunc func(b, u, g []float64, omega float64, c *perf.Counts) int

// solveDone is the shared Lis. 6 driver over one lane or a pair of lanes
// that share time steps (equal J and N): each lane's space factor and
// initial grid, then per time step each lane's explicit step, the PSOR
// solve and each lane's omega adaptation. A pair solves with gsorPair and
// is uncounted. A lone lane solves with gsorScalar, or with sweeps when it
// is non-nil (the wavefront variants). The cancellation channel is checked
// before every time step (a nil done skips the checks entirely); false
// means the loop was abandoned mid-solve.
func solveDone(ls []lane, c *perf.Counts, done <-chan struct{}, sweeps gsorFunc) bool {
	for i := range ls {
		l := &ls[i]
		s := l.s
		tf0 := s.timeFactor(0)
		for j := range l.h {
			l.h[j] = s.spaceFactor(s.x(j))
			l.u[j] = tf0 * l.h[j]
		}
		l.omega, l.oldloops, l.total = 1, 1<<30, 0
		s.stepsDone = 0
	}
	const domega = 0.05
	var loops [2]int
	for n := 1; n <= ls[0].s.N; n++ {
		if done != nil {
			select {
			case <-done:
				return false
			default:
			}
		}
		for i := range ls {
			l := &ls[i]
			l.s.explicitStep(l.u, l.b, l.g, l.h, float64(n)*l.s.DTau, c)
		}
		switch l := &ls[0]; {
		case len(ls) == 2:
			loops[0], loops[1] = gsorPair(l, &ls[1])
		case sweeps != nil:
			loops[0] = sweeps(l.b, l.u, l.g, l.omega, c)
		default:
			loops[0] = l.s.gsorScalar(l.b, l.u, l.g, l.omega, 0, c)
		}
		for i := range ls {
			l := &ls[i]
			l.total += loops[i]
			if loops[i] > l.oldloops && l.omega < 1.9 {
				l.omega += domega
			}
			l.oldloops = loops[i]
			l.s.stepsDone++
		}
	}
	return true
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

// PricePutsCtx prices puts on one jpoints x nsteps lattice two at a time:
// a pair shares its time loop and runs both options' PSOR solves, two
// sweeps of each in flight, in one j loop (gsorPair), and an odd last put
// is solved alone by the reference sweeps (gsorScalar). Every puts[i].Price
// is bit-identical to the put's reference solve (SolveScalarCtx).
// Cancellation is checked once per time step.
func PricePutsCtx(cx context.Context, puts []Put, jpoints, nsteps int, mkt workload.MarketParams) error {
	np := jpoints + 1
	stride := (pairGrids - 1) * np // a lone put's lane has no v
	if len(puts) > 1 {
		stride = pairGrids * np
	}
	grids := make([]float64, min(len(puts), 2)*stride)
	var ss [2]Solver
	var ls [2]lane
	for i := 0; i < len(puts); i += 2 {
		pair := puts[i:min(i+2, len(puts))]
		for k, p := range pair {
			ss[k] = *NewSolver(p.T, jpoints, nsteps, DefaultAlpha, mkt)
			ss[k].American = p.American
			ls[k] = newLane(&ss[k], grids[k*stride:(k+1)*stride])
		}
		if !solveDone(ls[:len(pair)], nil, cx.Done(), nil) {
			return cx.Err()
		}
		for k := range pair {
			pair[k].Price = ss[k].Price(ls[k].u, pair[k].Spot, pair[k].Strike)
		}
	}
	return nil
}
