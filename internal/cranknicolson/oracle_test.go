package cranknicolson

// Oracle for the time loop: the reference listing calls u_payoff — three
// exponentials — at every grid point of every time step (Lis. 6) and
// relaxes through Solver.relax. That form is kept here as test helpers;
// the solver tabulates the separable obstacle instead, and every grid
// value, sweep count and price must equal the listing's bit for bit, for
// each of the variants that share the driver.

import (
	"math"
	"testing"
)

// refExplicitStep is explicitStep with the obstacle evaluated by payoff
// at every point.
func (s *Solver) refExplicitStep(u, b, g []float64, tau float64) {
	ae := s.alphaExplicit()
	alpha1 := 1 - ae
	alpha2 := ae / 2
	for j := 1; j < s.J; j++ {
		g[j] = s.payoff(s.x(j), tau)
		b[j] = alpha1*u[j] + alpha2*(u[j+1]+u[j-1])
	}
	if s.American {
		g[0] = s.payoff(s.XMin, tau)
	} else {
		g[0] = s.euroLeftBC(tau)
	}
	g[s.J] = s.payoff(s.x(s.J), tau)
	u[0] = g[0]
	u[s.J] = g[s.J]
	b[0], b[s.J] = g[0], g[s.J]
}

// refGsorScalar is the PSOR sweep of Lis. 7 through relax.
func (s *Solver) refGsorScalar(b, u, g []float64, omega float64) int {
	ai := s.alphaImplicit()
	coeff := 1 / (1 + ai)
	alpha2 := ai / 2
	loops := 0
	for {
		loops++
		var errSum float64
		for j := 1; j < s.J; j++ {
			un := s.relax(u[j], u[j-1], u[j+1], b[j], g[j], omega, coeff, alpha2)
			d := un - u[j]
			errSum += d * d
			u[j] = un
		}
		if !(errSum > s.Eps) || errSum > 1e200 || loops > 10000 {
			return loops
		}
	}
}

// refSolve is the Lis. 6 driver over refExplicitStep.
func (s *Solver) refSolve(gsor func(b, u, g []float64, omega float64) int) ([]float64, int) {
	u := make([]float64, s.J+1)
	b := make([]float64, s.J+1)
	g := make([]float64, s.J+1)
	for j := 0; j <= s.J; j++ {
		u[j] = s.payoff(s.x(j), 0)
	}
	omega := 1.0
	oldloops := 1 << 30
	total := 0
	s.stepsDone = 0
	for n := 1; n <= s.N; n++ {
		s.refExplicitStep(u, b, g, float64(n)*s.DTau)
		loops := gsor(b, u, g, omega)
		total += loops
		if loops > oldloops && omega < 1.9 {
			omega += 0.05
		}
		oldloops = loops
		s.stepsDone++
	}
	return u, total
}

func TestSolveMatchesPerPointListing(t *testing.T) {
	type variant struct {
		name  string
		solve func(s *Solver) ([]float64, int)
		ref   func(s *Solver) ([]float64, int)
	}
	wavefront := func(width int, split bool) func(s *Solver) ([]float64, int) {
		return func(s *Solver) ([]float64, int) {
			var st *splitStorage
			return s.refSolve(func(b, u, g []float64, omega float64) int {
				if !split {
					return s.gsorWavefront(&flatStorage{u: u, b: b, g: g}, omega, width, nil)
				}
				if st == nil {
					st = newSplitStorage(s.J)
				}
				st.fill(u, b, g, nil)
				loops := s.gsorWavefront(st, omega, width, nil)
				st.drain(u, nil)
				return loops
			})
		}
	}
	variants := []variant{
		{"scalar",
			func(s *Solver) ([]float64, int) { return s.SolveScalar(nil) },
			func(s *Solver) ([]float64, int) { return s.refSolve(s.refGsorScalar) }},
		{"wavefront",
			func(s *Solver) ([]float64, int) { return s.SolveWavefront(8, nil) },
			wavefront(8, false)},
		{"advanced",
			func(s *Solver) ([]float64, int) { return s.SolveWavefrontSplit(4, nil) },
			wavefront(4, true)},
	}
	contracts := []struct{ spot, strike, t float64 }{
		{100, 110, 1.5},
		{90, 100, 1},
		{100, 100, 0.01},
	}
	for _, v := range variants {
		for _, american := range []bool{true, false} {
			for _, jpoints := range []int{16, 255, 256} {
				for _, c := range contracts {
					nsteps := 1000
					if v.name != "scalar" {
						nsteps = 120 // the vec-simulated sweeps are ~20x slower
					}
					got := NewSolver(c.t, jpoints, nsteps, DefaultAlpha, mkt)
					want := NewSolver(c.t, jpoints, nsteps, DefaultAlpha, mkt)
					got.American, want.American = american, american
					gu, gsw := v.solve(got)
					wu, wsw := v.ref(want)
					if gsw != wsw {
						t.Errorf("%s american=%v J=%d %+v: %d sweeps, listing %d", v.name, american, jpoints, c, gsw, wsw)
					}
					for j := range wu {
						if math.Float64bits(gu[j]) != math.Float64bits(wu[j]) {
							t.Fatalf("%s american=%v J=%d %+v: u[%d] = %.17g, listing %.17g", v.name, american, jpoints, c, j, gu[j], wu[j])
						}
					}
					if gp, wp := got.Price(gu, c.spot, c.strike), want.Price(wu, c.spot, c.strike); math.Float64bits(gp) != math.Float64bits(wp) {
						t.Errorf("%s american=%v J=%d %+v: price %.17g, listing %.17g", v.name, american, jpoints, c, gp, wp)
					}
				}
			}
		}
	}
}
