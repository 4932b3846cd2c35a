package cranknicolson

// Oracle for the time loop: the reference listing calls u_payoff — three
// exponentials — at every grid point of every time step (Lis. 6), spells
// out the projected relaxation of Lis. 7 point by point, and solves one
// option at a time. That form is kept here as test helpers; the solver
// tabulates the separable obstacle instead and may run two options' sweeps
// in one loop, and every grid value, sweep count and price must equal the
// listing's bit for bit, for each of the variants that share the driver
// and for both lanes of a pair.

import (
	"context"
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

// refGsorScalar is the PSOR sweep of Lis. 7, one option at a time.
func (s *Solver) refGsorScalar(b, u, g []float64, omega float64) int {
	ai := s.alphaImplicit()
	coeff := 1 / (1 + ai)
	alpha2 := ai / 2
	loops := 0
	for {
		loops++
		var errSum float64
		for j := 1; j < s.J; j++ {
			y := coeff * (b[j] + alpha2*(u[j-1]+u[j+1]))
			un := u[j] + omega*(y-u[j])
			if s.American && g[j] > un {
				un = g[j]
			}
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

// Each lane of a pair must equal its option's lone listing bit for bit:
// grid, sweep count and price. The pairs mix American and European puts
// and maturities, so one lane of a pair often converges sweeps before the
// other and finishes the time step alone, and the pairs' omega
// adaptations part.
func TestPairMatchesListing(t *testing.T) {
	puts := []Put{
		{Spot: 100, Strike: 110, T: 1.5, American: true},
		{Spot: 90, Strike: 100, T: 1},
		{Spot: 100, Strike: 100, T: 0.01, American: true},
		{Spot: 120, Strike: 100, T: 2, American: true},
		{Spot: 100, Strike: 95, T: 0.25},
	}
	for _, jpoints := range []int{2, 16, 255, 256} {
		for a := range puts {
			for b := range puts {
				pa, pb := puts[a], puts[b]
				sa := NewSolver(pa.T, jpoints, 300, DefaultAlpha, mkt)
				sb := NewSolver(pb.T, jpoints, 300, DefaultAlpha, mkt)
				sa.American, sb.American = pa.American, pb.American
				ls := [2]lane{
					newLane(sa, make([]float64, 4*(jpoints+1))),
					newLane(sb, make([]float64, 4*(jpoints+1))),
				}
				if !solveDone(ls[:], nil, nil, nil) {
					t.Fatal("uncancellable pair abandoned")
				}
				for k, p := range []Put{pa, pb} {
					ref := NewSolver(p.T, jpoints, 300, DefaultAlpha, mkt)
					ref.American = p.American
					wu, wsw := ref.refSolve(ref.refGsorScalar)
					if ls[k].total != wsw {
						t.Errorf("J=%d pair (%d,%d) lane %d: %d sweeps, listing %d", jpoints, a, b, k, ls[k].total, wsw)
					}
					for j := range wu {
						if math.Float64bits(ls[k].u[j]) != math.Float64bits(wu[j]) {
							t.Fatalf("J=%d pair (%d,%d) lane %d: u[%d] = %.17g, listing %.17g", jpoints, a, b, k, j, ls[k].u[j], wu[j])
						}
					}
				}
			}
		}
	}
	// PricePutsCtx pairs puts in order, the odd last one alone.
	for n := 1; n <= len(puts); n++ {
		got := append([]Put(nil), puts[:n]...)
		if err := PricePutsCtx(context.Background(), got, 64, 200, mkt); err != nil {
			t.Fatal(err)
		}
		for i, p := range got {
			ref := NewSolver(p.T, 64, 200, DefaultAlpha, mkt)
			ref.American = p.American
			wu, _ := ref.refSolve(ref.refGsorScalar)
			if want := ref.Price(wu, p.Spot, p.Strike); math.Float64bits(p.Price) != math.Float64bits(want) {
				t.Errorf("%d puts, put %d: %.17g, listing %.17g", n, i, p.Price, want)
			}
		}
	}
}
