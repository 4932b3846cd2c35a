package cranknicolson

// Oracles for the two solves.
//
// The counted PSOR rungs (Fig. 8) against the reference listing, which
// calls u_payoff — three exponentials — at every grid point of every time
// step (Lis. 6), spells out the projected relaxation of Lis. 7 point by
// point, and runs one sweep after another. That form is kept here as test
// helpers; the solver tabulates the separable obstacle instead, and every
// grid value, sweep count and price must equal the listing's bit for bit,
// for each of the variants that share the driver.
//
// The served direct solve (PricePutsCtx) against PSOR driven to a
// threshold far below NewSolver's default (psorEps), with a per-step
// check of the discrete complementarity problem that goes through no
// PSOR. Products that feed an add are rounded explicitly, as in the
// solver, so the listing holds on architectures that fuse multiply-adds.

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// refExplicitStep is explicitStep with the obstacle evaluated by payoff
// at every point.
func (s *Solver) refExplicitStep(u, b, g []float64, tau float64) {
	alpha1 := 1 - s.Alpha
	alpha2 := s.Alpha / 2
	for j := 1; j < s.J; j++ {
		g[j] = s.payoff(s.x(j), tau)
		b[j] = float64(alpha1*u[j]) + float64(alpha2*(u[j+1]+u[j-1]))
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
	coeff := 1 / (1 + s.Alpha)
	alpha2 := s.Alpha / 2
	loops := 0
	for {
		loops++
		var errSum float64
		for j := 1; j < s.J; j++ {
			y := float64(coeff * (b[j] + float64(alpha2*(u[j-1]+u[j+1]))))
			un := u[j] + float64(omega*(y-u[j]))
			if s.American && g[j] > un {
				un = g[j]
			}
			d := un - u[j]
			errSum += float64(d * d)
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
	for n := 1; n <= s.N; n++ {
		s.refExplicitStep(u, b, g, float64(n)*s.DTau)
		loops := gsor(b, u, g, omega)
		total += loops
		if loops > oldloops && omega < 1.9 {
			omega += 0.05
		}
		oldloops = loops
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
			for _, jpoints := range []int{1, 2, 3, 16, 255, 256} {
				for _, c := range contracts {
					nsteps := 1000
					if v.name != "scalar" {
						nsteps = 120 // the vec-simulated sweeps are ~20x slower
					}
					got := NewSolver(c.t, jpoints, nsteps, mkt)
					want := NewSolver(c.t, jpoints, nsteps, mkt)
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

// psorEps is the threshold the oracle PSOR runs to: at NewSolver's default
// 1e-14 a solve stops up to ~2e-4 in price short of the discrete
// solution, at 1e-26 the update has reached the rounding floor of u.
const psorEps = 1e-26

// directBound is how far, relative to the strike, a PricePutsCtx price
// may lie from the PSOR oracle's. On heavy_mix's contracts the two agree
// to 4.3e-11 in price at strike 100.
const directBound = 1e-11

// psorPrice prices p by the reference PSOR solve (SolveScalar) at psorEps.
func psorPrice(p Put, jpoints, nsteps int) float64 {
	s := NewSolver(p.T, jpoints, nsteps, mkt)
	s.American, s.Eps = p.American, psorEps
	u, _ := s.SolveScalar(nil)
	return s.Price(u, p.Spot, p.Strike)
}

// priced runs PricePutsCtx over a copy of puts and returns it.
func priced(t testing.TB, puts []Put, jpoints, nsteps int) []Put {
	t.Helper()
	got := append([]Put(nil), puts...)
	if err := PricePutsCtx(context.Background(), got, jpoints, nsteps, mkt); err != nil {
		t.Fatal(err)
	}
	return got
}

// nearPSOR fails t unless got lies within directBound of p's PSOR price.
func nearPSOR(t testing.TB, what string, p Put, got float64, jpoints, nsteps int) {
	t.Helper()
	want := psorPrice(p, jpoints, nsteps)
	if d := math.Abs(got - want); !(d <= directBound*p.Strike) {
		t.Errorf("%s: %.17g, PSOR at Eps %g %.17g (off %.3g, bound %.3g)", what, got, psorEps, want, d, directBound*p.Strike)
	}
}

// edgePuts are the edge grid's contracts, each priced American and
// European: at the money, deep in and out of the money, a maturity
// tending to zero and a long one.
var edgePuts = []Put{
	{Spot: 100, Strike: 100, T: 1},
	{Spot: 100, Strike: 110, T: 1.5},
	{Spot: 40, Strike: 100, T: 1},
	{Spot: 250, Strike: 100, T: 1},
	{Spot: 100, Strike: 100, T: 1e-6},
	{Spot: 90, Strike: 100, T: 10},
}

// Every PricePutsCtx price lies within directBound of PSOR at psorEps,
// over grids that leave no interior point (J = 1), one or a few (J = 2,
// 3, 4) or many, from one time step to a thousand.
func TestDirectMatchesPSOR(t *testing.T) {
	for _, jpoints := range []int{1, 2, 3, 4, 16, 255, 256} {
		for _, nsteps := range []int{1, 2, 1000} {
			for _, american := range []bool{true, false} {
				puts := append([]Put(nil), edgePuts...)
				for i := range puts {
					puts[i].American = american
				}
				for i, p := range priced(t, puts, jpoints, nsteps) {
					nearPSOR(t, fmt.Sprintf("J=%d N=%d put %+v", jpoints, nsteps, puts[i]), puts[i], p.Price, jpoints, nsteps)
				}
			}
		}
	}
}

// Each time step of the direct solve is the exact solution of the
// discrete complementarity problem of the implicit half-step, checked at
// every interior point with no PSOR: with b the explicit half-step of
// the old grid (explicitStep's, which also gives the obstacle g and the
// new boundaries) and w = (1+alpha) u_j - (alpha/2)(u_{j-1} + u_{j+1}) - b_j,
// an American put has u >= g, w >= 0 and (u - g) w = 0, and a European
// one w = 0, each to rounding.
func TestDirectStepSolvesLCP(t *testing.T) {
	for _, p := range edgePuts {
		for _, american := range []bool{true, false} {
			s := NewSolver(p.T, 24, 60, mkt)
			s.American = american
			np := s.J + 1
			e, invd := make([]float64, np), make([]float64, np)
			u, r, h := make([]float64, np), make([]float64, np), make([]float64, np)
			old, b, g := make([]float64, np), make([]float64, np), make([]float64, np)
			eliminate(e, invd, s.Alpha)
			s.initGrid(u, h)
			alpha2 := s.Alpha / 2
			for n := 1; n <= s.N; n++ {
				tau := float64(n) * s.DTau
				copy(old, u)
				s.explicitStep(old, b, g, h, tau, nil)
				s.directStep(u, r, h, e, invd, tau)
				if u[0] != old[0] || u[s.J] != old[s.J] {
					t.Fatalf("%+v american=%v step %d: boundaries %g, %g, want %g, %g", p, american, n, u[0], u[s.J], old[0], old[s.J])
				}
				// Rounding in u, whose entries are at most about the obstacle's
				// time factor.
				tol := 1e-13 * s.timeFactor(tau)
				for j := 1; j < s.J; j++ {
					w := float64((1+s.Alpha)*u[j]) - float64(alpha2*(u[j-1]+u[j+1])) - b[j]
					what := fmt.Sprintf("%+v american=%v step %d point %d", p, american, n, j)
					switch {
					case !american && math.Abs(w) > tol:
						t.Fatalf("%s: residual %g", what, w)
					case american && u[j] < g[j]:
						t.Fatalf("%s: u %.17g below the obstacle %.17g", what, u[j], g[j])
					case american && w < -tol:
						t.Fatalf("%s: residual %g < 0", what, w)
					case american && math.Abs((u[j]-g[j])*w) > tol*tol+tol*math.Abs(u[j]-g[j]):
						t.Fatalf("%s: (u - g) w = %g with u - g = %g, w = %g", what, (u[j]-g[j])*w, u[j]-g[j], w)
					}
				}
			}
		}
	}
}

// On grids with no interior point or a few, every put of a 1- to 3-put
// call equals its lone call bit for bit and the PSOR oracle to the bound.
func TestPricePutsTinyGrids(t *testing.T) {
	puts := []Put{
		{Spot: 100, Strike: 110, T: 1.5, American: true},
		{Spot: 90, Strike: 100, T: 1},
		{Spot: 120, Strike: 100, T: 0.25, American: true},
	}
	for _, jpoints := range []int{1, 2, 3} {
		for _, nsteps := range []int{1, 2} {
			for n := 1; n <= len(puts); n++ {
				for i, p := range priced(t, puts[:n], jpoints, nsteps) {
					what := fmt.Sprintf("J=%d N=%d %d puts, put %d", jpoints, nsteps, n, i)
					if lone := priced(t, puts[i:i+1], jpoints, nsteps)[0].Price; math.Float64bits(p.Price) != math.Float64bits(lone) {
						t.Errorf("%s: %.17g, alone %.17g", what, p.Price, lone)
					}
					nearPSOR(t, what, puts[i], p.Price, jpoints, nsteps)
				}
			}
		}
	}
}

// fuzzSizes bounds FuzzPricePutsOracle's lattice: J and N up to 64 and
// 200, a quarter of that under -short and the race detector.
func fuzzSizes() (maxJ, maxN int) {
	if raceEnabled || testing.Short() {
		return 16, 50
	}
	return 64, 200
}

// FuzzPricePutsOracle prices two puts of different maturities in one call
// on a small lattice and requires each price to equal the put's lone call
// bit for bit and to lie within directBound of the PSOR oracle.
func FuzzPricePutsOracle(f *testing.F) {
	f.Add(100.0, 110.0, 1.5, 90.0, 100.0, 1.0, uint8(1), uint8(16), uint8(40))
	f.Add(100.0, 100.0, 0.01, 120.0, 100.0, 2.0, uint8(3), uint8(0), uint8(1))
	f.Add(100.0, 95.0, 0.25, 100.0, 110.0, 3.0, uint8(2), uint8(1), uint8(7))
	f.Add(62.0, 138.0, 2.4, 141.0, 57.0, 0.7, uint8(3), uint8(2), uint8(199))
	f.Add(95.0, 104.0, 1.2, 118.0, 92.0, 2.9, uint8(0), uint8(63), uint8(99))
	f.Fuzz(func(t *testing.T, s1, k1, t1, s2, k2, t2 float64, american, j, n uint8) {
		maxJ, maxN := fuzzSizes()
		jpoints, nsteps := 1+int(j)%maxJ, 1+int(n)%maxN
		puts := []Put{
			{Spot: s1, Strike: k1, T: t1, American: american&1 != 0},
			{Spot: s2, Strike: k2, T: t2, American: american&2 != 0},
		}
		for _, p := range puts {
			if !(p.Spot > 0 && p.Spot < 1e6 && p.Strike > 0 && p.Strike < 1e6 && p.T > 0 && p.T <= 10) {
				t.Skip("outside the served contract ranges")
			}
		}
		for k, p := range priced(t, puts, jpoints, nsteps) {
			what := fmt.Sprintf("J=%d N=%d put %d %+v", jpoints, nsteps, k, puts[k])
			if lone := priced(t, puts[k:k+1], jpoints, nsteps)[0].Price; math.Float64bits(p.Price) != math.Float64bits(lone) {
				t.Errorf("%s: %.17g in the call, %.17g alone", what, p.Price, lone)
			}
			nearPSOR(t, what, puts[k], p.Price, jpoints, nsteps)
		}
	})
}
