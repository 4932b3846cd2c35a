package cranknicolson

// Oracle for the time loop: the reference listing calls u_payoff — three
// exponentials — at every grid point of every time step (Lis. 6), spells
// out the projected relaxation of Lis. 7 point by point, and solves one
// option at a time, one sweep after another. That form is kept here as
// test helpers; the solver tabulates the separable obstacle instead and
// the served path runs two sweeps of each of two options in one loop, and
// every grid value, sweep count and price must equal the listing's bit
// for bit, for each of the variants that share the driver, for both lanes
// of a pair and for a lone lane. Products that feed an add are rounded
// explicitly, as in the solver, so the listing holds on architectures
// that fuse multiply-adds.

import (
	"context"
	"fmt"
	"math"
	"slices"
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
	ai := s.alphaImplicit()
	coeff := 1 / (1 + ai)
	alpha2 := ai / 2
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
			for _, jpoints := range []int{1, 2, 3, 16, 255, 256} {
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

// listing is a lone solve by the reference listing: the final grid, the
// total sweep count and each time step's sweep count.
func listing(s *Solver) (u []float64, total int, steps []int) {
	u, total = s.refSolve(func(b, u, g []float64, omega float64) int {
		n := s.refGsorScalar(b, u, g, omega)
		steps = append(steps, n)
		return n
	})
	return u, total, steps
}

// sameAsListing fails t unless a lane's final grid and sweep total equal
// the listing's bit for bit.
func sameAsListing(t *testing.T, what string, l *lane, wu []float64, wtotal int) {
	t.Helper()
	if l.total != wtotal {
		t.Errorf("%s: %d sweeps, listing %d", what, l.total, wtotal)
	}
	for j := range wu {
		if math.Float64bits(l.u[j]) != math.Float64bits(wu[j]) {
			t.Fatalf("%s: u[%d] = %.17g, listing %.17g", what, j, l.u[j], wu[j])
		}
	}
}

// laneSpec is one lane of the pair edge grid: a put and the solver
// settings that steer its PSOR solve.
type laneSpec struct {
	name string
	put  Put
	tune func(*Solver) // nil keeps NewSolver's settings
}

func (ls laneSpec) solver(jpoints, nsteps int) *Solver {
	s := NewSolver(ls.put.T, jpoints, nsteps, DefaultAlpha, mkt)
	s.American = ls.put.American
	if ls.tune != nil {
		ls.tune(s)
	}
	return s
}

// edgeSpecs are the edge grid's lanes. "capped" never meets its
// threshold, so every time step runs to the 10,000-sweep cap.
// "diverging" is the explicit scheme far past its stability bound
// alpha <= 1/2 (theta = 0, alpha = 1e6; the coefficients read only
// Alpha): its lattice overflows within a few steps, so the divergence
// stop ends those steps' solves rather than the cap (at alpha = 0.73 the
// growth is slow and every step on the way runs to the cap).
var edgeSpecs = []laneSpec{
	{"amer-itm", Put{Spot: 100, Strike: 110, T: 1.5, American: true}, nil},
	{"euro", Put{Spot: 90, Strike: 100, T: 1}, nil},
	{"amer-short", Put{Spot: 100, Strike: 100, T: 0.01, American: true}, nil},
	{"amer-otm", Put{Spot: 120, Strike: 100, T: 2, American: true}, nil},
	{"euro-short", Put{Spot: 100, Strike: 95, T: 0.25}, nil},
	{"capped", Put{Spot: 100, Strike: 110, T: 1.5, American: true}, func(s *Solver) { s.Eps = -1 }},
	{"diverging", Put{Spot: 100, Strike: 100, T: 1}, func(s *Solver) { s.Theta, s.Alpha = 0, 1e6 }},
}

// steps is the lane's time-step count in the edge grid; a pair runs the
// smaller of its lanes' counts. Every lane runs 300 steps but the capped
// one, each of whose steps runs 10,001 sweeps: it runs 2, and 1 under the
// race detector, which slows this single-goroutine test about tenfold.
func (ls laneSpec) steps() int {
	switch {
	case ls.name == "capped" && raceEnabled:
		return 1
	case ls.name == "capped":
		return 2
	}
	return 300
}

// Each lane of a pair, and each lone lane, must equal its option's
// listing bit for bit: grid, sweep count and price. The edge grid runs
// every ordered pair of edgeSpecs (American/European mixes, maturities far
// apart, a lane capped at 10,001 sweeps, a diverging lane) at grid sizes
// that leave the pipelined sweeps only their prologue and epilogue
// (J = 1, 2), a main loop of one or two points (J = 3, 4) or a long one.
// Over the grid, lanes must settle on the first and on the second
// sweep of a pair, finish steps in the shared loop while the other lane
// goes on alone, hit the sweep cap and diverge; the test fails if any of
// these goes uncovered.
func TestPairMatchesListing(t *testing.T) {
	covered := map[string]bool{}
	// settled records how a lane that needed n sweeps ended a time step in
	// which its partner needed m.
	settled := func(n, m int) {
		if (n+1)/2 > (m+1)/2 {
			covered["finished alone"] = true
			return
		}
		if n%2 == 1 {
			covered["settled on the first sweep"] = true
		} else {
			covered["settled on the second sweep"] = true
		}
		if n == 10001 {
			covered["sweep cap"] = true
		}
	}
	for _, jpoints := range []int{1, 2, 3, 4, 16, 255, 256} {
		for _, sa := range edgeSpecs {
			for _, sb := range edgeSpecs {
				nsteps := min(sa.steps(), sb.steps())
				specs := [2]laneSpec{sa, sb}
				var ls [2]lane
				var steps [2][]int
				for k, sp := range specs {
					ls[k] = newLane(sp.solver(jpoints, nsteps), make([]float64, pairGrids*(jpoints+1)))
				}
				if !solveDone(ls[:], nil, nil, nil) {
					t.Fatal("uncancellable pair abandoned")
				}
				for k, sp := range specs {
					ref := sp.solver(jpoints, nsteps)
					wu, wtotal, wsteps := listing(ref)
					steps[k] = wsteps
					what := fmt.Sprintf("J=%d N=%d pair (%s, %s) lane %d", jpoints, nsteps, sa.name, sb.name, k)
					sameAsListing(t, what, &ls[k], wu, wtotal)
					if gp, wp := ls[k].s.Price(ls[k].u, sp.put.Spot, sp.put.Strike), ref.Price(wu, sp.put.Spot, sp.put.Strike); math.Float64bits(gp) != math.Float64bits(wp) {
						t.Errorf("%s: price %.17g, listing %.17g", what, gp, wp)
					}
					if sp.name == "diverging" && slices.ContainsFunc(wu, func(v float64) bool { return !(math.Abs(v) < 1e100) }) {
						covered["diverged"] = true
					}
				}
				for n := range steps[0] {
					settled(steps[0][n], steps[1][n])
					settled(steps[1][n], steps[0][n])
				}
			}
		}
		// A lone lane (an odd last put) runs the reference sweeps from the
		// start of every time step.
		for _, sp := range edgeSpecs {
			nsteps := sp.steps()
			ls := [1]lane{newLane(sp.solver(jpoints, nsteps), make([]float64, (pairGrids-1)*(jpoints+1)))}
			if !solveDone(ls[:], nil, nil, nil) {
				t.Fatal("uncancellable lane abandoned")
			}
			wu, wtotal, _ := listing(sp.solver(jpoints, nsteps))
			sameAsListing(t, fmt.Sprintf("J=%d N=%d lone %s", jpoints, nsteps, sp.name), &ls[0], wu, wtotal)
		}
	}
	for _, c := range []string{"settled on the first sweep", "settled on the second sweep", "finished alone", "sweep cap", "diverged"} {
		if !covered[c] {
			t.Errorf("edge grid never had a lane that %s", c)
		}
	}
	// PricePutsCtx pairs puts in order, the odd last one alone.
	puts := make([]Put, 0, len(edgeSpecs))
	for _, sp := range edgeSpecs[:5] {
		puts = append(puts, sp.put)
	}
	for n := 1; n <= len(puts); n++ {
		got := append([]Put(nil), puts[:n]...)
		if err := PricePutsCtx(context.Background(), got, 64, 200, mkt); err != nil {
			t.Fatal(err)
		}
		for i, p := range got {
			ref := NewSolver(p.T, 64, 200, DefaultAlpha, mkt)
			ref.American = p.American
			wu, _, _ := listing(ref)
			if want := ref.Price(wu, p.Spot, p.Strike); math.Float64bits(p.Price) != math.Float64bits(want) {
				t.Errorf("%d puts, put %d: %.17g, listing %.17g", n, i, p.Price, want)
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

// FuzzPricePutsOracle solves two puts of different maturities as a pair
// and each alone, on a small lattice, and requires every lane's grid,
// sweep count and price to equal its listing bit for bit; PricePutsCtx
// over the two must give the same prices.
func FuzzPricePutsOracle(f *testing.F) {
	f.Add(100.0, 110.0, 1.5, 90.0, 100.0, 1.0, uint8(1), uint8(16), uint8(40))
	f.Add(100.0, 100.0, 0.01, 120.0, 100.0, 2.0, uint8(3), uint8(0), uint8(1))
	f.Add(100.0, 95.0, 0.25, 100.0, 110.0, 3.0, uint8(2), uint8(1), uint8(7))
	f.Add(62.0, 138.0, 2.4, 141.0, 57.0, 0.7, uint8(3), uint8(2), uint8(199))
	f.Add(95.0, 104.0, 1.2, 118.0, 92.0, 2.9, uint8(0), uint8(63), uint8(99))
	f.Fuzz(func(t *testing.T, s1, k1, t1, s2, k2, t2 float64, american, j, n uint8) {
		maxJ, maxN := fuzzSizes()
		jpoints, nsteps := 1+int(j)%maxJ, 1+int(n)%maxN
		puts := [2]Put{
			{Spot: s1, Strike: k1, T: t1, American: american&1 != 0},
			{Spot: s2, Strike: k2, T: t2, American: american&2 != 0},
		}
		for _, p := range puts {
			if !(p.Spot > 0 && p.Spot < 1e6 && p.Strike > 0 && p.Strike < 1e6 && p.T > 0 && p.T <= 10) {
				t.Skip("outside the served contract ranges")
			}
		}
		solver := func(p Put) *Solver {
			s := NewSolver(p.T, jpoints, nsteps, DefaultAlpha, mkt)
			s.American = p.American
			return s
		}
		var pair, lone [2]lane
		for k, p := range puts {
			pair[k] = newLane(solver(p), make([]float64, pairGrids*(jpoints+1)))
			lone[k] = newLane(solver(p), make([]float64, (pairGrids-1)*(jpoints+1)))
		}
		solveDone(pair[:], nil, nil, nil)
		got := puts
		if err := PricePutsCtx(context.Background(), got[:], jpoints, nsteps, mkt); err != nil {
			t.Fatal(err)
		}
		for k, p := range puts {
			solveDone(lone[k:k+1], nil, nil, nil)
			ref := solver(p)
			wu, wtotal, _ := listing(ref)
			want := ref.Price(wu, p.Spot, p.Strike)
			for _, l := range []*lane{&pair[k], &lone[k]} {
				what := fmt.Sprintf("J=%d N=%d put %d %+v", jpoints, nsteps, k, p)
				sameAsListing(t, what, l, wu, wtotal)
				if gp := l.s.Price(l.u, p.Spot, p.Strike); math.Float64bits(gp) != math.Float64bits(want) {
					t.Errorf("%s: price %.17g, listing %.17g", what, gp, want)
				}
			}
			if math.Float64bits(got[k].Price) != math.Float64bits(want) {
				t.Errorf("J=%d N=%d put %d %+v: PricePutsCtx %.17g, listing %.17g", jpoints, nsteps, k, p, got[k].Price, want)
			}
		}
	})
}
