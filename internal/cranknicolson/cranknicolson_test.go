package cranknicolson

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"finbench/internal/binomial"
	"finbench/internal/blackscholes"
	"finbench/internal/perf"
	"finbench/internal/workload"
)

var mkt = workload.MarketParams{R: 0.05, Sigma: 0.2}

// val drops the error of an uncancelled …Ctx call.
func val(v float64, _ error) float64 { return v }

// lonePut prices one put alone through PricePutsCtx.
func lonePut(american bool, spot, strike, t float64, jpoints, nsteps int) float64 {
	p := []Put{{Spot: spot, Strike: strike, T: t, American: american}}
	if err := PricePutsCtx(context.Background(), p, jpoints, nsteps, mkt); err != nil {
		panic(err)
	}
	return p[0].Price
}

// payoff is the obstacle g(x, tau) as one product, the form the tests and
// the oracle listings evaluate point by point.
func (s *Solver) payoff(x, tau float64) float64 { return s.timeFactor(tau) * s.spaceFactor(x) }

// The European mode must converge to the Black-Scholes put.
func TestEuropeanConvergesToBlackScholes(t *testing.T) {
	for _, tc := range []struct{ s, x, tt float64 }{
		{100, 100, 1}, {100, 110, 0.5}, {90, 100, 2},
	} {
		_, want := blackscholes.PriceScalar(tc.s, tc.x, tc.tt, mkt)
		got := lonePut(false, tc.s, tc.x, tc.tt, 512, 1000)
		if math.Abs(got-want) > 0.02*math.Max(1, want) {
			t.Fatalf("S=%g X=%g T=%g: CN %g vs BS %g", tc.s, tc.x, tc.tt, got, want)
		}
	}
}

// The American solve must match a high-resolution binomial tree.
func TestAmericanMatchesBinomial(t *testing.T) {
	for _, tc := range []struct{ s, x, tt float64 }{
		{100, 100, 1}, {100, 110, 0.5}, {110, 100, 1.5},
	} {
		want := val(binomial.PriceAmericanPutScalarCtx(context.Background(), tc.s, tc.x, tc.tt, 2048, mkt))
		got := lonePut(true, tc.s, tc.x, tc.tt, 512, 1000)
		if math.Abs(got-want) > 0.02*math.Max(1, want) {
			t.Fatalf("S=%g X=%g T=%g: CN %g vs binomial %g", tc.s, tc.x, tc.tt, got, want)
		}
	}
}

// American value must dominate European and intrinsic.
func TestAmericanDominance(t *testing.T) {
	for _, spot := range []float64{80, 95, 100, 110, 130} {
		amer := lonePut(true, spot, 100, 1, 256, 500)
		euro := lonePut(false, spot, 100, 1, 256, 500)
		if amer < euro-1e-6 {
			t.Fatalf("S=%g: American %g < European %g", spot, amer, euro)
		}
		// O(dx^2) interpolation error in the exercised region.
		if amer < math.Max(100-spot, 0)-2e-3 {
			t.Fatalf("S=%g: American %g below intrinsic", spot, amer)
		}
	}
}

// A cancelled context stops a solve within one time step. With 2^31-1
// time steps an unpolled solve would run for hours, so returning at all
// shows the per-step check; a context cancelled before the first step
// never starts, and one cancelled mid-solve returns promptly, whichever
// put of the call it is on.
func TestPricePutsCancelStops(t *testing.T) {
	puts := []Put{{Spot: 100, Strike: 110, T: 1.5, American: true}, {Spot: 90, Strike: 100, T: 1}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := PricePutsCtx(ctx, puts, 64, math.MaxInt32, mkt); err != context.Canceled {
		t.Fatalf("cancelled call returned %v", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	time.AfterFunc(20*time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	if err := PricePutsCtx(ctx, puts, 64, math.MaxInt32, mkt); err != context.Canceled {
		t.Fatalf("call cancelled mid-solve returned %v", err)
	}
	// One 64-point time step is well under a microsecond; the bound only
	// absorbs a descheduled test process.
	if lag := time.Since(cancelled); lag > 2*time.Second {
		t.Errorf("call returned %v after its context was cancelled", lag)
	}
}

// Wavefront SIMD must reproduce the scalar GSOR solution: the wavefront
// reorders the same dependence DAG, so converged solutions agree to
// solver tolerance.
func TestWavefrontMatchesScalar(t *testing.T) {
	for _, width := range []int{4, 8} {
		s1 := NewSolver(1, 256, 200, mkt)
		u1, _ := s1.SolveScalar(nil)
		s2 := NewSolver(1, 256, 200, mkt)
		u2, _ := s2.SolveWavefront(width, nil)
		for j := range u1 {
			if math.Abs(u1[j]-u2[j]) > 1e-6 {
				t.Fatalf("width %d: u[%d] scalar %g vs wavefront %g", width, j, u1[j], u2[j])
			}
		}
	}
}

func TestSplitMatchesFlatWavefront(t *testing.T) {
	for _, width := range []int{4, 8} {
		s1 := NewSolver(1, 256, 200, mkt)
		u1, sw1 := s1.SolveWavefront(width, nil)
		s2 := NewSolver(1, 256, 200, mkt)
		u2, sw2 := s2.SolveWavefrontSplit(width, nil)
		if sw1 != sw2 {
			t.Fatalf("width %d: sweep counts differ: %d vs %d", width, sw1, sw2)
		}
		for j := range u1 {
			if u1[j] != u2[j] {
				t.Fatalf("width %d: u[%d] flat %g vs split %g (must be bitwise)", width, j, u1[j], u2[j])
			}
		}
	}
}

// Per-option prices from the batch drivers must agree across levels.
func TestBatchLevelsAgree(t *testing.T) {
	g := workload.OptionGen{SMin: 80, SMax: 120, XMin: 90, XMax: 110, TMin: 0.5, TMax: 1.5, Seed: 7}
	ref := g.GenerateAOS(6)
	Run(LevelRef, ref, 128, 100, 8, mkt, nil)
	for _, level := range []Level{LevelIntermediate, LevelAdvanced} {
		a := g.GenerateAOS(6)
		Run(level, a, 128, 100, 8, mkt, nil)
		for i := 0; i < a.Len(); i++ {
			if math.Abs(a.Put(i)-ref.Put(i)) > 1e-5*math.Max(1, ref.Put(i)) {
				t.Fatalf("%v option %d: %g vs ref %g", level, i, a.Put(i), ref.Put(i))
			}
		}
	}
}

// Fig. 7's point: the scalar reference cannot vectorize (no vector ops),
// the intermediate variant gathers, and the advanced variant converts
// gathers into contiguous (reversed) loads.
func TestCountsAcrossLevels(t *testing.T) {
	g := workload.OptionGen{SMin: 95, SMax: 105, XMin: 95, XMax: 105, TMin: 1, TMax: 1, Seed: 3}
	var cr, ci, ca perf.Counts
	Run(LevelRef, g.GenerateAOS(2), 128, 50, 8, mkt, &cr)
	Run(LevelIntermediate, g.GenerateAOS(2), 128, 50, 8, mkt, &ci)
	Run(LevelAdvanced, g.GenerateAOS(2), 128, 50, 8, mkt, &ca)

	if cr.N[perf.OpGather] != 0 || cr.N[perf.OpVecFMA] != 0 {
		t.Fatal("reference level must be scalar only")
	}
	if ci.N[perf.OpGatherNear] == 0 {
		t.Fatal("intermediate level must gather (near, stride -2)")
	}
	if ca.N[perf.OpGatherNear] != 0 || ca.N[perf.OpGather] != 0 {
		t.Fatal("advanced level must not gather")
	}
	if ca.N[perf.OpVecLoad] == 0 || ca.N[perf.OpVecMisc] == 0 {
		t.Fatal("advanced level must use reversed contiguous loads")
	}
	// The advanced level pays the rearrangement cost in scalar traffic.
	if ca.N[perf.OpScalarStore] <= ci.N[perf.OpScalarStore] {
		t.Fatal("advanced level should show rearrangement stores")
	}
	if cr.Items != 2 || ci.Items != 2 || ca.Items != 2 {
		t.Fatal("items wrong")
	}
}

// Payoff sanity: obstacle positive only in the money, increasing in tau.
func TestPayoffShape(t *testing.T) {
	s := NewSolver(1, 128, 100, mkt)
	if s.payoff(0.5, 0) != 0 {
		t.Fatal("OTM obstacle must be zero")
	}
	if s.payoff(-0.5, 0) <= 0 {
		t.Fatal("ITM obstacle must be positive")
	}
	if s.payoff(-0.5, 0.01) <= s.payoff(-0.5, 0) {
		t.Fatal("obstacle must grow with tau (time factor)")
	}
}

// Price recovery: at tau=0 (no evolution) the recovered value equals the
// payoff.
func TestPriceRecoveryAtPayoff(t *testing.T) {
	s := NewSolver(1, 256, 100, mkt)
	u := make([]float64, s.J+1)
	for j := range u {
		u[j] = s.payoff(s.x(j), 0)
	}
	s.TauMax = 0 // pretend no time evolved
	for _, spot := range []float64{90, 100, 105} {
		got := s.Price(u, spot, 100)
		want := math.Max(100-spot, 0)
		if math.Abs(got-want) > 0.05 { // linear-interp discretization error
			t.Fatalf("S=%g: recovered %g, want %g", spot, got, want)
		}
	}
}

func TestSolverGridConsistency(t *testing.T) {
	s := NewSolver(2, 256, 1000, mkt)
	if math.Abs(s.DTau/(s.Dx*s.Dx)-0.73) > 1e-12 {
		t.Fatalf("alpha = %g", s.DTau/(s.Dx*s.Dx))
	}
	if math.Abs(s.TauMax-mkt.Sigma*mkt.Sigma*2/2) > 1e-15 {
		t.Fatalf("tauMax = %g", s.TauMax)
	}
	if s.x(0) != s.XMin || math.Abs(s.x(s.J)-(-s.XMin)) > 1e-12 {
		t.Fatal("grid not centered")
	}
}

func TestLevelString(t *testing.T) {
	if LevelRef.String() != "reference" || LevelAdvanced.String() != "wavefront-simd+reorder" {
		t.Fatal("Level.String wrong")
	}
	if Level(99).String() != "unknown" {
		t.Fatal("unknown level string")
	}
}

func BenchmarkScalar256x200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver(1, 256, 200, mkt)
		s.SolveScalar(nil)
	}
}

// BenchmarkSolveScalar is the reference PSOR solve of one American put at
// the served size (256 points x 1000 steps), the Fig. 8 basic rung.
func BenchmarkSolveScalar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver(1.5, 256, 1000, mkt)
		s.SolveScalar(nil)
	}
}

// BenchmarkPricePuts4 prices four American puts at the served size, the
// Crank-Nicolson request heavy_mix sends.
func BenchmarkPricePuts4(b *testing.B) {
	puts := make([]Put, 4)
	for i := 0; i < b.N; i++ {
		puts[0] = Put{Spot: 100, Strike: 110, T: 1.5, American: true}
		puts[1] = Put{Spot: 90, Strike: 100, T: 0.5, American: true}
		puts[2] = Put{Spot: 110, Strike: 100, T: 2, American: true}
		puts[3] = Put{Spot: 100, Strike: 120, T: 1, American: true}
		if err := PricePutsCtx(context.Background(), puts, 256, 1000, mkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWavefrontW8_256x200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver(1, 256, 200, mkt)
		s.SolveWavefront(8, nil)
	}
}

func BenchmarkWavefrontSplitW8_256x200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver(1, 256, 200, mkt)
		s.SolveWavefrontSplit(8, nil)
	}
}

// The stop rule ends a PSOR solve once the summed squared update is at
// most Eps, and regardless of it past 10,000 sweeps or on an error sum
// that is NaN or above 1e200: a blown-up lattice must terminate, not
// spin to the cap.
func TestConvergedStopRule(t *testing.T) {
	s := NewSolver(1, 64, 50, mkt)
	for _, tc := range []struct {
		name   string
		errSum float64
		loops  int
		want   bool
	}{
		{"zero", 0, 1, true},
		{"below eps", s.Eps / 2, 1, true},
		{"at eps", s.Eps, 1, true},
		{"just above eps", math.Nextafter(s.Eps, math.Inf(1)), 1, false},
		{"above eps", 2 * s.Eps, 1, false},
		{"last sweep under the cap", 1, 10000, false},
		{"past the cap", 1, 10001, true},
		{"at the overflow bound", 1e200, 1, false},
		{"past the overflow bound", 1e201, 1, true},
		{"infinite", math.Inf(1), 1, true},
		{"NaN", math.NaN(), 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := s.converged(tc.errSum, tc.loops); got != tc.want {
				t.Errorf("converged(%g, %d) = %v, want %v", tc.errSum, tc.loops, got, tc.want)
			}
		})
	}
}

// A lattice that is NaN from the start ends every time step's solve on
// its first sweep, or on its first block of width sweeps in the
// wavefront forms, even with a threshold no finite sweep meets (Eps < 0
// alone would run each step to the 10,001-sweep cap): the stop rule's
// NaN case, end to end, on every PSOR rung.
func TestNaNLatticeStopsEachStep(t *testing.T) {
	nan := workload.MarketParams{R: 0.05, Sigma: math.NaN()}
	for _, tc := range []struct {
		name       string
		solve      func(s *Solver) ([]float64, int)
		stepSweeps int
	}{
		{"scalar", func(s *Solver) ([]float64, int) { return s.SolveScalar(nil) }, 1},
		{"wavefront", func(s *Solver) ([]float64, int) { return s.SolveWavefront(4, nil) }, 4},
		{"split", func(s *Solver) ([]float64, int) { return s.SolveWavefrontSplit(8, nil) }, 8},
	} {
		s := NewSolver(1, 64, 50, nan)
		s.Eps = -1
		u, sweeps := tc.solve(s)
		if want := s.N * tc.stepSweeps; sweeps != want {
			t.Errorf("%s: %d sweeps over %d steps, want %d", tc.name, sweeps, s.N, want)
		}
		if p := s.Price(u, 100, 100); !math.IsNaN(p) {
			t.Errorf("%s: price %g from a NaN lattice, want NaN", tc.name, p)
		}
	}
}

// The one scheme is Crank-Nicolson: the explicit half-step is
// (1-alpha) u_j + alpha/2 (u_{j+1} + u_{j-1}) and the implicit sweep's
// invariants are 1/(1+alpha) and alpha/2, all at the grid's own
// alpha = DefaultAlpha. On u_j = j^2 the half-step is j^2 + alpha, and
// the boundaries of u and b take the obstacle's.
func TestExplicitStepIsCrankNicolson(t *testing.T) {
	s := NewSolver(1, 64, 50, mkt)
	if s.Alpha != DefaultAlpha {
		t.Fatalf("grid alpha %g, want %g", s.Alpha, DefaultAlpha)
	}
	if coeff, alpha2 := s.implicitCoeffs(); coeff != 1/(1+DefaultAlpha) || alpha2 != DefaultAlpha/2 {
		t.Fatalf("implicit invariants %g, %g, want %g, %g", coeff, alpha2, 1/(1+DefaultAlpha), DefaultAlpha/2)
	}
	np := s.J + 1
	u, b, g, h := make([]float64, np), make([]float64, np), make([]float64, np), make([]float64, np)
	for j := range u {
		u[j] = float64(j * j)
		h[j] = s.spaceFactor(s.x(j))
	}
	tau := 10 * s.DTau
	s.explicitStep(u, b, g, h, tau, nil)
	for j := 1; j < s.J; j++ {
		if want := float64(j*j) + DefaultAlpha; math.Abs(b[j]-want) > 1e-12*want {
			t.Fatalf("b[%d] = %.17g, want %.17g", j, b[j], want)
		}
	}
	for _, j := range []int{0, s.J} {
		if u[j] != g[j] || b[j] != g[j] {
			t.Fatalf("boundary %d: u %g, b %g, obstacle %g", j, u[j], b[j], g[j])
		}
	}
}

// Batch outputs, sweep totals and operation counts must not depend on the
// worker count (GOMAXPROCS is what the decomposition reads): options are
// whole work items of one static decomposition, counted or not.
func TestWorkerCountInvariant(t *testing.T) {
	g := workload.OptionGen{SMin: 80, SMax: 120, XMin: 90, XMax: 110, TMin: 0.5, TMax: 1.5, Seed: 7}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, level := range []Level{LevelRef, LevelIntermediate, LevelAdvanced} {
		for _, width := range []int{4, 8} {
			for _, n := range []int{8, 5} { // a multiple of the width, and not
				runtime.GOMAXPROCS(1)
				ref := g.GenerateAOS(n)
				var want perf.Counts
				wantSweeps := Run(level, ref, 64, 20, width, mkt, &want)
				for w := 2; w <= 8; w++ {
					runtime.GOMAXPROCS(w)
					counted, plain := g.GenerateAOS(n), g.GenerateAOS(n)
					var got perf.Counts
					if sweeps := Run(level, counted, 64, 20, width, mkt, &got); sweeps != wantSweeps {
						t.Errorf("%v width %d n %d: %d sweeps at %d workers, want %d", level, width, n, sweeps, w, wantSweeps)
					}
					if got != want {
						t.Errorf("%v width %d n %d: counts at %d workers differ from 1 worker", level, width, n, w)
					}
					Run(level, plain, 64, 20, width, mkt, nil)
					for i := 0; i < n; i++ {
						if counted.Put(i) != ref.Put(i) || plain.Put(i) != ref.Put(i) {
							t.Fatalf("%v width %d n %d option %d at %d workers: %.17g / %.17g, want %.17g",
								level, width, n, i, w, counted.Put(i), plain.Put(i), ref.Put(i))
						}
					}
				}
			}
		}
	}
}
