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

// A cancelled context stops a pair within one time step. With 2^31-1 time
// steps an unpolled solve would run for days, so returning at all shows
// the per-step check; a context cancelled before the first step never
// starts, and one cancelled mid-solve returns promptly.
func TestPricePutsCancelStopsPair(t *testing.T) {
	puts := []Put{{Spot: 100, Strike: 110, T: 1.5, American: true}, {Spot: 90, Strike: 100, T: 1}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := PricePutsCtx(ctx, puts, 64, math.MaxInt32, mkt); err != context.Canceled {
		t.Fatalf("cancelled pair returned %v", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	time.AfterFunc(20*time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	if err := PricePutsCtx(ctx, puts, 64, math.MaxInt32, mkt); err != context.Canceled {
		t.Fatalf("pair cancelled mid-solve returned %v", err)
	}
	// One 64-point time step is microseconds; the bound only absorbs a
	// descheduled test process.
	if lag := time.Since(cancelled); lag > 2*time.Second {
		t.Errorf("pair returned %v after its context was cancelled", lag)
	}
}

// Wavefront SIMD must reproduce the scalar GSOR solution: the wavefront
// reorders the same dependence DAG, so converged solutions agree to
// solver tolerance.
func TestWavefrontMatchesScalar(t *testing.T) {
	for _, width := range []int{4, 8} {
		s1 := NewSolver(1, 256, 200, DefaultAlpha, mkt)
		u1, _ := s1.SolveScalar(nil)
		s2 := NewSolver(1, 256, 200, DefaultAlpha, mkt)
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
		s1 := NewSolver(1, 256, 200, DefaultAlpha, mkt)
		u1, sw1 := s1.SolveWavefront(width, nil)
		s2 := NewSolver(1, 256, 200, DefaultAlpha, mkt)
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
	s := NewSolver(1, 128, 100, DefaultAlpha, mkt)
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
	s := NewSolver(1, 256, 100, DefaultAlpha, mkt)
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
	s := NewSolver(2, 256, 1000, 0.73, mkt)
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
		s := NewSolver(1, 256, 200, DefaultAlpha, mkt)
		s.SolveScalar(nil)
	}
}

// BenchmarkSolveScalar is one lone lane at the served size (an American
// put on 256 points x 1000 steps): the path gsorPair's shared relax must
// not slow down.
func BenchmarkSolveScalar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver(1.5, 256, 1000, DefaultAlpha, mkt)
		s.SolveScalar(nil)
	}
}

// BenchmarkPricePuts4 prices four American puts at the served size, the
// Crank-Nicolson request heavy_mix sends: two pairs.
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
		s := NewSolver(1, 256, 200, DefaultAlpha, mkt)
		s.SolveWavefront(8, nil)
	}
}

func BenchmarkWavefrontSplitW8_256x200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver(1, 256, 200, DefaultAlpha, mkt)
		s.SolveWavefrontSplit(8, nil)
	}
}

// Theta-scheme validation: the fully implicit scheme converges (first
// order), and the fully explicit scheme obeys the classical stability
// bound alpha <= 1/2 — stable below it, divergent above it. These pin the
// time-stepping machinery independently of the PSOR solver.
func TestThetaSchemeImplicit(t *testing.T) {
	_, want := blackscholes.PriceScalar(100, 100, 1, mkt)
	s := NewSolver(1, 256, 1000, DefaultAlpha, mkt)
	s.American = false
	s.Theta = 1.0
	u, _ := s.SolveScalar(nil)
	got := s.Price(u, 100, 100)
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("implicit scheme price %g vs BS %g", got, want)
	}
}

func TestThetaSchemeExplicitStable(t *testing.T) {
	_, want := blackscholes.PriceScalar(100, 100, 1, mkt)
	s := NewSolver(1, 256, 1000, 0.4, mkt) // alpha < 1/2: stable
	s.American = false
	s.Theta = 0.0
	u, _ := s.SolveScalar(nil)
	got := s.Price(u, 100, 100)
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("stable explicit price %g vs BS %g", got, want)
	}
}

func TestThetaSchemeExplicitUnstable(t *testing.T) {
	// alpha = 0.73 > 1/2: the pure explicit scheme must blow up.
	s := NewSolver(1, 256, 1000, DefaultAlpha, mkt)
	s.American = false
	s.Theta = 0.0
	u, _ := s.SolveScalar(nil)
	got := s.Price(u, 100, 100)
	if !math.IsNaN(got) && math.Abs(got) < 100 {
		t.Fatalf("explicit scheme at alpha=0.73 unexpectedly stable: price %g", got)
	}
}

// All theta values must leave the default CN path untouched.
func TestThetaDefaultIsCN(t *testing.T) {
	s := NewSolver(1, 64, 50, DefaultAlpha, mkt)
	if s.Theta != 0.5 {
		t.Fatalf("default theta = %g", s.Theta)
	}
	if math.Abs(s.alphaExplicit()-s.Alpha) > 1e-15 || math.Abs(s.alphaImplicit()-s.Alpha) > 1e-15 {
		t.Fatalf("CN split wrong: %g/%g", s.alphaExplicit(), s.alphaImplicit())
	}
}

// Rannacher startup must damp the kink-excited oscillation of plain CN.
// At the paper's alpha = 0.73 the oscillatory mode decays quickly and CN is
// already clean; the ringing regime is a large lattice ratio (few time
// steps on a fine grid), where the payoff kink makes gamma near the strike
// oscillate wildly without the implicit startup.
func TestRannacherDampsOscillation(t *testing.T) {
	gammaRoughness := func(rann int) float64 {
		s := NewSolver(0.5, 512, 32, 50.0, mkt) // alpha = 50: CN rings
		s.American = false
		s.RannacherSteps = rann
		u, _ := s.SolveScalar(nil)
		// Total variation of the second difference of u near the kink.
		var tv float64
		lo, hi := s.J/2-40, s.J/2+40
		prev := u[lo-1] - 2*u[lo] + u[lo+1]
		for j := lo + 1; j < hi; j++ {
			cur := u[j-1] - 2*u[j] + u[j+1]
			tv += math.Abs(cur - prev)
			prev = cur
		}
		return tv
	}
	plain := gammaRoughness(0)
	rann := gammaRoughness(4)
	if rann > plain/2 {
		t.Fatalf("Rannacher roughness %g not well below plain CN %g", rann, plain)
	}
}

// At the paper's own alpha the startup must not hurt the price.
func TestRannacherPriceNeutralAtPaperAlpha(t *testing.T) {
	_, want := blackscholes.PriceScalar(100, 105, 0.5, mkt)
	price := func(rann int) float64 {
		s := NewSolver(0.5, 256, 500, DefaultAlpha, mkt)
		s.American = false
		s.RannacherSteps = rann
		u, _ := s.SolveScalar(nil)
		return s.Price(u, 100, 105)
	}
	plain := math.Abs(price(0) - want)
	rann := math.Abs(price(4) - want)
	if rann > plain*2+1e-4 {
		t.Fatalf("Rannacher degraded price error: %g vs %g", rann, plain)
	}
}

// Batch outputs, sweep totals and operation counts must not depend on the
// worker count (GOMAXPROCS is what the decomposition reads): options are
// whole work items on both the counted static path and the uncounted
// guided path.
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
