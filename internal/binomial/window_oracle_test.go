package binomial

// Oracles for the live window of the binomial American-put walk: every
// price must equal the per-node listing's (oracle_test.go) over an edge
// grid chosen to sit on each of the window's gates, over non-finite
// inputs, over a sweep of heavy_mix-shaped contracts and under fuzzing. The zero
// cone is also checked on synthetic ladders that no contract produces
// (non-monotone, with NaNs and signed zeros), since it is claimed exact
// for any ladder.

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"finbench/internal/mathx"
	"finbench/internal/workload"
)

// sameValue is sameBits with every NaN equal to every other: a NaN's
// payload depends on which operand carried it, which the walks do not
// promise to preserve.
func sameValue(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return sameBits(a, b)
}

// refLadderPut is the per-node binomial listing reading each node's
// exercise value from lad (laid out as exerciseLadder lays it out)
// instead of evaluating it.
func refLadderPut(lad [2][]float64, p Params) float64 {
	n := p.Steps
	val := make([]float64, n+1)
	for j := range val {
		v := lad[0][j]
		if v < 0 {
			v = 0
		}
		val[j] = v
	}
	for i := n; i > 0; i-- {
		ex := lad[(n-i+1)&1][(n-i+1)>>1:]
		for j := 0; j < i; j++ {
			cont := float64(p.PuByDf*val[j+1]) + float64(p.PdByDf*val[j])
			if ex[j] > cont {
				val[j] = ex[j]
			} else {
				val[j] = cont
			}
		}
	}
	return val[0]
}

// checkWindow prices one contract and compares the price with the
// per-node listing's.
func checkWindow(t *testing.T, s, x, tt float64, steps int, m workload.MarketParams) {
	t.Helper()
	if got, want := val(PriceAmericanPutScalarCtx(context.Background(), s, x, tt, steps, m)), refAmericanPut(s, x, NewParams(tt, steps, m)); !sameValue(got, want) {
		t.Errorf("steps %d S=%g K=%g T=%g r=%g sigma=%g: price %.17g [%#x], listing %.17g [%#x]",
			steps, s, x, tt, m.R, m.Sigma, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// windowSteps straddle the tiling (odd and even depths), the
// ctxLevelBlock seams at 128 and 256, and the served depth.
var windowSteps = []int{1, 2, 3, 4, 5, 127, 128, 129, 255, 256, 1024}

// marginRate returns the rate at which the binomial tree's one-step gap
// 1 - (PuByDf + PdByDf) is about f times exerciseMargin.
func marginRate(f, tt float64, steps int) float64 {
	return -math.Log1p(-f*exerciseMargin) * float64(steps) / tt
}

// The edge grid: deep in and out of the money and at the money, under
// rates that switch the exercise skip on (0.02, 0.2) and off (0, 1e-12,
// -0.01), a near-zero volatility whose trees have r·dt > sigma·sqrt(dt)
// and so a negative down probability, and rates that put the gap at
// 0.5, 0.9, 1.1 and 2 times the margin.
func TestWindowMatchesListingEdgeGrid(t *testing.T) {
	spots := [][2]float64{{20, 100}, {400, 100}, {100, 100}, {90, 100}}
	for _, steps := range windowSteps {
		var mkts []workload.MarketParams
		for _, r := range []float64{0.02, 0, 1e-12, -0.01, 0.2} {
			mkts = append(mkts, workload.MarketParams{R: r, Sigma: 0.3})
		}
		for _, r := range []float64{0.2, 0.02} {
			m := workload.MarketParams{R: r, Sigma: 1e-12}
			if NewParams(1, steps, m).PdByDf >= 0 {
				t.Fatalf("steps %d r=%g sigma=1e-12: down probability %g, want < 0", steps, r, NewParams(1, steps, m).PdByDf)
			}
			mkts = append(mkts, m)
		}
		for _, f := range []float64{0.5, 0.9, 1.1, 2} {
			m := workload.MarketParams{R: marginRate(f, 1, steps), Sigma: 0.3}
			p := NewParams(1, steps, m)
			if gap := 1 - (p.PuByDf + p.PdByDf); (gap > exerciseMargin) != (f > 1) {
				t.Fatalf("steps %d: gap %g is on the wrong side of the margin for f = %g", steps, gap, f)
			}
			mkts = append(mkts, m)
		}
		for _, sx := range spots {
			for _, m := range mkts {
				checkWindow(t, sx[0], sx[1], 1, steps, m)
			}
		}
	}
}

// Contracts whose gap 1 - (PuByDf + PdByDf) is 2^-52, positive but far
// under the margin, on which taking every node with exercised children as
// exercised gives a price that differs from the listing's: the 6 found
// among 300,000 random contracts with a gap in (0, 1e-9]. With the margin
// the skip is off for them.
var belowMarginWitnesses = []struct {
	sigma, r, t float64
	steps       int
	s, x        float64
}{
	{0.05787446112941345, 3.185525329614074e-15, 2.110298837066082, 31, 26.266209876319657, 18.2312200402343},
	{0.04056437632084976, 3.727643134079226e-14, 0.17670947523652114, 35, 16.654615741430064, 16.931729503049965},
	{0.40121060856710117, 2.1478244021173157e-14, 0.5047331382938918, 34, 26.026002452338027, 8.972478860584891},
	{0.33064469277858954, 1.866982424768786e-15, 2.4709826275709283, 31, 60.30716247406161, 18.358956015861565},
	{0.3663891872694838, 2.4597115662669118e-15, 1.9720823713055935, 33, 71.95669963601388, 6.7289441794845875},
	{0.9846987330500849, 6.21366701057721e-15, 1.2606237525209474, 37, 40.637643590203105, 1.1664056884768184},
}

func TestWindowMatchesListingBelowMargin(t *testing.T) {
	for _, c := range belowMarginWitnesses {
		m := workload.MarketParams{R: c.r, Sigma: c.sigma}
		p := NewParams(c.t, c.steps, m)
		if gap := 1 - (p.PuByDf + p.PdByDf); !(gap > 0 && gap <= exerciseMargin) {
			t.Fatalf("%+v: gap %g, want in (0, margin]", c, gap)
		}
		checkWindow(t, c.s, c.x, c.t, c.steps, m)
	}
}

// The exercise skip's gate follows its proof (DESIGN §5): on for the
// served contracts, off wherever the margin or a range premise fails. Its
// sign premise (both probabilities > 0) has no row: no price a contract
// can produce depends on it.
func TestExerciseSkipGate(t *testing.T) {
	served := workload.MarketParams{R: 0.02, Sigma: 0.3}
	for _, c := range []struct {
		name    string
		s, x, t float64
		steps   int
		m       workload.MarketParams
		want    bool
	}{
		{"served", 100, 110, 1.5, 1024, served, true},
		{"served, one step", 100, 110, 0.1, 1, served, true},
		{"zero rate", 100, 110, 1, 1024, workload.MarketParams{R: 0, Sigma: 0.3}, false},
		{"negative rate", 100, 110, 1, 1024, workload.MarketParams{R: -0.01, Sigma: 0.3}, false},
		{"gap just under the margin", 100, 110, 1, 255, workload.MarketParams{R: marginRate(0.9, 1, 255), Sigma: 0.3}, false},
		{"gap just over the margin", 100, 110, 1, 255, workload.MarketParams{R: marginRate(1.1, 1, 255), Sigma: 0.3}, true},
		{"zero spot", 0, 110, 1, 64, served, false},
		{"subnormal strike", 100, 5e-324, 1, 64, served, false},
		{"infinite strike", 100, math.Inf(1), 1, 64, served, false},
		{"NaN spot", math.NaN(), 110, 1, 64, served, false},
		{"ladder past the normal range", 100, 110, 1, 1024, workload.MarketParams{R: 0.02, Sigma: 30}, false},
	} {
		if got := NewParams(c.t, c.steps, c.m).exerciseSkips(c.s, c.x); got != c.want {
			t.Errorf("%s: skip %v, want %v", c.name, got, c.want)
		}
	}
}

// Non-finite, zero and negative inputs, called on the package directly
// (finbench rejects them before any kernel runs): the walks must still
// compute what the listings compute, NaN for NaN.
func TestWindowMatchesListingNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 5e-324}
	base := [5]float64{100, 110, 1, 0.3, 0.05} // S, K, T, sigma, r
	for _, steps := range []int{1, 4, 5, 129} {
		for field := range base {
			for _, b := range bad {
				in := base
				in[field] = b
				checkWindow(t, in[0], in[1], in[2], steps, workload.MarketParams{Sigma: in[3], R: in[4]})
			}
		}
	}
}

// windowSweepSize is the number of heavy_mix-shaped contracts the sweep
// prices: 20,000, a tenth of that under -short, and a hundredth under the
// race detector.
func windowSweepSize() int {
	switch {
	case raceEnabled:
		return 200
	case testing.Short():
		return 2000
	}
	return 20000
}

// The sweep: contracts drawn as heavy_mix draws them (S, K uniform on
// [50, 150], T on [0.1, 3.1], r 0.02, sigma 0.3) at the served depth of
// 1024 steps, each price against the listing that reads the walk's own
// ladder (pinned to the per-node exponentials by
// TestAmericanPutMatchesPerNodeListing).
func TestWindowMatchesListingSweep(t *testing.T) {
	const steps = 1024
	m := workload.MarketParams{R: 0.02, Sigma: 0.3}
	n := windowSweepSize()
	r := rand.New(rand.NewSource(39))
	cs := make([][3]float64, n)
	for i := range cs {
		cs[i] = [3]float64{50 + 100*r.Float64(), 50 + 100*r.Float64(), 0.1 + 3*r.Float64()}
	}
	workers := min(runtime.GOMAXPROCS(0), 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]float64, 2*steps+1)
			for i := w; i < n; i += workers {
				s, x, tt := cs[i][0], cs[i][1], cs[i][2]
				p := NewParams(tt, steps, m)
				want := refLadderPut(exerciseLadder(buf, s, x, p), p)
				if got := val(PriceAmericanPutScalarCtx(context.Background(), s, x, tt, steps, m)); !sameBits(got, want) {
					t.Errorf("S=%g K=%g T=%g: price %.17g, listing %.17g", s, x, tt, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
}

// syntheticLadder returns a real ladder of 2N+1 entries, as one flat
// slice in k order, disturbed: some entries of the top (non-positive)
// run turn positive, NaN, -0 or +0, so the run over every k and the run
// over the leaves alone part, and the ladder is no longer monotone.
func syntheticLadder(r *rand.Rand, steps int) []float64 {
	s, x := 50+100*r.Float64(), 50+100*r.Float64()
	v := 0.3 * math.Sqrt((0.1+3*r.Float64())/float64(steps))
	lad := make([]float64, 2*steps+1)
	for i := range lad {
		lad[i] = x - float64(s*mathx.Exp(v*float64(i-steps)))
	}
	for d := r.Intn(4); d >= 0; d-- {
		i := len(lad) - 1 - r.Intn(steps+1)
		switch r.Intn(5) {
		case 0:
			lad[i] = math.NaN()
		case 1:
			lad[i] = math.Copysign(0, -1)
		case 2:
			lad[i] = 0
		default:
			lad[i] = r.Float64()
		}
	}
	return lad
}

// The zero cone on ladders no contract produces, with the exercise skip
// off (its proof needs a real ladder) and probabilities that include a
// negative, an infinite and a NaN one (the cone's own gate).
func TestWindowZeroConeAnyLadder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	probs := [][2]float64{{0.51, 0.48}, {1.2, -0.21}, {-0.1, 1.05}, {0.5, math.Inf(1)}, {math.NaN(), 0.5}, {0, 0}, {math.Copysign(0, -1), 0.9}}
	for iter := 0; iter < 3000; iter++ {
		steps := []int{1, 2, 3, 4, 5, 17, 128, 129}[r.Intn(8)]
		flat := syntheticLadder(r, steps)
		pr := probs[r.Intn(len(probs))]
		// Split by parity as exerciseLadder does.
		p := Params{Steps: steps, PuByDf: pr[0], PdByDf: pr[1]}
		buf := make([]float64, 3*steps+2)
		lad := [2][]float64{buf[:steps+1], buf[steps+1 : 2*steps+1]}
		for i, v := range flat {
			lad[i&1][i>>1] = v
		}
		want := refLadderPut(lad, p)
		if got, _ := walkAmericanPut(nil, buf[2*steps+1:], lad, p, false); !sameValue(got, want) {
			t.Fatalf("iter %d steps %d probs %v: walk %.17g, listing %.17g\nladder %v", iter, steps, pr, got, want, flat)
		}
	}
}

func FuzzAmericanPutOracle(f *testing.F) {
	f.Add(100.0, 110.0, 1.0, 0.3, 0.02, uint16(1024))
	f.Add(20.0, 100.0, 1.0, 0.3, 0.2, uint16(129))
	f.Add(400.0, 100.0, 1.0, 0.3, 0.05, uint16(256))
	f.Add(100.0, 100.0, 1.0, 1e-12, 0.2, uint16(5))
	f.Add(100.0, 100.0, 1.0, 0.3, 1e-12, uint16(128))
	f.Add(100.0, 100.0, 1.0, 0.3, marginRate(1.1, 1, 255), uint16(255))
	f.Add(100.0, 100.0, 1.0, 0.3, marginRate(0.9, 1, 255), uint16(255))
	f.Add(1e-300, 1e300, 3.0, 1.2, 0.02, uint16(17))
	f.Add(math.NaN(), 100.0, 1.0, 0.3, 0.02, uint16(3))
	f.Add(100.0, 100.0, math.Inf(1), 0.3, 0.02, uint16(4))
	f.Fuzz(func(t *testing.T, s, x, tt, sigma, rate float64, steps uint16) {
		n := 1 + int(steps)%1024
		checkWindow(t, s, x, tt, n, workload.MarketParams{R: rate, Sigma: sigma})
	})
}
