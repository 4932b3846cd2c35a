package bench

import (
	"finbench/internal/brownian"
	"finbench/internal/mathx"
	"finbench/internal/montecarlo"
	"finbench/internal/parallel"
	"finbench/internal/rng"
	"finbench/internal/sobol"
	"finbench/internal/workload"
)

// Quasi-Monte Carlo for the ablate-qmc experiment. The paper's
// Brownian-bridge kernel exists in finance precisely to pair with
// low-discrepancy points (Glasserman ch. 5, the paper's bridge
// reference): the bridge assigns the largest variance contributions to
// the lowest Sobol dimensions, concentrating the integrand's effective
// dimension where the point set is most uniform. These routines price
// with Sobol points in place of the Mersenne stream, using randomized
// digital shifts for error estimation.

// asianOption is an arithmetic-average Asian call: payoff
// max(mean(S_t) - X, 0) over Steps equally spaced observations — the
// path-dependent payoff for which lattice methods blow up and Monte Carlo
// becomes essential (Sec. II: "for the most complex options, Monte Carlo
// approaches are employed").
type asianOption struct {
	S, X, T float64
	// Steps is the number of averaging dates; must be a power of two for
	// the bridge construction.
	Steps int
}

// payoffFromPath evaluates the discounted Asian payoff from a Wiener path
// w (len Steps+1 including w(0)=0).
func (a asianOption) payoffFromPath(w []float64, mkt workload.MarketParams) float64 {
	mu := mkt.R - mkt.Sigma*mkt.Sigma/2
	dt := a.T / float64(a.Steps)
	var avg float64
	for p := 1; p <= a.Steps; p++ {
		t := float64(p) * dt
		avg += a.S * mathx.Exp(mu*t+mkt.Sigma*w[p])
	}
	avg /= float64(a.Steps)
	if avg <= a.X {
		return 0
	}
	return (avg - a.X) * mathx.Exp(-mkt.R*a.T)
}

// bridgeDepth returns the bridge depth for a power-of-two step count.
func bridgeDepth(steps int) int {
	d := -1
	for s := steps; s > 1; s >>= 1 {
		d++
	}
	return d
}

// asianMC prices the Asian option by plain Monte Carlo: pseudo-random
// normals, bridge-constructed paths. The normals are drawn in fixed
// blocks, block b from stream b, so the price does not depend on the
// worker count.
func asianMC(a asianOption, npaths int, seed uint64, mkt workload.MarketParams) montecarlo.Result {
	const width = 8
	br := brownian.New(bridgeDepth(a.Steps), a.T)
	plen := br.PathLen()
	z := make([]float64, (npaths+width-1)/width*width*a.Steps)
	block := 4096 * a.Steps
	parallel.For((len(z)+block-1)/block, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			rng.NewStream(b, seed).NormalICDF(z[b*block : min((b+1)*block, len(z))])
		}
	})
	flat := make([]float64, npaths*plen)
	br.Intermediate(z, flat, npaths, width, nil)
	var v0, v1 float64
	for i := 0; i < npaths; i++ {
		p := a.payoffFromPath(flat[i*plen:(i+1)*plen], mkt)
		v0 += p
		v1 += p * p
	}
	n := float64(npaths)
	mean := v0 / n
	variance := v1/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return montecarlo.Result{Price: mean, StdErr: mathx.Sqrt(variance / n)}
}

// asianQMC prices the Asian option by randomized quasi-Monte Carlo: Sobol
// points of dimension Steps, transformed to normals by the inverse CDF and
// mapped to paths through the Brownian bridge (so Sobol dimension k drives
// the k-th bridge refinement level — the variance-ordered pairing). The
// estimate averages `shifts` digitally-shifted replicates; StdErr is their
// spread.
func asianQMC(a asianOption, npoints, shifts int, seed uint64, mkt workload.MarketParams) montecarlo.Result {
	if shifts < 2 {
		shifts = 2
	}
	br := brownian.New(bridgeDepth(a.Steps), a.T)
	means := make([]float64, shifts)
	for r := 0; r < shifts; r++ {
		shiftSeed := seed + uint64(r)
		// Each block of points starts its own sequence at its offset with
		// Skip; the block sums add up in block order, so the price does
		// not depend on the worker count.
		sum := parallel.ReduceFloat64(npoints, 1024, func(lo, hi int) float64 {
			seq, err := sobol.New(a.Steps)
			if err != nil {
				panic(err)
			}
			seq.DigitalShift(shiftSeed)
			seq.Skip(uint64(lo))
			pt := make([]float64, a.Steps)
			z := make([]float64, a.Steps)
			w := make([]float64, br.PathLen())
			var local float64
			for i := lo; i < hi; i++ {
				seq.Next(pt)
				for d := 0; d < a.Steps; d++ {
					z[d] = mathx.InvCND(pt[d])
				}
				br.BuildScalar(z, w)
				local += a.payoffFromPath(w, mkt)
			}
			return local
		})
		means[r] = sum / float64(npoints)
	}
	var mean float64
	for _, m := range means {
		mean += m
	}
	mean /= float64(shifts)
	var v float64
	for _, m := range means {
		v += (m - mean) * (m - mean)
	}
	return montecarlo.Result{Price: mean, StdErr: mathx.Sqrt(v / float64(shifts) / float64(shifts-1))}
}
