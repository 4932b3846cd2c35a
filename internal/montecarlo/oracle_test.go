package montecarlo

// Oracles for the host path. SharedStreamCtx must price every option of a
// request exactly as the counted Table II kernel prices it alone —
// VectorizedComputeRNGCtx on a one-option batch at width 8, unroll 2,
// i.e. on stream (0, seed) through the software vector ISA — whatever
// else is in the request. And pathSums, which skips the exponential on
// paths that provably pay +0, must equal the listing below, which prices
// every path, bit for bit.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"finbench/internal/mathx"
	"finbench/internal/rng"
	"finbench/internal/workload"
)

// refPathSums is the listing: pathSums as it was before the skip, pricing
// every path of every full block. Its products are rounded explicitly as
// pathSums' are; on amd64 the conversions change no bit.
func refPathSums(s, x, t float64, z []float64, mkt workload.MarketParams) (v0, v1 float64) {
	vrt := mathx.Sqrt(t) * mkt.Sigma
	mut := float64(t * (mkt.R - float64(mkt.Sigma*mkt.Sigma/2)))
	var acc0, acc1 [hostLanes]float64
	p := 0
	for ; p+hostLanes <= len(z); p += hostLanes {
		for l, r := range (*[hostLanes]float64)(z[p:]) {
			res := max(float64(s*mathx.Exp(float64(vrt*r)+mut))-x, 0)
			acc0[l] = acc0[l] + res
			acc1[l] = float64(res*res) + acc1[l]
		}
	}
	for u := 0; u < hostLanes; u += hostWidth {
		var r0, r1 float64
		for l := u; l < u+hostWidth; l++ {
			r0 += acc0[l]
			r1 += acc1[l]
		}
		v0 += r0
		v1 += r1
	}
	for _, r := range z[p:] {
		res := max(float64(s*mathx.Exp(float64(vrt*r)+mut))-x, 0)
		v0 += res
		v1 += float64(res * res)
	}
	return v0, v1
}

// checkPathSums compares pathSums with the listing on one contract. kept
// starts full of garbage, as it is after an earlier chunk.
func checkPathSums(t *testing.T, s, x, tt float64, z []float64, m workload.MarketParams) {
	t.Helper()
	kept := make([]int32, len(z))
	for i := range kept {
		kept[i] = int32(len(z) - i)
	}
	g0, g1 := pathSums(s, x, tt, z, kept, m)
	w0, w1 := refPathSums(s, x, tt, z, m)
	if math.Float64bits(g0) != math.Float64bits(w0) || math.Float64bits(g1) != math.Float64bits(w1) {
		t.Errorf("s %v x %v t %v sigma %v r %v, %d paths: (%v, %v), listing (%v, %v)",
			s, x, tt, m.Sigma, m.R, len(z), g0, g1, w0, w1)
	}
}

// boundaryNormals packs every stride-th path of z around the normal r* at
// which s*e^(vrt*r*+mut) = x, the payoff's kink: first r* shifted by
// k*1e-9 relative to the logarithm's size for k = -4..4, where the skip's
// margin lies, then r* and 64 doubles either side of it. The rest of z is
// left as it was.
func boundaryNormals(z []float64, stride int, s, x, tt float64, m workload.MarketParams) {
	vrt := math.Sqrt(tt) * m.Sigma
	mut := tt * (m.R - m.Sigma*m.Sigma/2)
	l := mathx.Log(x / s) // math.Log on amd64 is wrong for a subnormal x/s
	rs := (l - mut) / vrt
	if math.IsNaN(rs) || math.IsInf(rs, 0) {
		return
	}
	var pts []float64
	for k := -4.0; k <= 4; k++ {
		pts = append(pts, (l-mut+k*1e-9*(1+math.Abs(l)+math.Abs(mut)))/vrt)
	}
	pts = append(pts, rs)
	lo, hi := rs, rs
	for i := 0; i < 64; i++ {
		lo = math.Nextafter(lo, math.Inf(-1))
		hi = math.Nextafter(hi, math.Inf(1))
		pts = append(pts, lo, hi)
	}
	for i, r := range pts {
		if stride*i < len(z) {
			z[stride*i] = r
		}
	}
}

// The edge grid: deep in the money (nothing skipped) and deep out of it
// (everything skipped), at the money (zc near 0), sigma*sqrt(T) and T
// near 0, x/s overflowing, underflowing or subnormal (the skip must turn
// itself off), over chunk lengths below one block, one block, a chunk,
// one past a chunk and ragged. Each contract runs on random normals, on
// random normals with every third path on the kink, and on a chunk whose
// first paths are all on the kink, so that a one-block chunk has nothing
// but kink paths and no large payoff absorbs a wrongly skipped small one.
func TestPathSumsMatchesListingEdges(t *testing.T) {
	type contract struct{ s, x, t, sigma, r float64 }
	cs := []contract{
		{100, 1e-3, 1, 0.2, 0.05}, {100, 20, 0.5, 0.3, 0.02}, // deep in
		{100, 1e6, 1, 0.2, 0.05}, {100, 400, 0.25, 0.2, 0.05}, // deep out
		{100, 100, 1, 0.2, 0.05}, {100, 100 * math.Exp(0.03), 1, 0.2, 0.05}, // at the money
		{87.5, 93.25, 0.01, 0.25, 0.01}, {100, 100, 1, 1e-12, 0.05}, {100, 101, 1, 1e-300, 0},
		{100, 100, 1e-12, 0.2, 0.05}, {100, 99, 1e-300, 0.2, 0.05}, {100, 100, 5e-324, 0.2, 0.05},
		{1e-300, 1e300, 1, 0.2, 0.05}, {1e300, 1e-300, 1, 0.2, 0.05}, // x/s overflows, underflows
		{1e10, 1e-300, 1, 0.2, 0.05}, {5e-324, 5e-324, 5e-324, 0.2, 0.05}, // subnormal x/s, tiny everything
		// x/s = 2.6 * 2^-1074 rounds to 3 * 2^-1074, a sixth too high, and
		// vrt^2/2 = -mut is near -log(x/s), which puts the kink near z = 0.
		{5, 13 * 0x1p-1074, 1, 38.6, 0},
		{100, 100, 1, 0.2, 1e300}, {100, 100, 1e300, 0.2, 0.05}, {100, 100, 1, 1e200, 0.05}, // mut or vrt huge
		{100, 110, 1, 0.2, -0.05}, {2, 3, 30, 0.9, 0.1},
	}
	for _, n := range []int{13, 16, 4096, 4097, 5000} {
		base := make([]float64, n)
		rng.NewStream(0, uint64(n)).NormalICDF(base)
		z := make([]float64, n)
		for _, c := range cs {
			m := workload.MarketParams{R: c.r, Sigma: c.sigma}
			for _, stride := range []int{0, 3, 1} {
				copy(z, base)
				if stride > 0 {
					boundaryNormals(z, stride, c.s, c.x, c.t, m)
				}
				checkPathSums(t, c.s, c.x, c.t, z, m)
			}
		}
	}
}

// randomContract draws a contract around the served shapes: spot
// log-uniform over [1, 1000], moneyness x/s = e^N(0, 0.6), T in (0, 5],
// sigma in (0, 1], rate in [-0.05, 0.15].
func randomContract(r *rand.Rand) (s, x, t float64, m workload.MarketParams) {
	s = math.Exp(r.Float64() * math.Log(1000))
	x = s * math.Exp(0.6*r.NormFloat64())
	t = 5*r.Float64() + 1e-6
	m = workload.MarketParams{R: -0.05 + 0.2*r.Float64(), Sigma: r.Float64() + 1e-6}
	return s, x, t, m
}

// 20,000 random contracts over a 512-path chunk; on every other one, every
// third path is on the contract's kink.
func TestPathSumsMatchesListingSweep(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	base := make([]float64, 512)
	rng.NewStream(0, 9).NormalICDF(base)
	z := make([]float64, len(base))
	r := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		s, x, tt, m := randomContract(r)
		copy(z, base)
		if i%2 == 1 {
			boundaryNormals(z, 3, s, x, tt, m)
		}
		checkPathSums(t, s, x, tt, z, m)
	}
}

func FuzzPathSumsOracle(f *testing.F) {
	f.Add(100.0, 100.0, 1.0, 0.2, 0.05, uint64(1), uint16(4096), false)
	f.Add(100.0, 1e6, 1.0, 0.2, 0.05, uint64(2), uint16(5000), true)
	f.Add(100.0, 1e-3, 0.25, 0.3, 0.02, uint64(3), uint16(13), false)
	f.Add(1e-300, 1e300, 1.0, 0.2, 0.05, uint64(4), uint16(4097), true)
	f.Add(100.0, 100.0, 1e-12, 1e-12, 0.05, uint64(5), uint16(64), true)
	f.Fuzz(func(t *testing.T, s, x, tt, sigma, rate float64, seed uint64, n uint16, kink bool) {
		// The validated domain of a served contract, and a bounded chunk.
		for _, v := range []float64{s, x, tt, sigma, rate} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if s <= 0 || x <= 0 || tt <= 0 || sigma <= 0 || n > 8192 {
			return
		}
		m := workload.MarketParams{R: rate, Sigma: sigma}
		z := make([]float64, n)
		rng.NewStream(0, seed).NormalICDF(z)
		if kink {
			boundaryNormals(z, 3, s, x, tt, m)
		}
		checkPathSums(t, s, x, tt, z, m)
	})
}

func TestSharedStreamMatchesSingleOptionVectorized(t *testing.T) {
	// Seven contracts: at, in and out of the money, a deep-OTM one whose
	// payoff clamps on most paths, short and long expiries.
	all := &workload.MCBatch{
		S: []float64{100, 100, 100, 60, 140, 100, 87.5},
		X: []float64{100, 90, 110, 100, 100, 250, 93.25},
		T: []float64{1, 0.25, 2, 0.5, 3, 1, 0.01},
	}
	type key struct {
		opt, npath int
		seed       uint64
	}
	alone := map[key]Result{}
	want := func(i, npath int, seed uint64) Result {
		k := key{i, npath, seed}
		if r, ok := alone[k]; ok {
			return r
		}
		b := &workload.MCBatch{
			S: all.S[i : i+1], X: all.X[i : i+1], T: all.T[i : i+1],
			Price: make([]float64, 1), StdErr: make([]float64, 1),
		}
		if err := VectorizedComputeRNGCtx(context.Background(), b, npath, seed, mkt, 8, 2, nil); err != nil {
			t.Fatal(err)
		}
		alone[k] = Result{b.Price[0], b.StdErr[0]}
		return alone[k]
	}
	// Path counts below one vector block, a whole number of chunks, one
	// path into the next chunk, a ragged tail, and the default size.
	for _, npath := range []int{13, 4096, 4097, 5000, 262144} {
		for _, seed := range []uint64{1, 0xfeedface} {
			for _, k := range []int{1, 2, 4, 7} {
				b := &workload.MCBatch{
					S: all.S[:k], X: all.X[:k], T: all.T[:k],
					Price: make([]float64, k), StdErr: make([]float64, k),
				}
				if err := SharedStreamCtx(context.Background(), b, npath, seed, mkt); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					w := want(i, npath, seed)
					if math.Float64bits(b.Price[i]) != math.Float64bits(w.Price) || math.Float64bits(b.StdErr[i]) != math.Float64bits(w.StdErr) {
						t.Errorf("npath %d seed %#x k %d option %d: %.17g ± %.17g, alone on the stream %.17g ± %.17g",
							npath, seed, k, i, b.Price[i], b.StdErr[i], w.Price, w.StdErr)
					}
				}
			}
		}
	}
}

// A context that is cancelled when the path loop first polls it must stop
// the request within one RNGChunk of normals. The path count is far more
// than one chunk and still fits a 32-bit int.
func TestSharedStreamStopsWithinOneChunk(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := batch(3)
	if err := SharedStreamCtx(ctx, b, 1<<30, 1, mkt); err != context.Canceled {
		t.Fatalf("cancelled request returned %v", err)
	}
}
