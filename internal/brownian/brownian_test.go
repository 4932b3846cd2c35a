package brownian

import (
	"math"
	"runtime"
	"testing"

	"finbench/internal/machine"
	"finbench/internal/perf"
	"finbench/internal/rng"
	"finbench/internal/vec"
)

func TestNewBridgeShape(t *testing.T) {
	b := New(5, 1)
	if b.Steps != 64 || b.PathLen() != 65 {
		t.Fatalf("depth 5: steps %d pathlen %d", b.Steps, b.PathLen())
	}
	for d := 0; d <= 5; d++ {
		if len(b.WL[d]) != 1<<uint(d) {
			t.Fatalf("level %d: %d weights", d, len(b.WL[d]))
		}
	}
}

func TestUniformWeights(t *testing.T) {
	b := New(3, 2.0)
	for d := 0; d <= 3; d++ {
		n := 1 << uint(d)
		wantSig := math.Sqrt(2.0 / float64(n) / 4)
		for c := 0; c < n; c++ {
			if math.Abs(b.WL[d][c]-0.5) > 1e-15 || math.Abs(b.WR[d][c]-0.5) > 1e-15 {
				t.Fatalf("level %d weights not 1/2", d)
			}
			if math.Abs(b.Sig[d][c]-wantSig) > 1e-15 {
				t.Fatalf("level %d sig = %g, want %g", d, b.Sig[d][c], wantSig)
			}
		}
	}
}

// With all interior normals zero, the bridge linearly interpolates between
// the pinned origin and the terminal draw (the conditional-mean property).
func TestConditionalMeanProperty(t *testing.T) {
	b := New(4, 1)
	z := make([]float64, b.Steps)
	z[0] = 2.0 // terminal point: 2*sqrt(T)
	out := make([]float64, b.PathLen())
	b.BuildScalar(z, out)
	end := 2.0 * b.LastSig
	for p := 0; p <= b.Steps; p++ {
		want := end * float64(p) / float64(b.Steps)
		if math.Abs(out[p]-want) > 1e-12 {
			t.Fatalf("point %d = %g, want %g (linear)", p, out[p], want)
		}
	}
}

func TestDepthZeroHandComputed(t *testing.T) {
	b := New(0, 4.0) // T=4: lastSig=2, mid sig = sqrt(4/4)=1
	z := []float64{1.5, -0.25}
	out := make([]float64, 3)
	b.BuildScalar(z, out)
	endpoint := 1.5 * 2.0
	mid := 0.5*0 + 0.5*endpoint + 1.0*(-0.25)
	if out[0] != 0 || math.Abs(out[2]-endpoint) > 1e-15 || math.Abs(out[1]-mid) > 1e-15 {
		t.Fatalf("path = %v, want [0 %g %g]", out, mid, endpoint)
	}
}

// Statistical: increments of the constructed paths must be iid N(0, dt).
func TestIncrementStatistics(t *testing.T) {
	const sims = 20000
	b := New(4, 1) // 16 steps
	stream := rng.NewStream(0, 42)
	z := RandomsScalar(stream, sims, b.Steps)
	out := make([]float64, sims*b.PathLen())
	b.RefScalar(z, out, sims, nil)

	dt := b.T / float64(b.Steps)
	plen := b.PathLen()
	// Mean/var of a middle increment and correlation of two adjacent ones.
	var m1, v1, m2, v2, cov float64
	k := 7
	for s := 0; s < sims; s++ {
		row := out[s*plen : (s+1)*plen]
		d1 := row[k+1] - row[k]
		d2 := row[k+2] - row[k+1]
		m1 += d1
		m2 += d2
		v1 += d1 * d1
		v2 += d2 * d2
		cov += d1 * d2
	}
	m1 /= sims
	m2 /= sims
	v1 = v1/sims - m1*m1
	v2 = v2/sims - m2*m2
	cov = cov/sims - m1*m2
	if math.Abs(m1) > 0.01 || math.Abs(m2) > 0.01 {
		t.Fatalf("increment means %g %g", m1, m2)
	}
	if math.Abs(v1-dt) > 0.05*dt || math.Abs(v2-dt) > 0.05*dt {
		t.Fatalf("increment variances %g %g, want %g", v1, v2, dt)
	}
	if math.Abs(cov/math.Sqrt(v1*v2)) > 0.03 {
		t.Fatalf("adjacent increments correlated: %g", cov/math.Sqrt(v1*v2))
	}
}

// Statistical: Cov(v(s), v(t)) = min(s, t) — the Wiener covariance.
func TestWienerCovariance(t *testing.T) {
	const sims = 40000
	b := New(2, 1) // 8 steps: point p sits at t = p/8
	stream := rng.NewStream(1, 7)
	z := RandomsScalar(stream, sims, b.Steps)
	out := make([]float64, sims*b.PathLen())
	b.RefScalar(z, out, sims, nil)
	plen := b.PathLen()
	// points 2 (t=0.25) and 6 (t=0.75): covariance must be 0.25.
	var c26, v2 float64
	for s := 0; s < sims; s++ {
		row := out[s*plen : (s+1)*plen]
		c26 += row[2] * row[6]
		v2 += row[2] * row[2]
	}
	c26 /= sims
	v2 /= sims
	if math.Abs(c26-0.25) > 0.012 {
		t.Fatalf("Cov(v(.25), v(.75)) = %g, want 0.25", c26)
	}
	if math.Abs(v2-0.25) > 0.012 {
		t.Fatalf("Var(v(.25)) = %g, want 0.25", v2)
	}
}

// transposeToScalar converts the blocked random layout into the
// simulation-major layout RefScalar consumes.
func transposeToScalar(blocked []float64, sims, steps, width int) []float64 {
	z := make([]float64, sims*steps)
	for s := 0; s < sims; s++ {
		g, l := s/width, s%width
		for k := 0; k < steps; k++ {
			z[s*steps+k] = blocked[(g*steps+k)*width+l]
		}
	}
	return z
}

// Intermediate (SIMD across paths) must produce bitwise-identical paths to
// the scalar reference fed the same normals.
func TestIntermediateMatchesScalar(t *testing.T) {
	for _, width := range []int{4, 8} {
		const sims = 37 // not a multiple of the width
		b := New(5, 1)
		stream := rng.NewStream(0, 99)
		blocked := RandomsBlocked(stream, sims, b.Steps, width)
		zs := transposeToScalar(blocked, sims, b.Steps, width)

		ref := make([]float64, sims*b.PathLen())
		b.RefScalar(zs, ref, sims, nil)
		got := make([]float64, sims*b.PathLen())
		b.Intermediate(blocked, got, sims, width, nil)

		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("width %d: path value %d differs: %g != %g", width, i, got[i], ref[i])
			}
		}
	}
}

// The interleaved and cache-to-cache variants share stream derivation, so
// for the same seed the C2C consumer must see exactly the paths the
// interleaved variant writes out.
func TestC2CMatchesInterleaved(t *testing.T) {
	const sims, width = 64, 8
	b := New(5, 1)
	out := make([]float64, sims*b.PathLen())
	b.AdvancedInterleaved(123, out, sims, width, nil)

	got := make([]float64, sims*b.PathLen())
	plen := b.PathLen()
	b.AdvancedC2C(123, sims, width, nil, func(group int, paths []vec.Vec) {
		for l := 0; l < width; l++ {
			s := group*width + l
			if s >= sims {
				break
			}
			for p := 0; p < plen; p++ {
				got[s*plen+p] = paths[p].X[l]
			}
		}
	})
	for i := range out {
		if out[i] != got[i] {
			t.Fatalf("value %d differs: %g != %g", i, got[i], out[i])
		}
	}
}

func TestInterleavedStatistics(t *testing.T) {
	const sims, width = 30000, 8
	b := New(4, 1)
	out := make([]float64, sims*b.PathLen())
	b.AdvancedInterleaved(7, out, sims, width, nil)
	plen := b.PathLen()
	var vEnd float64
	for s := 0; s < sims; s++ {
		e := out[s*plen+plen-1]
		vEnd += e * e
	}
	vEnd /= sims
	if math.Abs(vEnd-1) > 0.04 {
		t.Fatalf("terminal variance = %g, want 1", vEnd)
	}
}

// Roofline classification must reproduce Fig. 6's story: the streamed
// variant is bandwidth-bound on both machines, the interleaved variants
// compute-bound.
func TestBoundClassification(t *testing.T) {
	const sims, width = 4096, 8
	b := New(5, 1)
	stream := rng.NewStream(0, 1)
	blocked := RandomsBlocked(stream, sims, b.Steps, width)
	out := make([]float64, sims*b.PathLen())

	var cs perf.Counts
	b.Intermediate(blocked, out, sims, width, &cs)
	var ci perf.Counts
	b.AdvancedC2C(1, sims, width, &ci, nil)

	for _, m := range machine.Machines() {
		if got := m.Predict(cs).Bound; got != machine.BandwidthBound {
			t.Errorf("%s: streamed variant classified %v, want bandwidth", m.Name, got)
		}
		if got := m.Predict(ci).Bound; got != machine.ComputeBound {
			t.Errorf("%s: C2C variant classified %v, want compute", m.Name, got)
		}
	}
}

func TestCountsTraffic(t *testing.T) {
	const sims, width = 256, 8
	b := New(5, 1)
	stream := rng.NewStream(0, 1)
	blocked := RandomsBlocked(stream, sims, b.Steps, width)
	out := make([]float64, sims*b.PathLen())

	var cs, ca, cc perf.Counts
	b.Intermediate(blocked, out, sims, width, &cs)
	b.AdvancedInterleaved(1, out, sims, width, &ca)
	b.AdvancedC2C(1, sims, width, &cc, nil)

	if cs.BytesRead != uint64(sims*b.Steps*8) {
		t.Fatalf("streamed read = %d", cs.BytesRead)
	}
	if ca.BytesRead != 0 || ca.BytesWritten == 0 {
		t.Fatalf("interleaved traffic %d/%d", ca.BytesRead, ca.BytesWritten)
	}
	if cc.BytesRead != 0 || cc.BytesWritten != 0 {
		t.Fatalf("C2C traffic %d/%d", cc.BytesRead, cc.BytesWritten)
	}
	if cs.Items != sims || ca.Items != sims || cc.Items != sims {
		t.Fatal("items wrong")
	}
}

func BenchmarkRefScalar64(b *testing.B) {
	br := New(5, 1)
	const sims = 1024
	stream := rng.NewStream(0, 1)
	z := RandomsScalar(stream, sims, br.Steps)
	out := make([]float64, sims*br.PathLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.RefScalar(z, out, sims, nil)
	}
}

func BenchmarkIntermediateW8_64(b *testing.B) {
	br := New(5, 1)
	const sims = 1024
	stream := rng.NewStream(0, 1)
	z := RandomsBlocked(stream, sims, br.Steps, 8)
	out := make([]float64, sims*br.PathLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Intermediate(z, out, sims, 8, nil)
	}
}

func BenchmarkAdvancedC2C64(b *testing.B) {
	br := New(5, 1)
	const sims = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.AdvancedC2C(1, sims, 8, nil, nil)
	}
}

// Operation counts of every variant must not depend on the worker count
// (GOMAXPROCS is what the decomposition reads). The streamed variants
// build each path from its own slice of the pre-generated normals, so
// their outputs are invariant too. The interleaved variants key each
// chunk's stream on the chunk's first group by design, so their paths
// legitimately change with the split: for them only the counts are
// asserted.
func TestWorkerCountInvariant(t *testing.T) {
	b := New(5, 1)
	plen := b.PathLen()
	variants := map[string]struct {
		run        func(out []float64, sims, width int, c *perf.Counts)
		countsOnly bool
	}{
		"RefScalar": {run: func(out []float64, sims, _ int, c *perf.Counts) {
			b.RefScalar(RandomsScalar(rng.NewStream(0, 99), sims, b.Steps), out, sims, c)
		}},
		"Intermediate": {run: func(out []float64, sims, width int, c *perf.Counts) {
			b.Intermediate(RandomsBlocked(rng.NewStream(0, 99), sims, b.Steps, width), out, sims, width, c)
		}},
		"Interleaved": {countsOnly: true, run: func(out []float64, sims, width int, c *perf.Counts) {
			b.AdvancedInterleaved(123, out, sims, width, c)
		}},
		"C2C": {countsOnly: true, run: func(_ []float64, sims, width int, c *perf.Counts) {
			b.AdvancedC2C(123, sims, width, c, func(int, []vec.Vec) {})
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, v := range variants {
		for _, width := range []int{4, 8} {
			for _, sims := range []int{64, 61} { // a multiple of the width, and not
				runtime.GOMAXPROCS(1)
				ref := make([]float64, sims*plen)
				var want perf.Counts
				v.run(ref, sims, width, &want)
				for w := 2; w <= 8; w++ {
					runtime.GOMAXPROCS(w)
					out := make([]float64, sims*plen)
					var got perf.Counts
					v.run(out, sims, width, &got)
					if got != want {
						t.Errorf("%s width %d sims %d: counts at %d workers differ from 1 worker", name, width, sims, w)
					}
					if v.countsOnly {
						continue
					}
					for i := range ref {
						if out[i] != ref[i] {
							t.Fatalf("%s width %d sims %d: path value %d at %d workers = %g, want %g", name, width, sims, i, w, out[i], ref[i])
						}
					}
				}
			}
		}
	}
}
