package rng

import (
	"fmt"
	"math"

	"finbench/internal/mathx"
	"finbench/internal/perf"
)

// Method selects the uniform-to-normal transform, mirroring MKL's VSL
// method constants.
type Method int

const (
	// ICDF applies the inverse cumulative normal distribution to each
	// uniform draw — one normal per uniform, fully vectorizable; the method
	// the paper's Table II rates correspond to.
	ICDF Method = iota
	// BoxMuller applies the trigonometric Box-Muller transform, two
	// normals per two uniforms.
	BoxMuller
	// BoxMuller2 is the polar (Marsaglia) rejection variant.
	BoxMuller2
	// ZigguratMethod is the Marsaglia-Tsang 256-layer rejection method,
	// fastest scalar method but branchy (hence absent from the paper's
	// SIMD pipelines; included for the ablation benchmarks).
	ZigguratMethod
)

// String names the method.
func (m Method) String() string {
	switch m {
	case ICDF:
		return "icdf"
	case BoxMuller:
		return "box-muller"
	case BoxMuller2:
		return "box-muller-polar"
	case ZigguratMethod:
		return "ziggurat"
	default:
		return fmt.Sprintf("rng.Method(%d)", int(m))
	}
}

// Stream is one independent random stream, the unit handed to each worker
// thread. It wraps a twister plus transform state and optionally records
// generation work into a perf.Counts.
type Stream struct {
	mt *MT
	// C, when non-nil, receives OpRNG per uniform draw and OpInvCND per
	// ICDF transform, which is how the Table II experiment models RNG cost.
	C *perf.Counts

	// Box-Muller carry: the second normal of a generated pair.
	haveSpare bool
	spare     float64
}

// NewStream returns stream id from the family seeded by seed. Stream
// identities follow the MKL MT2203 convention (family id selects an
// independent generator); per the documented substitution, independence
// comes from SplitMix64-scrambled seeding of the MT19937 engine rather
// than from dcmt parameter sets.
func NewStream(id int, seed uint64) *Stream {
	s := splitmix64(seed ^ splitmix64(uint64(id)+0x5851F42D4C957F2D))
	key := []uint32{uint32(s), uint32(s >> 32), uint32(id), 0x6D2B79F5}
	mt := NewMT19937(5489)
	mt.SeedArray(key)
	return &Stream{mt: mt}
}

// DeriveSeed folds tags into a base seed through a SplitMix64 chain,
// producing a well-separated seed for a derived stream family. Callers use
// it to give repeated operations (e.g. successive Simulate calls) distinct
// but reproducible seeds: the same (base, tags...) always yields the same
// result, and differing in any tag decorrelates the output.
func DeriveSeed(base uint64, tags ...uint64) uint64 {
	s := splitmix64(base)
	for _, t := range tags {
		s = splitmix64(s ^ splitmix64(t+0x9E3779B97F4A7C15))
	}
	return s
}

func (s *Stream) countRNG(n uint64) {
	if s.C != nil {
		s.C.Add(perf.OpRNG, n)
	}
}

func (s *Stream) count(op perf.Op, n uint64) {
	if s.C != nil {
		s.C.Add(op, n)
	}
}

// Uniform fills dst with uniforms in (0,1). Fills proceed in vector-width
// chunks from the twister, the "loaded in vector-width chunks" modification
// the Brownian-bridge optimization requires (Sec. IV-C2); with a serial
// twister that reduces to a straight run, but the contract (a multiple of
// the SIMD width per internal step) is what the kernels rely on.
func (s *Stream) Uniform(dst []float64) {
	s.countRNG(uint64(len(dst)))
	for i := range dst {
		dst[i] = s.mt.Float64OO()
	}
}

// NormalICDF fills dst with standard normals via the inverse CDF.
func (s *Stream) NormalICDF(dst []float64) {
	s.countRNG(uint64(len(dst)))
	s.count(perf.OpInvCND, uint64(len(dst)))
	for i := range dst {
		dst[i] = mathx.InvCND(s.mt.Float64OO())
	}
}

// NormalBoxMuller fills dst with standard normals via the trigonometric
// Box-Muller transform.
func (s *Stream) NormalBoxMuller(dst []float64) {
	for i := range dst {
		if s.haveSpare {
			s.haveSpare = false
			dst[i] = s.spare
			continue
		}
		s.countRNG(2)
		// Charge the pair's transcendental work: log, sqrt, and the
		// sin/cos pair (modelled as two Exp-class evaluations).
		s.count(perf.OpLog, 1)
		s.count(perf.OpSqrt, 1)
		s.count(perf.OpExp, 2)
		u1 := s.mt.Float64OO()
		u2 := s.mt.Float64OO()
		r := mathx.Sqrt(-2 * mathx.Log(u1))
		z0, z1 := sincos2pi(u2)
		dst[i] = r * z0
		s.spare = r * z1
		s.haveSpare = true
	}
}

// NormalPolar fills dst with standard normals via the Marsaglia polar
// method (rejection; acceptance ratio pi/4).
func (s *Stream) NormalPolar(dst []float64) {
	for i := range dst {
		if s.haveSpare {
			s.haveSpare = false
			dst[i] = s.spare
			continue
		}
		for {
			s.countRNG(2)
			u := 2*s.mt.Float64OO() - 1
			v := 2*s.mt.Float64OO() - 1
			q := u*u + v*v
			if q > 0 && q < 1 {
				s.count(perf.OpLog, 1)
				s.count(perf.OpSqrt, 1)
				f := mathx.Sqrt(-2 * mathx.Log(q) / q)
				dst[i] = u * f
				s.spare = v * f
				s.haveSpare = true
				break
			}
		}
	}
}

// Normal fills dst using the given method.
func (s *Stream) Normal(dst []float64, m Method) {
	switch m {
	case ICDF:
		s.NormalICDF(dst)
	case BoxMuller:
		s.NormalBoxMuller(dst)
	case BoxMuller2:
		s.NormalPolar(dst)
	case ZigguratMethod:
		s.NormalZiggurat(dst)
	default:
		panic(fmt.Sprintf("rng: unknown method %v", m))
	}
}

// sincos2pi returns cos(2*pi*u), sin(2*pi*u) via the standard library's
// combined evaluation.
func sincos2pi(u float64) (c, s float64) {
	sn, cs := math.Sincos(2 * math.Pi * u)
	return cs, sn
}
