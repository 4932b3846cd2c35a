package sobol

import (
	"fmt"
	"math/bits"
)

// Bits is the resolution of the generator: points lie on a 2^-Bits
// lattice.
const Bits = 32

// joeKuoM holds the classical initial direction values m_1..m_s for
// dimensions 2..10 (dimension 1 is the van der Corput sequence and needs
// none). Entries beyond this table are generated deterministically.
var joeKuoM = [][]uint32{
	{1},               // d=2, poly x+1
	{1, 3},            // d=3, poly x^2+x+1
	{1, 3, 1},         // d=4, poly x^3+x+1
	{1, 1, 1},         // d=5, poly x^3+x^2+1
	{1, 1, 3, 3},      // d=6, poly x^4+x+1
	{1, 3, 5, 13},     // d=7, poly x^4+x^3+1
	{1, 1, 5, 5, 17},  // d=8, poly x^5+x^2+1
	{1, 1, 5, 5, 5},   // d=9, poly x^5+x^3+1
	{1, 1, 7, 11, 19}, // d=10, poly x^5+x^3+x^2+x+1
}

// Sequence generates Sobol points of a fixed dimension via the
// Antonov-Saleev Gray-code recurrence. It is not safe for concurrent use;
// create one per goroutine (Skip partitions work deterministically).
type Sequence struct {
	dim   int
	v     [][Bits]uint32 // direction numbers per dimension
	x     []uint32       // current state per dimension
	n     uint64         // index of the next point
	shift []uint32       // random digital shift (zero = unscrambled)
}

// New returns a Sobol sequence of the given dimension (1 <= dim <= 1111).
func New(dim int) (*Sequence, error) {
	if dim < 1 || dim > 1111 {
		return nil, fmt.Errorf("sobol: dimension %d out of range [1,1111]", dim)
	}
	s := &Sequence{
		dim:   dim,
		v:     make([][Bits]uint32, dim),
		x:     make([]uint32, dim),
		shift: make([]uint32, dim),
	}
	// Dimension 1: van der Corput — v_k = 2^(Bits-1-k).
	for k := 0; k < Bits; k++ {
		s.v[0][k] = 1 << uint(Bits-1-k)
	}
	if dim > 1 {
		polys := primitivePolynomials(dim - 1)
		// Deterministic fallback generator for initial values beyond the
		// classical table (SplitMix-style), constrained to odd m_k < 2^k.
		seed := uint64(0x9E3779B97F4A7C15)
		nextOdd := func(k int) uint32 {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			m := uint32(seed) % (1 << uint(k)) // in [0, 2^k)
			return m | 1                       // odd
		}
		for d := 1; d < dim; d++ {
			p := polys[d-1]
			deg := int(polyDegree(p))
			var m []uint32
			if d-1 < len(joeKuoM) {
				m = append(m, joeKuoM[d-1]...)
			}
			for k := len(m); k < deg; k++ {
				m = append(m, nextOdd(k+1))
			}
			initDirections(&s.v[d], p, m)
		}
	}
	return s, nil
}

// initDirections fills the direction numbers of one dimension from its
// primitive polynomial p (degree s) and initial values m_1..m_s, via the
// Sobol recurrence
//
//	m_k = 2 a_1 m_{k-1} XOR 4 a_2 m_{k-2} XOR ... XOR 2^s m_{k-s} XOR m_{k-s}
//
// with a_i the interior polynomial coefficients; v_k = m_k * 2^(Bits-k).
func initDirections(v *[Bits]uint32, p uint64, m []uint32) {
	s := len(m)
	mk := make([]uint32, Bits+1) // 1-based
	for k := 1; k <= s && k <= Bits; k++ {
		mk[k] = m[k-1]
	}
	// Interior coefficients a_1..a_{s-1}: bits s-1..1 of p.
	for k := s + 1; k <= Bits; k++ {
		val := mk[k-s] ^ (mk[k-s] << uint(s))
		for i := 1; i <= s-1; i++ {
			if (p>>(uint(s-i)))&1 != 0 {
				val ^= mk[k-i] << uint(i)
			}
		}
		mk[k] = val
	}
	for k := 1; k <= Bits; k++ {
		v[k-1] = mk[k] << uint(Bits-k)
	}
}

// Next writes the point with the current index into dst (len >= dim) and
// advances. Each coordinate lies in (0,1): a half-lattice-cell offset keeps
// coordinates away from 0 and 1, as the inverse-normal transform requires.
// The first emitted point is the index-0 origin of the net, so blocks of
// 2^k consecutive points starting from a Skip to a multiple of 2^k are
// exact digital-net blocks.
func (s *Sequence) Next(dst []float64) {
	const scale = 1.0 / 4294967296.0 // 2^-32
	for d := 0; d < s.dim; d++ {
		dst[d] = (float64(s.x[d]^s.shift[d]) + 0.5) * scale
	}
	// Gray-code step: flip the direction number of the lowest zero bit.
	c := uint(bits.TrailingZeros64(^s.n))
	if c >= Bits {
		c = Bits - 1 // wrapped past 2^32 points; keep cycling
	}
	for d := 0; d < s.dim; d++ {
		s.x[d] ^= s.v[d][c]
	}
	s.n++
}

// Skip advances the sequence by k points in O(dim * 32) using the Gray
// code of the target index, enabling deterministic parallel partitioning.
func (s *Sequence) Skip(k uint64) {
	target := s.n + k
	gray := target ^ (target >> 1)
	for d := 0; d < s.dim; d++ {
		var x uint32
		for b := uint(0); b < Bits && b < 64; b++ {
			if (gray>>b)&1 != 0 {
				x ^= s.v[d][b]
			}
		}
		s.x[d] = x
	}
	s.n = target
}

// DigitalShift applies a random digital shift (XOR scrambling) derived
// from seed: the standard randomization for error estimation in
// randomized QMC. A zero seed removes the shift.
func (s *Sequence) DigitalShift(seed uint64) {
	if seed == 0 {
		for d := range s.shift {
			s.shift[d] = 0
		}
		return
	}
	z := seed
	for d := range s.shift {
		z ^= z << 13
		z ^= z >> 7
		z ^= z << 17
		s.shift[d] = uint32(z)
	}
}
