// Package rng implements the random-number substrate of the benchmark: the
// Mersenne Twister generator family, parallel stream partitioning, and the
// uniform-to-normal transforms (inverse CDF, Box-Muller, ziggurat).
//
// The paper's Monte Carlo kernels use "the Intel MKL Mersenne twister (2203
// variant) as the basis for our random number generation (this is
// ultimately transformed into the appropriate normal distribution)"
// (Sec. IV-D3), and Table II reports raw uniform and normal generation
// rates. MKL's MT2203 is a family of 6024 mutually independent twisters
// produced by the dynamic-creator (dcmt) search; the dcmt parameter tables
// are not reproducible from the published paper, so this package makes the
// documented substitution (DESIGN.md Sec. 2): the MT19937 Mersenne
// Twister, specialised to its canonical constants, plus a stream family
// that derives per-stream generators from independent, avalanche-scrambled
// seeds (SplitMix64). This preserves the property the kernels rely on —
// one statistically independent stream per thread, vector-width-chunked
// fills — with a known-answer-tested core.
package rng

// The MT19937 constants (Matsumoto & Nishimura, ACM TOMACS 1998): state
// size mtN, middle word mtM, the twist matrix's last row matrixA, the
// upper/lower split of a state word at bit 31, and the tempering shifts
// and masks.
const (
	mtN       = 624
	mtM       = 397
	matrixA   = 0x9908B0DF
	upperMask = 0x80000000
	lowerMask = 0x7FFFFFFF
	temperB   = 0x9D2C5680
	temperC   = 0xEFC60000
	initMult  = 1812433253
)

// MT is the 32-bit MT19937 Mersenne Twister.
type MT struct {
	mt  [mtN]uint32
	idx uint
}

// NewMT19937 returns the canonical MT19937 generator seeded by seed
// (init_genrand of the reference implementation, whose default seed is
// 5489).
func NewMT19937(seed uint32) *MT {
	m := new(MT)
	m.Seed(seed)
	return m
}

// Seed reinitializes the state from a single 32-bit seed using the
// reference init_genrand recurrence.
func (m *MT) Seed(seed uint32) {
	m.mt[0] = seed
	for i := 1; i < mtN; i++ {
		m.mt[i] = initMult*(m.mt[i-1]^(m.mt[i-1]>>30)) + uint32(i)
	}
	m.idx = mtN
}

// SeedArray reinitializes the state from a key array, matching the
// reference init_by_array so that published test vectors apply.
func (m *MT) SeedArray(key []uint32) {
	const n = mtN
	m.Seed(19650218)
	i, j := 1, 0
	k := n
	if len(key) > k {
		k = len(key)
	}
	for ; k > 0; k-- {
		m.mt[i] = (m.mt[i] ^ ((m.mt[i-1] ^ (m.mt[i-1] >> 30)) * 1664525)) + key[j] + uint32(j)
		i++
		j++
		if i >= n {
			m.mt[0] = m.mt[n-1]
			i = 1
		}
		if j >= len(key) {
			j = 0
		}
	}
	for k = n - 1; k > 0; k-- {
		m.mt[i] = (m.mt[i] ^ ((m.mt[i-1] ^ (m.mt[i-1] >> 30)) * 1566083941)) - uint32(i)
		i++
		if i >= n {
			m.mt[0] = m.mt[n-1]
			i = 1
		}
	}
	m.mt[0] = 0x80000000
	m.idx = n
}

// twist regenerates the state block (the O(N) step amortized over N
// draws). It is the reference three-segment loop: word i pairs with word
// i+1 and mixes in word i+M, which lies ahead of i in the block for the
// first N-M words and wraps to the already-twisted front for the rest;
// the last word pairs with the new word 0. The twist matrix is applied
// branch-free: -(y&1) is all ones exactly when the low bit is set.
func (m *MT) twist() {
	mt := &m.mt
	i := 0
	for ; i < mtN-mtM; i++ {
		y := mt[i]&upperMask | mt[i+1]&lowerMask
		mt[i] = mt[i+mtM] ^ y>>1 ^ -(y&1)&matrixA
	}
	for ; i < mtN-1; i++ {
		y := mt[i]&upperMask | mt[i+1]&lowerMask
		mt[i] = mt[i+mtM-mtN] ^ y>>1 ^ -(y&1)&matrixA
	}
	y := mt[mtN-1]&upperMask | mt[0]&lowerMask
	mt[mtN-1] = mt[mtM-1] ^ y>>1 ^ -(y&1)&matrixA
	m.idx = 0
}

// Uint32 returns the next tempered 32-bit output.
func (m *MT) Uint32() uint32 {
	i := m.idx
	if i >= mtN {
		m.twist()
		i = 0
	}
	y := m.mt[i]
	m.idx = i + 1
	y ^= y >> 11
	y ^= y << 7 & temperB
	y ^= y << 15 & temperC
	y ^= y >> 18
	return y
}

// Uint64 combines two 32-bit draws.
func (m *MT) Uint64() uint64 {
	hi := uint64(m.Uint32())
	lo := uint64(m.Uint32())
	return hi<<32 | lo
}

// Float64OO returns a uniform in the open interval (0,1), as required by
// the inverse-CDF normal transform (Phi^-1 diverges at 0 and 1).
func (m *MT) Float64OO() float64 {
	a := m.Uint32() >> 5
	b := m.Uint32() >> 6
	return openUnit(a, b)
}

// openUnit maps a 27-bit a and a 26-bit b to the 53-bit lattice shifted
// by half a step, (a*2^26 + b + 1/2) / 2^53. The top point, 1 - 2^-54, is
// not a double and ties to even, to 1; it is clamped to 1 - 2^-53, the
// largest double below 1, and every other point is unchanged.
func openUnit(a, b uint32) float64 {
	return min((float64(a)*67108864.0+float64(b)+0.5)/9007199254740992.0, 1-0x1p-53)
}

// splitmix64 is the avalanche scrambler used to derive independent stream
// seeds; one step of the SplitMix64 sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
