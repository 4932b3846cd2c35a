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
// documented substitution (DESIGN.md Sec. 2): a generic, parameterized
// Mersenne Twister engine instantiated with the canonical MT19937
// parameters, plus a stream family that derives per-stream generators from
// independent, avalanche-scrambled seeds (SplitMix64). This preserves the
// property the kernels rely on — one statistically independent stream per
// thread, vector-width-chunked fills — with a known-answer-tested core.
package rng

// Params defines a 32-bit Mersenne Twister instance (Matsumoto & Nishimura,
// ACM TOMACS 1998): state size N, middle word M, twist split R, twist
// matrix A, and the tempering parameters U, S, B, T, C, L.
type Params struct {
	N, M int
	R    uint
	A    uint32
	U    uint
	S    uint
	B    uint32
	T    uint
	C    uint32
	L    uint
	// InitMult is the multiplier of the Knuth-style seeding recurrence
	// (1812433253 for MT19937).
	InitMult uint32
}

// MT19937Params are the canonical parameters of the 2^19937-1 period
// twister.
var MT19937Params = Params{
	N: 624, M: 397, R: 31,
	A: 0x9908B0DF,
	U: 11,
	S: 7, B: 0x9D2C5680,
	T: 15, C: 0xEFC60000,
	L:        18,
	InitMult: 1812433253,
}

// MT is a parameterized 32-bit Mersenne Twister.
type MT struct {
	p   Params
	mt  []uint32
	idx int
}

// NewMT returns a twister with the given parameters seeded by seed
// (init_genrand of the reference implementation).
func NewMT(p Params, seed uint32) *MT {
	m := &MT{p: p, mt: make([]uint32, p.N)}
	m.Seed(seed)
	return m
}

// NewMT19937 returns the canonical MT19937 generator. The reference
// implementation's default seed is 5489.
func NewMT19937(seed uint32) *MT { return NewMT(MT19937Params, seed) }

// Seed reinitializes the state from a single 32-bit seed using the
// reference init_genrand recurrence.
func (m *MT) Seed(seed uint32) {
	m.mt[0] = seed
	for i := 1; i < m.p.N; i++ {
		m.mt[i] = m.p.InitMult*(m.mt[i-1]^(m.mt[i-1]>>30)) + uint32(i)
	}
	m.idx = m.p.N
}

// SeedArray reinitializes the state from a key array, matching the
// reference init_by_array so that published test vectors apply.
func (m *MT) SeedArray(key []uint32) {
	n := m.p.N
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

// twist regenerates the state block (the O(N) step amortized over N draws).
func (m *MT) twist() {
	p := m.p
	n := p.N
	upperMask := uint32(0xFFFFFFFF) << p.R
	lowerMask := ^upperMask
	for i := 0; i < n; i++ {
		y := (m.mt[i] & upperMask) | (m.mt[(i+1)%n] & lowerMask)
		next := m.mt[(i+p.M)%n] ^ (y >> 1)
		if y&1 != 0 {
			next ^= p.A
		}
		m.mt[i] = next
	}
	m.idx = 0
}

// Uint32 returns the next tempered 32-bit output.
func (m *MT) Uint32() uint32 {
	if m.idx >= m.p.N {
		m.twist()
	}
	y := m.mt[m.idx]
	m.idx++
	y ^= y >> m.p.U
	y ^= (y << m.p.S) & m.p.B
	y ^= (y << m.p.T) & m.p.C
	y ^= y >> m.p.L
	return y
}

// Uint64 combines two 32-bit draws.
func (m *MT) Uint64() uint64 {
	hi := uint64(m.Uint32())
	lo := uint64(m.Uint32())
	return hi<<32 | lo
}

// Float64OO returns a uniform in the open interval (0,1), as required by
// the inverse-CDF normal transform (Phi^-1 diverges at 0 and 1). It shifts
// the 53-bit lattice by half a step.
func (m *MT) Float64OO() float64 {
	a := m.Uint32() >> 5
	b := m.Uint32() >> 6
	return (float64(a)*67108864.0 + float64(b) + 0.5) / 9007199254740992.0
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
