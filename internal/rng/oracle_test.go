package rng

// Oracle for the twister: the generic Mersenne Twister engine this
// package used to run — Params plus a twist that indexes with % N and
// branches on y&1, tempering through the parameter fields — kept here as
// the reference listing. The fixed-constant MT19937 must reproduce its
// outputs bit for bit: Uint32 and Float64OO draws, init_genrand and
// init_by_array seeding, and NewStream's per-id keys, over runs long
// enough to cross many twist boundaries.

import (
	"math"
	"testing"
)

type refParams struct {
	N, M     int
	R        uint
	A        uint32
	U        uint
	S        uint
	B        uint32
	T        uint
	C        uint32
	L        uint
	InitMult uint32
}

var refMT19937Params = refParams{
	N: 624, M: 397, R: 31,
	A: 0x9908B0DF,
	U: 11,
	S: 7, B: 0x9D2C5680,
	T: 15, C: 0xEFC60000,
	L:        18,
	InitMult: 1812433253,
}

type refMT struct {
	p   refParams
	mt  []uint32
	idx int
}

func newRefMT19937(seed uint32) *refMT {
	m := &refMT{p: refMT19937Params, mt: make([]uint32, refMT19937Params.N)}
	m.Seed(seed)
	return m
}

func (m *refMT) Seed(seed uint32) {
	m.mt[0] = seed
	for i := 1; i < m.p.N; i++ {
		m.mt[i] = m.p.InitMult*(m.mt[i-1]^(m.mt[i-1]>>30)) + uint32(i)
	}
	m.idx = m.p.N
}

func (m *refMT) SeedArray(key []uint32) {
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

func (m *refMT) twist() {
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

func (m *refMT) Uint32() uint32 {
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

func (m *refMT) Float64OO() float64 {
	a := m.Uint32() >> 5
	b := m.Uint32() >> 6
	return oldOpenUnit(a, b)
}

// oldOpenUnit is Float64OO's mapping before the clamp of its top point.
func oldOpenUnit(a, b uint32) float64 {
	return (float64(a)*67108864.0 + float64(b) + 0.5) / 9007199254740992.0
}

// refStreamKey is NewStream's init_by_array key for stream id.
func refStreamKey(id int, seed uint64) []uint32 {
	s := splitmix64(seed ^ splitmix64(uint64(id)+0x5851F42D4C957F2D))
	return []uint32{uint32(s), uint32(s >> 32), uint32(id), 0x6D2B79F5}
}

// oracleDraws is the run length of the long comparisons: 2^20 draws
// cross 1,680 twist boundaries.
const oracleDraws = 1 << 20

// compareDraws draws n Uint32 values from both generators, then n
// Float64OO values, and fails on the first differing bit. A short prefix
// of Uint32 draws first puts the Float64OO pairs off the twist-block
// alignment, so some of them straddle a twist.
func compareDraws(t *testing.T, name string, got *MT, want *refMT, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := got.Uint32(), want.Uint32(); g != w {
			t.Fatalf("%s: Uint32 draw %d = %d, listing %d", name, i, g, w)
		}
	}
	for i := 0; i < 3; i++ {
		if g, w := got.Uint32(), want.Uint32(); g != w {
			t.Fatalf("%s: offset draw %d = %d, listing %d", name, i, g, w)
		}
	}
	for i := 0; i < n; i++ {
		if g, w := got.Float64OO(), want.Float64OO(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Float64OO draw %d = %.17g, listing %.17g", name, i, g, w)
		}
	}
}

func TestMT19937MatchesListingSeeds(t *testing.T) {
	n := oracleDraws
	for _, seed := range []uint32{0, 1, 5489, math.MaxUint32} {
		compareDraws(t, "seed", NewMT19937(seed), newRefMT19937(seed), n)
	}
	// Reseeding an already-drawn generator restarts it exactly.
	got, want := NewMT19937(7), newRefMT19937(7)
	for i := 0; i < 1000; i++ {
		got.Uint32()
	}
	got.Seed(11)
	want.Seed(11)
	compareDraws(t, "reseed", got, want, 5000)
}

func TestMT19937MatchesListingSeedArray(t *testing.T) {
	n := oracleDraws
	long := make([]uint32, 1000) // longer than the state: the key wraps
	for i := range long {
		long[i] = uint32(i)*2654435761 + 12345
	}
	for _, key := range [][]uint32{
		{0},
		{0x123, 0x234, 0x345, 0x456},
		{math.MaxUint32, 0, math.MaxUint32},
		long,
	} {
		got, want := NewMT19937(0), newRefMT19937(0)
		got.SeedArray(key)
		want.SeedArray(key)
		compareDraws(t, "key", got, want, n)
	}
}

func TestStreamsMatchListing(t *testing.T) {
	n := 3 * 624 // three twist blocks per stream
	for id := 0; id < 64; id++ {
		for _, seed := range []uint64{0, 1, 0xDEADBEEFCAFEF00D} {
			want := newRefMT19937(5489)
			want.SeedArray(refStreamKey(id, seed))
			s := NewStream(id, seed)
			compareDraws(t, "stream", s.mt, want, n)
		}
	}
	// The Uniform fill is Float64OO in order.
	s := NewStream(5, 42)
	want := newRefMT19937(5489)
	want.SeedArray(refStreamKey(5, 42))
	buf := make([]float64, 4099)
	s.Uniform(buf)
	for i, g := range buf {
		if w := want.Float64OO(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("Uniform[%d] = %.17g, listing %.17g", i, g, w)
		}
	}
}

// The lattice's top point used to round to exactly 1, where InvCND is
// +Inf; it is now the largest double below 1. Its bottom point stays
// 2^-54, and every other point keeps its bits.
func TestOpenUnitClampsOnlyTheTop(t *testing.T) {
	const aMax, bMax = 1<<27 - 1, 1<<26 - 1
	if g := oldOpenUnit(aMax, bMax); g != 1 {
		t.Fatalf("the unclamped top point is %v, expected it to round to 1", g)
	}
	if g := openUnit(aMax, bMax); g != 1-0x1p-53 {
		t.Fatalf("openUnit(all ones) = %v, want 1 - 2^-53", g)
	}
	if g := openUnit(0, 0); g != 0x1p-54 {
		t.Fatalf("openUnit(0, 0) = %v, want 2^-54", g)
	}
	check := func(a, b uint32) {
		if a == aMax && b == bMax {
			return
		}
		if g, w := openUnit(a, b), oldOpenUnit(a, b); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("openUnit(%d, %d) = %v, before the clamp %v", a, b, g, w)
		}
	}
	for _, a := range []uint32{0, 1, 2, 1 << 26, aMax - 1, aMax} {
		for _, b := range []uint32{0, 1, 2, 1 << 25, bMax - 2, bMax - 1, bMax} {
			check(a, b)
		}
	}
	m := NewMT19937(42)
	for i := 0; i < oracleDraws; i++ {
		check(m.Uint32()>>5, m.Uint32()>>6)
	}
}
