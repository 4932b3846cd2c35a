package perf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if OpVecFMA.String() != "vec.fma" {
		t.Fatalf("OpVecFMA = %q", OpVecFMA.String())
	}
	if OpRNG.String() != "rng.uniform" {
		t.Fatalf("OpRNG = %q", OpRNG.String())
	}
	if got := Op(-1).String(); !strings.Contains(got, "perf.Op") {
		t.Fatalf("invalid op String = %q", got)
	}
	if got := Op(999).String(); !strings.Contains(got, "999") {
		t.Fatalf("out-of-range op String = %q", got)
	}
}

func TestAddGet(t *testing.T) {
	var c Counts
	c.Add(OpVecMul, 3)
	c.Add(OpVecMul, 4)
	if c.N[OpVecMul] != 7 {
		t.Fatalf("N[OpVecMul] = %d, want 7", c.N[OpVecMul])
	}
	if c.N[OpVecAdd] != 0 {
		t.Fatalf("N[OpVecAdd] = %d, want 0", c.N[OpVecAdd])
	}
}

func TestAddBytes(t *testing.T) {
	var c Counts
	c.AddBytes(24, 16)
	c.AddBytes(24, 16)
	if c.BytesRead != 48 || c.BytesWritten != 32 {
		t.Fatalf("bytes = %d/%d, want 48/32", c.BytesRead, c.BytesWritten)
	}
}

func TestMerge(t *testing.T) {
	a := Counts{Width: 8, Items: 10}
	a.Add(OpExp, 5)
	a.AddBytes(100, 50)
	b := Counts{Items: 20}
	b.Add(OpExp, 7)
	b.Add(OpVecAdd, 2)
	b.AddBytes(10, 5)
	a.Merge(b)
	if a.N[OpExp] != 12 || a.N[OpVecAdd] != 2 {
		t.Fatalf("merged ops wrong: %v", a)
	}
	if a.BytesRead != 110 || a.BytesWritten != 55 {
		t.Fatalf("merged bytes wrong: %v", a)
	}
	if a.Items != 30 {
		t.Fatalf("merged items = %d, want 30", a.Items)
	}
	if a.Width != 8 {
		t.Fatalf("merge clobbered width: %d", a.Width)
	}
}

func TestMergeAdoptsWidth(t *testing.T) {
	var a Counts
	a.Merge(Counts{Width: 4})
	if a.Width != 4 {
		t.Fatalf("width = %d, want 4", a.Width)
	}
}

func TestTotal(t *testing.T) {
	var c Counts
	c.Add(OpVecMul, 3)
	c.Add(OpScalar, 4)
	c.Add(OpRNG, 5)
	if c.Total() != 12 {
		t.Fatalf("Total = %d, want 12", c.Total())
	}
}

func TestFLOPsVectorWidth(t *testing.T) {
	c := Counts{Width: 8}
	c.Add(OpVecFMA, 10) // 10 FMAs x 2 flops x 8 lanes = 160
	c.Add(OpVecAdd, 5)  // 5 x 8 = 40
	c.Add(OpScalar, 3)  // 3
	if got := c.FLOPs(); got != 203 {
		t.Fatalf("FLOPs = %d, want 203", got)
	}
}

func TestFLOPsScalarDefaultsWidthOne(t *testing.T) {
	var c Counts // Width 0 => treated as 1
	c.Add(OpVecAdd, 5)
	if got := c.FLOPs(); got != 5 {
		t.Fatalf("FLOPs = %d, want 5", got)
	}
}

func TestFLOPsTranscendentalWeights(t *testing.T) {
	c := Counts{Width: 1}
	c.Add(OpExp, 1)
	c.Add(OpCND, 1)
	want := uint64(15 + 30)
	if got := c.FLOPs(); got != want {
		t.Fatalf("FLOPs = %d, want %d", got, want)
	}
	// Transcendentals are per-element counts: width must not scale them.
	c8 := Counts{Width: 8}
	c8.Add(OpExp, 8) // one 8-wide vector exp call
	if got := c8.FLOPs(); got != 8*15 {
		t.Fatalf("vector exp FLOPs = %d, want %d", got, 8*15)
	}
}

func TestArithmeticIntensity(t *testing.T) {
	c := Counts{Width: 1}
	c.Add(OpScalar, 200)
	c.AddBytes(24, 16)
	ai := c.ArithmeticIntensity()
	if math.Abs(ai-5.0) > 1e-12 {
		t.Fatalf("AI = %g, want 5", ai)
	}
}

func TestArithmeticIntensityNoTraffic(t *testing.T) {
	c := Counts{Width: 1}
	c.Add(OpScalar, 10)
	if ai := c.ArithmeticIntensity(); !math.IsInf(ai, 1) {
		t.Fatalf("AI with zero traffic = %g, want +Inf", ai)
	}
}

func TestStringFormat(t *testing.T) {
	c := Counts{Items: 2, Width: 4}
	c.Add(OpExp, 9)
	c.Add(OpVecMul, 3)
	c.AddBytes(10, 20)
	s := c.String()
	for _, want := range []string{"items=2", "width=4", "math.exp=9", "vec.mul=3", "rd=10B", "wr=20B"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	// Sorted descending: exp before mul.
	if strings.Index(s, "math.exp") > strings.Index(s, "vec.mul") {
		t.Fatalf("String() not sorted by count: %q", s)
	}
}

func TestStringOmitsZeroTraffic(t *testing.T) {
	var c Counts
	if s := c.String(); strings.Contains(s, "rd=") {
		t.Fatalf("String with zero traffic shows bytes: %q", s)
	}
}

// Property: Merge is commutative over op counts and traffic.
func TestMergeCommutativeQuick(t *testing.T) {
	f := func(a1, a2, b1, b2 uint32, r1, w1, r2, w2 uint32) bool {
		x := Counts{}
		x.Add(OpVecMul, uint64(a1))
		x.Add(OpExp, uint64(a2))
		x.AddBytes(uint64(r1), uint64(w1))
		y := Counts{}
		y.Add(OpVecMul, uint64(b1))
		y.Add(OpExp, uint64(b2))
		y.AddBytes(uint64(r2), uint64(w2))
		xy, yx := x, y
		xy.Merge(y)
		yx.Merge(x)
		return xy.N == yx.N && xy.BytesRead == yx.BytesRead && xy.BytesWritten == yx.BytesWritten
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFLOPsMonotoneInWidthQuick(t *testing.T) {
	f := func(nMul, nFMA uint16) bool {
		c4 := Counts{Width: 4}
		c8 := Counts{Width: 8}
		c4.Add(OpVecMul, uint64(nMul))
		c8.Add(OpVecMul, uint64(nMul))
		c4.Add(OpVecFMA, uint64(nFMA))
		c8.Add(OpVecFMA, uint64(nFMA))
		return c8.FLOPs() == 2*c4.FLOPs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Map serializes the mix for benchreg snapshots: zero classes omitted,
// traffic and metadata under reserved keys.
func TestCountsMap(t *testing.T) {
	var c Counts
	c.Add(OpVecFMA, 100)
	c.Add(OpErf, 7)
	c.AddBytes(4096, 1024)
	c.Items = 64
	c.Width = 8
	m := c.Map()
	want := map[string]uint64{
		"vec.fma": 100, "math.erf": 7,
		"bytes.read": 4096, "bytes.written": 1024,
		"meta.items": 64, "meta.width": 8,
	}
	if len(m) != len(want) {
		t.Fatalf("Map has %d keys, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("Map[%q] = %d, want %d", k, m[k], v)
		}
	}
	if empty := (Counts{}).Map(); len(empty) != 0 {
		t.Errorf("empty Counts maps to %v, want empty", empty)
	}
}

// Delta subtracts counters but carries Workers (a level, not a counter)
// from the newer snapshot.
func TestSchedStatsDelta(t *testing.T) {
	prev := SchedStats{Jobs: 10, Serial: 100, Dispatched: 30, Handoffs: 20, Steals: 10, Workers: 3}
	cur := SchedStats{Jobs: 15, Serial: 160, Dispatched: 50, Handoffs: 33, Steals: 17, Workers: 7}
	d := cur.Delta(prev)
	want := SchedStats{Jobs: 5, Serial: 60, Dispatched: 20, Handoffs: 13, Steals: 7, Workers: 7}
	if d != want {
		t.Fatalf("Delta = %+v, want %+v", d, want)
	}
	if d.Dispatched != d.Handoffs+d.Steals {
		t.Fatalf("delta unbalanced: %v", d)
	}
}

// SchedStats.Map keeps zero fields: zero handoffs next to nonzero
// dispatched is itself informative.
func TestSchedStatsMap(t *testing.T) {
	s := SchedStats{Jobs: 2, Dispatched: 6, Steals: 6, Workers: 4}
	m := s.Map()
	want := map[string]uint64{
		"pool.jobs": 2, "pool.serial": 0, "pool.dispatched": 6,
		"pool.handoffs": 0, "pool.steals": 6, "pool.workers": 4,
	}
	if len(m) != len(want) {
		t.Fatalf("Map has %d keys, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("Map[%q] = %d, want %d", k, m[k], v)
		}
	}
}
