package vec

import (
	"math"
	"testing"
	"testing/quick"

	"finbench/internal/mathx"
	"finbench/internal/perf"
)

func v8(xs ...float64) Vec {
	var v Vec
	copy(v.X[:], xs)
	return v
}

func TestNewValidWidths(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		c := New(w, nil)
		if c.W != w {
			t.Fatalf("New(%d).W = %d", w, c.W)
		}
	}
}

func TestNewInvalidWidthPanics(t *testing.T) {
	for _, w := range []int{0, 3, 5, 16, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", w)
				}
			}()
			New(w, nil)
		}()
	}
}

func TestNewSetsCounterWidth(t *testing.T) {
	var cnt perf.Counts
	New(8, &cnt)
	if cnt.Width != 8 {
		t.Fatalf("counter width = %d, want 8", cnt.Width)
	}
	// Does not clobber an existing width.
	cnt2 := perf.Counts{Width: 4}
	New(8, &cnt2)
	if cnt2.Width != 4 {
		t.Fatalf("counter width clobbered: %d", cnt2.Width)
	}
}

func TestBroadcastRespectsWidth(t *testing.T) {
	c := New(4, nil)
	v := c.Broadcast(3.5)
	for i := 0; i < 4; i++ {
		if v.X[i] != 3.5 {
			t.Fatalf("lane %d = %g", i, v.X[i])
		}
	}
	for i := 4; i < MaxWidth; i++ {
		if v.X[i] != 0 {
			t.Fatalf("dead lane %d written: %g", i, v.X[i])
		}
	}
}

func TestArithmetic(t *testing.T) {
	c := New(8, nil)
	a := v8(1, 2, 3, 4, 5, 6, 7, 8)
	b := c.Broadcast(2)
	if got := c.Add(a, b); got.X[7] != 10 || got.X[0] != 3 {
		t.Fatalf("Add = %v", got)
	}
	if got := c.Sub(a, b); got.X[0] != -1 {
		t.Fatalf("Sub = %v", got)
	}
	if got := c.Mul(a, b); got.X[3] != 8 {
		t.Fatalf("Mul = %v", got)
	}
	if got := c.Div(a, b); got.X[1] != 1 {
		t.Fatalf("Div = %v", got)
	}
	if got := c.Neg(a); got.X[2] != -3 {
		t.Fatalf("Neg = %v", got)
	}
}

func TestFMA(t *testing.T) {
	c := New(4, nil)
	a := c.Broadcast(2)
	b := c.Broadcast(3)
	acc := c.Broadcast(1)
	got := c.FMA(a, b, acc)
	for i := 0; i < 4; i++ {
		if got.X[i] != 7 {
			t.Fatalf("FMA lane %d = %g", i, got.X[i])
		}
	}
}

func TestMaxMin(t *testing.T) {
	c := New(4, nil)
	a := v8(1, 5, 3, 7)
	b := v8(2, 4, 3, 8)
	if got := c.Max(a, b); got != v8(2, 5, 3, 8) {
		t.Fatalf("Max = %v", got)
	}
}

func TestLoadStore(t *testing.T) {
	c := New(4, nil)
	s := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	v := c.Load(s, 4)
	if v.X[0] != 4 || v.X[3] != 7 {
		t.Fatalf("Load = %v", v)
	}
	u := c.LoadU(s, 1)
	if u.X[0] != 1 || u.X[3] != 4 {
		t.Fatalf("LoadU = %v", u)
	}
	dst := make([]float64, 8)
	c.Store(dst, 4, v)
	if dst[4] != 4 || dst[7] != 7 || dst[0] != 0 {
		t.Fatalf("Store wrote %v", dst)
	}
}

func TestGatherScatterStride(t *testing.T) {
	c := New(4, nil)
	// AOS with stride 3: field at offset 1.
	aos := []float64{0, 10, 0, 1, 11, 0, 2, 12, 0, 3, 13, 0}
	v := c.GatherStride(aos, 1, 3)
	if v != v8(10, 11, 12, 13) {
		t.Fatalf("GatherStride = %v", v)
	}
	c.ScatterStride(aos, 2, 3, v8(100, 101, 102, 103))
	if aos[2] != 100 || aos[5] != 101 || aos[11] != 103 {
		t.Fatalf("ScatterStride wrote %v", aos)
	}
}

func TestMove(t *testing.T) {
	c := New(8, nil)
	a := v8(0, 1, 2, 3, 4, 5, 6, 7)
	if got := c.Move(a); got != a {
		t.Fatalf("Move = %v", got)
	}
}

func TestReduceAdd(t *testing.T) {
	c := New(8, nil)
	if got := c.ReduceAdd(v8(1, 2, 3, 4, 5, 6, 7, 8)); got != 36 {
		t.Fatalf("ReduceAdd = %g", got)
	}
	c4 := New(4, nil)
	if got := c4.ReduceAdd(v8(1, 2, 3, 4)); got != 10 {
		t.Fatalf("ReduceAdd w=4 = %g", got)
	}
}

func TestTranscendentalsMatchScalar(t *testing.T) {
	c := New(8, nil)
	in := v8(0.1, 0.5, 1, 1.5, 2, 2.5, 3, 0.01)
	checks := []struct {
		name   string
		got    Vec
		scalar func(float64) float64
	}{
		{"Exp", c.Exp(in), mathx.Exp},
		{"Log", c.Log(in), mathx.Log},
		{"Sqrt", c.Sqrt(in), mathx.Sqrt},
		{"Erf", c.Erf(in), mathx.Erf},
		{"CND", c.CND(in), mathx.CND},
	}
	for _, ck := range checks {
		for i := 0; i < 8; i++ {
			if ck.got.X[i] != ck.scalar(in.X[i]) {
				t.Fatalf("%s lane %d: %g != %g", ck.name, i, ck.got.X[i], ck.scalar(in.X[i]))
			}
		}
	}
}

func TestCounting(t *testing.T) {
	var cnt perf.Counts
	c := New(8, &cnt)
	a := c.Broadcast(1) // misc 1
	b := c.Broadcast(2) // misc 2
	_ = c.Add(a, b)     // add 1
	_ = c.Mul(a, b)     // mul 1
	_ = c.FMA(a, b, a)  // fma 1
	_ = c.Exp(a)        // exp 8 (per element)
	s := make([]float64, 16)
	_ = c.Load(s, 0)            // load 1
	_ = c.LoadU(s, 1)           // loadu 1
	c.Store(s, 0, a)            // store 1
	_ = c.GatherStride(s, 0, 2) // near gather 1 (spans 2 lines)
	c.ScatterStride(s, 0, 2, a) // near scatter 1
	big := make([]float64, 80)
	_ = c.GatherStride(big, 0, 8) // far gather 1 (one line per lane)
	c.ScatterStride(big, 0, 8, a) // far scatter 1
	_ = c.ReduceAdd(a)            // add 3, misc 3 (log2(8) steps)
	if cnt.N[perf.OpVecMisc] != 2+3 {
		t.Errorf("misc = %d, want 5", cnt.N[perf.OpVecMisc])
	}
	if cnt.N[perf.OpVecAdd] != 1+3 {
		t.Errorf("add = %d, want 4", cnt.N[perf.OpVecAdd])
	}
	if cnt.N[perf.OpVecMul] != 1 || cnt.N[perf.OpVecFMA] != 1 {
		t.Errorf("mul/fma = %d/%d", cnt.N[perf.OpVecMul], cnt.N[perf.OpVecFMA])
	}
	if cnt.N[perf.OpExp] != 8 {
		t.Errorf("exp = %d, want 8", cnt.N[perf.OpExp])
	}
	if cnt.N[perf.OpVecLoad] != 1 || cnt.N[perf.OpVecLoadU] != 1 || cnt.N[perf.OpVecStore] != 1 {
		t.Errorf("load/loadu/store = %d/%d/%d", cnt.N[perf.OpVecLoad], cnt.N[perf.OpVecLoadU], cnt.N[perf.OpVecStore])
	}
	if cnt.N[perf.OpGatherNear] != 1 || cnt.N[perf.OpScatterNear] != 1 {
		t.Errorf("near gather/scatter = %d/%d", cnt.N[perf.OpGatherNear], cnt.N[perf.OpScatterNear])
	}
	if cnt.N[perf.OpGather] != 1 || cnt.N[perf.OpScatter] != 1 {
		t.Errorf("far gather/scatter = %d/%d", cnt.N[perf.OpGather], cnt.N[perf.OpScatter])
	}
}

func TestCountingNilSafe(t *testing.T) {
	c := New(4, nil)
	// Must not panic anywhere with a nil counter.
	a := c.Broadcast(1)
	_ = c.Add(a, a)
	_ = c.Exp(a)
	_ = c.ReduceAdd(a)
}

// Property: vector Add agrees with scalar addition on every active lane and
// leaves dead lanes at zero.
func TestAddLanewiseQuick(t *testing.T) {
	c := New(4, nil)
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 float64) bool {
		a := v8(a0, a1, a2, a3)
		b := v8(b0, b1, b2, b3)
		got := c.Add(a, b)
		for i := 0; i < 4; i++ {
			want := a.X[i] + b.X[i]
			if got.X[i] != want && !(math.IsNaN(got.X[i]) && math.IsNaN(want)) {
				return false
			}
		}
		return got.X[4] == 0 && got.X[7] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FMA(a,b,acc) == Mul(a,b)+acc exactly in our software model
// (no extra rounding is modelled; lanes are evaluated with Go's float64).
func TestFMAConsistentQuick(t *testing.T) {
	c := New(8, nil)
	f := func(a, b, acc float64) bool {
		va, vb, vacc := c.Broadcast(a), c.Broadcast(b), c.Broadcast(acc)
		got := c.FMA(va, vb, vacc)
		want := a*b + acc
		return got.X[0] == want || (math.IsNaN(got.X[0]) && math.IsNaN(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadStoreRev(t *testing.T) {
	c := New(4, nil)
	s := []float64{0, 1, 2, 3, 4, 5}
	v := c.LoadRev(s, 1)
	if v != v8(4, 3, 2, 1) {
		t.Fatalf("LoadRev = %v", v)
	}
	dst := make([]float64, 6)
	c.StoreRev(dst, 1, v)
	for i := 1; i <= 4; i++ {
		if dst[i] != s[i] {
			t.Fatalf("StoreRev round trip: %v", dst)
		}
	}
}

func TestLoadRevCounts(t *testing.T) {
	var cnt perf.Counts
	c := New(4, &cnt)
	s := make([]float64, 8)
	_ = c.LoadRev(s, 0)
	c.StoreRev(s, 0, Vec{})
	if cnt.N[perf.OpVecLoad] != 1 || cnt.N[perf.OpVecStore] != 1 || cnt.N[perf.OpVecMisc] != 2 {
		t.Fatalf("rev counts wrong: %v", cnt)
	}
}

func TestStrideGatherClassification(t *testing.T) {
	cases := []struct {
		w, stride int
		wantNear  bool
	}{
		{8, 2, true},   // GSOR wavefront: 2 lines, resident
		{8, -2, true},  // reversed wavefront
		{4, 1, true},   // contiguous
		{8, 5, false},  // AOS record stride
		{4, 5, false},  // AOS on the narrow machine too
		{8, 3, false},  // wide enough to stream
		{1, 100, true}, // single lane = scalar load
		{2, 2, true},   // tiny footprint
	}
	for _, c := range cases {
		got := strideGatherOp(c.w, c.stride, perf.OpGather, perf.OpGatherNear)
		want := perf.OpGather
		if c.wantNear {
			want = perf.OpGatherNear
		}
		if got != want {
			t.Errorf("w=%d stride=%d: classified %v, want %v", c.w, c.stride, got, want)
		}
	}
}

// Concurrent use of independent contexts over shared read-only data must
// be race-free (exercised under -race).
func TestConcurrentCtxUse(t *testing.T) {
	src := make([]float64, 1024)
	for i := range src {
		src[i] = float64(i)
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			c := New(8, nil)
			acc := c.Zero()
			for i := 0; i+8 <= len(src); i += 8 {
				acc = c.Add(acc, c.Load(src, i))
			}
			_ = c.ReduceAdd(acc)
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
